"""T-Kernel / μ-ITRON error codes.

Service calls return a non-negative value on success (``E_OK`` or an object
identifier) and a negative error code on failure, exactly as the T-Kernel
specification defines.  Only the codes that the simulation model can actually
produce are listed.
"""

from __future__ import annotations

#: Normal completion.
E_OK = 0

#: System error (internal inconsistency).
E_SYS = -5
#: Unsupported function.
E_NOSPT = -9
#: Reserved attribute (invalid object attribute bits).
E_RSATR = -11
#: Parameter error.
E_PAR = -17
#: Invalid ID number.
E_ID = -18
#: Context error (e.g. a blocking call issued from a handler).
E_CTX = -25
#: Memory access violation.
E_MACV = -26
#: Object access violation.
E_OACV = -27
#: Illegal service call use (e.g. unlocking a mutex one does not own).
E_ILUSE = -28
#: Insufficient memory.
E_NOMEM = -33
#: Number of objects exceeds the system limit.
E_LIMIT = -34
#: Object state error (e.g. starting a task that is not dormant).
E_OBJ = -41
#: Object does not exist.
E_NOEXS = -42
#: Queueing overflow (e.g. wakeup request count limit).
E_QOVR = -43
#: Wait released forcibly (tk_rel_wai).
E_RLWAI = -49
#: Polling failure or timeout.
E_TMOUT = -50
#: The waited-on object was deleted.
E_DLT = -51
#: Wait disabled.
E_DISWAI = -52

_NAMES = {
    E_OK: "E_OK",
    E_SYS: "E_SYS",
    E_NOSPT: "E_NOSPT",
    E_RSATR: "E_RSATR",
    E_PAR: "E_PAR",
    E_ID: "E_ID",
    E_CTX: "E_CTX",
    E_MACV: "E_MACV",
    E_OACV: "E_OACV",
    E_ILUSE: "E_ILUSE",
    E_NOMEM: "E_NOMEM",
    E_LIMIT: "E_LIMIT",
    E_OBJ: "E_OBJ",
    E_NOEXS: "E_NOEXS",
    E_QOVR: "E_QOVR",
    E_RLWAI: "E_RLWAI",
    E_TMOUT: "E_TMOUT",
    E_DLT: "E_DLT",
    E_DISWAI: "E_DISWAI",
}


def error_name(code: int) -> str:
    """Human-readable name of an error code (or the number itself)."""
    if code >= 0:
        return "E_OK" if code == 0 else f"ID({code})"
    return _NAMES.get(code, f"E_UNKNOWN({code})")


class KernelPanic(RuntimeError):
    """Raised for internal inconsistencies of the simulation model itself.

    Application-level failures never raise; they return error codes.  A
    panic means the model detected a broken invariant (a bug, not a
    simulated condition).
    """
