"""RTK-Spec TRON — a behavioural simulation model of the T-Kernel/OS.

This package models the T-Kernel/OS (the ITRON-heritage kernel of the
T-Engine platform) on top of the SIM_API library: priority-based preemptive
scheduling, tasks, semaphores, event flags, mutexes, mailboxes, message
buffers, fixed and variable memory pools, system time with cyclic and alarm
handlers, interrupt handling, and the T-Kernel/DS debugger-support view.

The public entry point is :class:`repro.tkernel.kernel.TKernelOS`.  Service
calls follow the T-Kernel naming (``tk_cre_tsk``, ``tk_wai_sem``, ...), are
implemented as generators (call them with ``yield from`` inside a task body)
and return T-Kernel error codes (negative) or object identifiers (positive).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".kernel": ("TKernelOS",),
    ".debugger": ("TKernelDS",),
    ".errors": (
        "E_OK",
        "E_ID",
        "E_NOEXS",
        "E_OBJ",
        "E_PAR",
        "E_CTX",
        "E_QOVR",
        "E_RLWAI",
        "E_TMOUT",
        "E_DLT",
        "E_NOMEM",
        "E_LIMIT",
        "E_ILUSE",
        "E_NOSPT",
        "E_RSATR",
        "error_name",
    ),
    ".types": (
        "TA_TFIFO",
        "TA_TPRI",
        "TA_HLNG",
        "TA_WSGL",
        "TA_WMUL",
        "TA_CLR",
        "TA_STA",
        "TA_INHERIT",
        "TA_CEILING",
        "TMO_POL",
        "TMO_FEVR",
        "TSK_SELF",
        "TTS_RUN",
        "TTS_RDY",
        "TTS_WAI",
        "TTS_SUS",
        "TTS_WAS",
        "TTS_DMT",
        "TWF_ANDW",
        "TWF_ORW",
        "TWF_CLR",
        "TWF_BITCLR",
    ),
})
