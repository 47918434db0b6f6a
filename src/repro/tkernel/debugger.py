"""T-Kernel/DS — the debugger-support component (Fig. 8).

The paper's structure (Fig. 1) includes *T-Kernel/DS*, which "acts as a
debugger that references different resources and kernel internal states".
:class:`TKernelDS` provides exactly that view: snapshots of every kernel
object, the running task, the interrupt nesting level and resource usage,
plus a plain-text listing in the spirit of the paper's Fig. 8 output.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.tkernel.types import wait_factor_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS


class TKernelDS:
    """Read-only debugger view over a :class:`TKernelOS` instance."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Structured snapshots
    # ------------------------------------------------------------------
    def task_snapshot(self) -> List[Dict]:
        """State of every task."""
        kernel = self.kernel
        running = kernel.api.running
        rows = []
        for tcb in kernel.tasks.table.all():
            rows.append({
                "tskid": tcb.tskid,
                "name": tcb.name,
                "pri": tcb.priority,
                "base_pri": tcb.base_priority,
                "state": tcb.state_name(running),
                "wait": wait_factor_name(tcb.wait_factor),
                "wait_obj": tcb.wait_object_id,
                "wupcnt": tcb.wupcnt,
                "suscnt": tcb.suscnt,
                "cet_ms": tcb.thread.consumed_execution_time.to_ms() if tcb.thread else 0.0,
                "cee_mj": tcb.thread.token.consumed_execution_energy_mj if tcb.thread else 0.0,
            })
        return rows

    def semaphore_snapshot(self) -> List[Dict]:
        """State of every semaphore."""
        return [
            {
                "semid": sem.object_id,
                "name": sem.name,
                "count": sem.count,
                "max": sem.max_count,
                "waiting": sem.wait_queue.waiting_task_ids(),
            }
            for sem in self.kernel.semaphores.table.all()
        ]

    def eventflag_snapshot(self) -> List[Dict]:
        """State of every event flag."""
        return [
            {
                "flgid": flag.object_id,
                "name": flag.name,
                "pattern": flag.pattern,
                "waiting": flag.wait_queue.waiting_task_ids(),
            }
            for flag in self.kernel.eventflags.table.all()
        ]

    def mutex_snapshot(self) -> List[Dict]:
        """State of every mutex."""
        return [
            {
                "mtxid": mutex.object_id,
                "name": mutex.name,
                "owner": mutex.owner.tskid if mutex.owner else 0,
                "protocol": mutex.protocol,
                "waiting": mutex.wait_queue.waiting_task_ids(),
            }
            for mutex in self.kernel.mutexes.table.all()
        ]

    def mailbox_snapshot(self) -> List[Dict]:
        """State of every mailbox."""
        return [
            {
                "mbxid": mbx.object_id,
                "name": mbx.name,
                "messages": len(mbx.messages),
                "sent": mbx.sent_count,
                "received": mbx.received_count,
                "waiting": mbx.wait_queue.waiting_task_ids(),
            }
            for mbx in self.kernel.mailboxes.table.all()
        ]

    def message_buffer_snapshot(self) -> List[Dict]:
        """State of every message buffer."""
        return [
            {
                "mbfid": mbf.object_id,
                "name": mbf.name,
                "messages": len(mbf.messages),
                "used_bytes": mbf.used_bytes,
                "buffer_size": mbf.buffer_size,
                "senders_waiting": mbf.send_queue.waiting_task_ids(),
                "receivers_waiting": mbf.receive_queue.waiting_task_ids(),
            }
            for mbf in self.kernel.message_buffers.table.all()
        ]

    def memory_pool_snapshot(self) -> List[Dict]:
        """State of every memory pool (fixed and variable)."""
        pools = []
        for pool in self.kernel.memory_pools.fixed_table.all():
            pools.append({
                "kind": "fixed",
                "id": pool.object_id,
                "name": pool.name,
                "free_blocks": pool.free_blocks(),
                "block_count": pool.block_count,
                "block_size": pool.block_size,
                "waiting": pool.wait_queue.waiting_task_ids(),
            })
        for pool in self.kernel.memory_pools.variable_table.all():
            pools.append({
                "kind": "variable",
                "id": pool.object_id,
                "name": pool.name,
                "free_bytes": pool.free_bytes(),
                "pool_size": pool.pool_size,
                "waiting": pool.wait_queue.waiting_task_ids(),
            })
        return pools

    def handler_snapshot(self) -> List[Dict]:
        """State of every cyclic, alarm and interrupt handler."""
        rows = []
        for cyc in self.kernel.cyclics.table.all():
            rows.append({
                "kind": "cyclic",
                "id": cyc.object_id,
                "name": cyc.name,
                "active": cyc.active,
                "period_ms": cyc.cycle_time_ms,
                "activations": cyc.activation_count,
            })
        for alarm in self.kernel.alarms.table.all():
            rows.append({
                "kind": "alarm",
                "id": alarm.object_id,
                "name": alarm.name,
                "armed": alarm.active,
                "activations": alarm.activation_count,
            })
        for isr in self.kernel.interrupts.all_handlers():
            rows.append({
                "kind": "interrupt",
                "id": isr.intno,
                "name": isr.name,
                "enabled": isr.enabled,
                "activations": isr.activation_count,
            })
        return rows

    def system_snapshot(self) -> Dict:
        """Overall system state (running task, nesting level, counters)."""
        kernel = self.kernel
        running_tcb = kernel.tasks.current_tcb()
        return {
            "now_ms": kernel.simulator.now.to_ms(),
            "system_time_ms": kernel.time.get_system_time(),
            "booted": kernel.booted,
            "running_task": running_tcb.name if running_tcb else None,
            "interrupt_nesting": kernel.api.stack.depth,
            "dispatch_count": kernel.api.dispatch_count,
            "preemption_count": kernel.api.preemption_count,
            "interrupt_count": kernel.api.interrupt_count,
            "service_calls": dict(kernel.service_call_counts),
            "task_count": len(kernel.tasks.table),
            "semaphore_count": len(kernel.semaphores.table),
            "flag_count": len(kernel.eventflags.table),
            "mailbox_count": len(kernel.mailboxes.table),
        }

    # ------------------------------------------------------------------
    # Fig. 8 style plain-text listing
    # ------------------------------------------------------------------
    def render_listing(self) -> str:
        """A T-Kernel/DS output listing of kernel objects and their states."""
        kernel = self.kernel
        lines: List[str] = []
        lines.append("=== T-Kernel/DS object listing ===")
        system = self.system_snapshot()
        lines.append(
            f"time {system['now_ms']:.0f} ms   systime {system['system_time_ms']} ms   "
            f"running {system['running_task'] or '-'}   "
            f"intnest {system['interrupt_nesting']}"
        )
        lines.append("-- tasks --")
        lines.append(" id  name             pri  state  wait  wup  sus   CET[ms]   CEE[mJ]")
        for row in self.task_snapshot():
            lines.append(
                f"{row['tskid']:>3}  {row['name']:<16} {row['pri']:>4}  "
                f"{row['state']:<5}  {row['wait']:<4}  {row['wupcnt']:>3}  {row['suscnt']:>3}  "
                f"{row['cet_ms']:>8.2f}  {row['cee_mj']:>8.4f}"
            )
        if self.semaphore_snapshot():
            lines.append("-- semaphores --")
            for row in self.semaphore_snapshot():
                lines.append(
                    f"{row['semid']:>3}  {row['name']:<16} count {row['count']}/{row['max']}"
                    f"  waiting {row['waiting']}"
                )
        if self.eventflag_snapshot():
            lines.append("-- event flags --")
            for row in self.eventflag_snapshot():
                lines.append(
                    f"{row['flgid']:>3}  {row['name']:<16} pattern 0x{row['pattern']:08X}"
                    f"  waiting {row['waiting']}"
                )
        if self.mutex_snapshot():
            lines.append("-- mutexes --")
            for row in self.mutex_snapshot():
                lines.append(
                    f"{row['mtxid']:>3}  {row['name']:<16} owner {row['owner']}"
                    f" ({row['protocol']})  waiting {row['waiting']}"
                )
        if self.mailbox_snapshot():
            lines.append("-- mailboxes --")
            for row in self.mailbox_snapshot():
                lines.append(
                    f"{row['mbxid']:>3}  {row['name']:<16} msgs {row['messages']}"
                    f" (sent {row['sent']}, rcvd {row['received']})  waiting {row['waiting']}"
                )
        if self.message_buffer_snapshot():
            lines.append("-- message buffers --")
            for row in self.message_buffer_snapshot():
                lines.append(
                    f"{row['mbfid']:>3}  {row['name']:<16} msgs {row['messages']}"
                    f"  used {row['used_bytes']}/{row['buffer_size']} bytes"
                )
        if self.memory_pool_snapshot():
            lines.append("-- memory pools --")
            for row in self.memory_pool_snapshot():
                if row["kind"] == "fixed":
                    usage = f"free blocks {row['free_blocks']}/{row['block_count']}"
                else:
                    usage = f"free bytes {row['free_bytes']}/{row['pool_size']}"
                lines.append(f"{row['id']:>3}  {row['name']:<16} {row['kind']:<8} {usage}")
        if self.handler_snapshot():
            lines.append("-- time-event & interrupt handlers --")
            for row in self.handler_snapshot():
                detail = ""
                if row["kind"] == "cyclic":
                    detail = f"period {row['period_ms']} ms, active {row['active']}"
                elif row["kind"] == "alarm":
                    detail = f"armed {row['armed']}"
                else:
                    detail = f"enabled {row['enabled']}"
                lines.append(
                    f"{row['id']:>3}  {row['name']:<16} {row['kind']:<9} {detail}"
                    f"  activations {row['activations']}"
                )
        return "\n".join(lines)
