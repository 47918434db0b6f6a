"""The interrupt controller of the BFM.

External devices raise interrupt lines; the controller latches them, orders
them by line priority and signals the kernel's Interrupt Dispatch process via
``irq_event``.  The kernel acknowledges pending interrupts one at a time with
:meth:`InterruptController.acknowledge`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sysc.kernel import Simulator
from repro.sysc.signal import Signal


class InterruptController:
    """Latching, priority-ordered interrupt controller."""

    def __init__(self, simulator: Simulator, name: str = "intc", line_count: int = 8):
        self.simulator = simulator
        self.name = name
        self.line_count = line_count
        self.irq_event = simulator.create_event(f"{name}.irq")
        self.irq_signal: Signal[bool] = Signal(f"{name}.irq_line", False, simulator)
        #: Priority per line: lower value = served first (defaults to line number).
        self.priorities: Dict[int, int] = {line: line for line in range(line_count)}
        self._pending: List[int] = []
        self.raised_count = 0
        self.acknowledged_count = 0
        self.dropped_count = 0

    def set_priority(self, line: int, priority: int) -> None:
        """Assign a service priority to an interrupt line."""
        self._check_line(line)
        self.priorities[line] = priority

    def raise_line(self, line: int) -> None:
        """Latch interrupt *line* and signal the kernel."""
        self._check_line(line)
        self.raised_count += 1
        if line in self._pending:
            # Already latched: edge is lost (level-triggered latch behaviour).
            self.dropped_count += 1
            return
        self._pending.append(line)
        self.irq_signal.write(True)
        self.irq_event.notify()

    def acknowledge(self) -> Optional[int]:
        """Return and clear the highest-priority pending line (None if none)."""
        if not self._pending:
            return None
        self._pending.sort(key=lambda line: (self.priorities.get(line, line), line))
        line = self._pending.pop(0)
        self.acknowledged_count += 1
        if not self._pending:
            self.irq_signal.write(False)
        return line

    def pending_lines(self) -> List[int]:
        """Currently latched lines in service order."""
        return sorted(self._pending, key=lambda line: (self.priorities.get(line, line), line))

    def has_pending(self) -> bool:
        """Whether any interrupt is latched."""
        return bool(self._pending)

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.line_count:
            raise ValueError(f"interrupt line {line} outside [0, {self.line_count})")
