"""Headless virtual-prototype widgets.

The paper wraps the ASIC peripherals in GUI widgets "to give the look & feel
of a virtual system prototype" and measures the co-simulation slowdown caused
by their callback functions (Table 2).  This module provides headless
equivalents that keep the same state and expose the same measurement hooks:

* each widget registers a callback on its hardware device and, when the
  :class:`WidgetCostModel` says the GUI is enabled, burns a configurable
  amount of *host* wall-clock time per callback — that is what makes the
  with-GUI co-simulation measurably slower, reproducing the Table 2 effect
  without a display,
* :class:`BatteryWidget` integrates consumed execution energy against a
  10 Wh battery (Fig. 7),
* :class:`WidgetSet` groups everything and renders a text dashboard.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.bfm.peripherals import KeypadDevice, LCDDevice, SevenSegmentDevice
from repro.core.simapi import SimApi

#: The battery assumed by the paper's Fig. 7 widget: 10 watt-hours.
DEFAULT_BATTERY_WATT_HOURS = 10.0


class WidgetCostModel:
    """Host-side cost of GUI callbacks.

    ``enabled`` switches the GUI overhead on or off (the two halves of
    Table 2); ``host_seconds_per_callback`` is the wall-clock time burned per
    widget callback, standing in for X11 drawing and event handling.
    """

    __slots__ = ("enabled", "host_seconds_per_callback")

    def __init__(self, enabled: bool = True,
                 host_seconds_per_callback: float = 0.00004):
        self.enabled = enabled
        self.host_seconds_per_callback = host_seconds_per_callback

    def charge(self) -> None:
        """Burn the configured amount of host time (busy wait)."""
        if not self.enabled or self.host_seconds_per_callback <= 0:
            return
        deadline = time.perf_counter() + self.host_seconds_per_callback
        while time.perf_counter() < deadline:
            pass


class LCDWidget:
    """Headless view of the LCD frame buffer.

    A device update only marks the view dirty (and charges the modelled GUI
    cost); :attr:`last_text` renders the frame when it is read, so a run
    that writes hundreds of characters and reads the display once renders
    it once.
    """

    def __init__(self, device: LCDDevice, cost_model: WidgetCostModel):
        self.device = device
        self.cost_model = cost_model
        self.callback_count = 0
        self._text: List[str] = []
        self._dirty = True
        device.update_hooks.append(self._on_update)

    def _on_update(self, device: LCDDevice) -> None:
        self.callback_count += 1
        self._dirty = True
        self.cost_model.charge()

    @property
    def last_text(self) -> List[str]:
        """The display contents, rendered on read after an update."""
        if self._dirty:
            self._dirty = False
            self._text = self.device.text()
        return self._text

    def render(self) -> str:
        """The current display contents framed as text."""
        width = self.device.columns
        border = "+" + "-" * width + "+"
        body = "\n".join(f"|{line}|" for line in self.last_text)
        return f"{border}\n{body}\n{border}"


class SSDWidget:
    """Headless view of the seven-segment display digits."""

    def __init__(self, device: SevenSegmentDevice, cost_model: WidgetCostModel):
        self.device = device
        self.cost_model = cost_model
        self.callback_count = 0
        device.update_hooks.append(self._on_update)

    def _on_update(self, device: SevenSegmentDevice) -> None:
        self.callback_count += 1
        self.cost_model.charge()

    def render(self) -> str:
        """The displayed digits, most significant first."""
        return "[" + " ".join(str(d) for d in reversed(self.device.digits)) + "]"


class KeypadWidget:
    """Headless keypad: scripted user key presses instead of mouse clicks."""

    def __init__(self, device: KeypadDevice, cost_model: WidgetCostModel):
        self.device = device
        self.cost_model = cost_model
        self.injected: List[int] = []

    def press(self, key_code: int) -> bool:
        """Simulate the user pressing a key on the widget."""
        self.cost_model.charge()
        self.injected.append(key_code)
        return self.device.press_key(key_code)


class BatteryWidget:
    """The Fig. 7 battery widget: a 10 Wh battery drained by CEE.

    At every :meth:`update` the widget reads the accumulated consumed
    execution energy from the SIM_API statistics, adds the idle platform
    draw, and recomputes the remaining charge and the projected lifespan.
    """

    def __init__(self, api: SimApi, watt_hours: float = DEFAULT_BATTERY_WATT_HOURS):
        if watt_hours <= 0:
            raise ValueError("battery capacity must be positive")
        self.api = api
        self.capacity_mj = watt_hours * 3600.0 * 1000.0  # Wh -> J -> mJ
        self.consumed_mj = 0.0
        self.update_count = 0

    def update(self) -> None:
        """Refresh the consumed-energy reading."""
        self.update_count += 1
        self.consumed_mj = self.api.total_consumed_energy_mj(include_idle=True)

    @property
    def remaining_fraction(self) -> float:
        """Remaining charge as a fraction of capacity (clamped to [0, 1])."""
        remaining = 1.0 - self.consumed_mj / self.capacity_mj
        return min(1.0, max(0.0, remaining))

    def projected_lifespan_hours(self) -> Optional[float]:
        """Battery lifespan extrapolated from the average drain so far."""
        elapsed = self.api.simulator.now.to_sec()
        if elapsed <= 0 or self.consumed_mj <= 0:
            return None
        drain_mj_per_s = self.consumed_mj / elapsed
        return self.capacity_mj / drain_mj_per_s / 3600.0

    def render(self, width: int = 30) -> str:
        """A text status bar like the paper's battery display."""
        filled = int(round(self.remaining_fraction * width))
        bar = "#" * filled + "." * (width - filled)
        lifespan = self.projected_lifespan_hours()
        lifespan_text = f"{lifespan:.1f} h" if lifespan is not None else "n/a"
        return (
            f"battery [{bar}] {self.remaining_fraction * 100:5.1f}%  "
            f"consumed {self.consumed_mj:.3f} mJ  projected lifespan {lifespan_text}"
        )


class WidgetSet:
    """All widgets of the virtual system prototype."""

    def __init__(self, api: SimApi, lcd: LCDDevice, keypad: KeypadDevice,
                 ssd: SevenSegmentDevice, cost_model: Optional[WidgetCostModel] = None,
                 battery_watt_hours: float = DEFAULT_BATTERY_WATT_HOURS):
        self.cost_model = cost_model if cost_model is not None else WidgetCostModel()
        self.lcd = LCDWidget(lcd, self.cost_model)
        self.keypad = KeypadWidget(keypad, self.cost_model)
        self.ssd = SSDWidget(ssd, self.cost_model)
        self.battery = BatteryWidget(api, battery_watt_hours)

    def callback_count(self) -> int:
        """Total GUI callbacks triggered so far."""
        return self.lcd.callback_count + self.ssd.callback_count + self.battery.update_count

    def render_dashboard(self) -> str:
        """A text dashboard combining every widget."""
        self.battery.update()
        return "\n".join([
            "=== virtual system prototype ===",
            self.lcd.render(),
            f"score {self.ssd.render()}",
            self.battery.render(),
        ])
