"""The RTOS-centric co-simulation framework (Fig. 5).

:class:`CoSimulationFramework` assembles in one call everything the paper's
case study wires together: the DES simulator, the SIM_API library, RTK-Spec
TRON (the T-Kernel/OS model) driven by the BFM's real-time clock, the i8051
BFM with its peripherals, the GUI widgets (headless), the video-game
application, an optional scripted "user" pressing keypad keys, and a waveform
trace on the bus signals.

It only builds the co-simulation.  A caller runs it with
``framework.simulator.run(duration)`` and reads ``application.summary()``,
``bfm.access_statistics()``, ``widgets`` and ``api`` afterwards.  The
campaign's ``videogame`` workload builds it through
:meth:`FrameworkConfig.from_knobs`, so Table 2's R/S comes from
:func:`~repro.campaign.runner.run_spec` like every other run's; the
Fig. 5–8 benchmarks build it directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.app.videogame import KEY_LEFT, KEY_RIGHT, VideoGameApplication, VideoGameConfig
from repro.app.widgets import WidgetCostModel, WidgetSet
from repro.bfm.i8051 import BFM_CONTROLLERS, BFM_PERIPHERALS, I8051BFM
from repro.core.scheduler import PriorityScheduler
from repro.core.simapi import SimApi
from repro.sysc.kernel import Simulator
from repro.sysc.process import Wait
from repro.sysc.time import SimTime
from repro.sysc.trace import TraceFile
from repro.tkernel.debugger import TKernelDS
from repro.tkernel.kernel import TKernelOS


class FrameworkConfig:
    """Configuration of one co-simulation.

    ``None`` for ``game``, ``key_script`` or ``tick`` means its default: a
    default :class:`VideoGameConfig`, no key presses and a 1 ms tick.
    """

    __slots__ = (
        "gui_enabled", "gui_host_seconds_per_callback",
        "game", "key_script", "trace_waveforms", "tick",
    )

    def __init__(
        self,
        gui_enabled: bool = True,
        gui_host_seconds_per_callback: float = 0.00004,
        game: Optional[VideoGameConfig] = None,
        key_script: Optional[List] = None,
        trace_waveforms: bool = False,
        tick: Optional[SimTime] = None,
    ):
        #: Whether the GUI widgets (and their host callback cost) are enabled.
        self.gui_enabled = gui_enabled
        #: Host seconds burned per GUI callback when the GUI is enabled.
        self.gui_host_seconds_per_callback = gui_host_seconds_per_callback
        #: The video-game parameters (LCD update period is the Table 2 knob).
        self.game = VideoGameConfig() if game is None else game
        #: Scripted user key presses: (time_ms, key_code).
        self.key_script: List = [] if key_script is None else key_script
        #: Whether to record a waveform trace of the bus signals (Fig. 4).
        self.trace_waveforms = trace_waveforms
        #: System tick / RTC resolution.
        self.tick = SimTime.ms(1) if tick is None else tick

    @staticmethod
    def default_key_script(duration_ms: int, period_ms: int = 120) -> List:
        """A deterministic left/right key script covering *duration_ms*."""
        script = []
        keys = [KEY_LEFT, KEY_RIGHT]
        for index, when in enumerate(range(40, duration_ms, period_ms)):
            script.append((when, keys[index % 2]))
        return script

    @classmethod
    def from_knobs(cls, duration_ms: float, gui_enabled: bool,
                   lcd_update_period_ms: int, key_period_ms: int,
                   render_cycles: Optional[int],
                   gui_callback_us: Optional[float],
                   tick_ms: float) -> "FrameworkConfig":
        """Build a config from the flat knobs a campaign scenario exposes;
        their defaults are the spec's and its ``WORKLOADS`` row's.

        *gui_callback_us* is the host cost of one GUI callback in
        microseconds; ``None`` keeps :class:`FrameworkConfig`'s default,
        as ``None`` *render_cycles* keeps :class:`VideoGameConfig`'s.
        """
        duration_ms = int(duration_ms)
        game = VideoGameConfig(
            lcd_update_period_ms=lcd_update_period_ms,
            game_over_ms=max(duration_ms - 50, duration_ms // 2) or None,
        )
        if render_cycles is not None:
            game.render_cycles = render_cycles
        config = cls(
            gui_enabled=gui_enabled,
            game=game,
            key_script=cls.default_key_script(duration_ms, period_ms=key_period_ms),
            tick=SimTime.ms(tick_ms),
        )
        if gui_callback_us is not None:
            config.gui_host_seconds_per_callback = gui_callback_us / 1e6
        return config


class CoSimulationFramework:
    """One fully-wired co-simulation instance."""

    def __init__(self, config: Optional[FrameworkConfig] = None, name: str = "cosim",
                 simulator: Optional[Simulator] = None):
        self.config = config if config is not None else FrameworkConfig()
        self.name = name
        # The campaign runner hands in the simulator it already subscribed
        # its sinks on; standalone use gets a fresh one.
        self.simulator = simulator if simulator is not None else Simulator(name)
        self.api = SimApi(
            self.simulator,
            scheduler=PriorityScheduler(),
            system_tick=self.config.tick,
        )
        self.bfm = I8051BFM(self.api, rtc_resolution=self.config.tick)
        self.application = VideoGameApplication(None, self.bfm, self.config.game)  # type: ignore[arg-type]
        self.kernel = TKernelOS(
            self.simulator,
            user_main=self.application.user_main,
            api=self.api,
            system_tick=self.config.tick,
            tick_signal=self.bfm.tick_signal,
        )
        self.application.kernel = self.kernel
        self.kernel.attach_interrupt_controller(self.bfm.intc)
        self.debugger = TKernelDS(self.kernel)

        cost_model = WidgetCostModel(
            enabled=self.config.gui_enabled,
            host_seconds_per_callback=self.config.gui_host_seconds_per_callback,
        )
        self.widgets = WidgetSet(self.api, self.bfm.lcd, self.bfm.keypad, self.bfm.ssd,
                                 cost_model=cost_model)

        self.trace: Optional[TraceFile] = None
        if self.config.trace_waveforms:
            self.trace = self.bfm.attach_trace()

        self._install_key_script()

    # ------------------------------------------------------------------
    # Scenario plumbing
    # ------------------------------------------------------------------
    def _install_key_script(self) -> None:
        script = list(self.config.key_script)
        if not script:
            return

        widgets = self.widgets

        def user_process():
            last_ms = 0
            for when_ms, key in script:
                delay = max(0, when_ms - last_ms)
                last_ms = when_ms
                if delay:
                    yield Wait(SimTime.ms(delay))
                widgets.keypad.press(key)

        self.simulator.register_thread(f"{self.name}.user_input", user_process)

    # ------------------------------------------------------------------
    # Structural enumeration (Fig. 5)
    # ------------------------------------------------------------------
    def component_inventory(self) -> Dict[str, List[str]]:
        """The framework structure: which components are wired together."""
        return {
            "kernel_processes": [
                handle.name for handle in self.kernel.threads
            ],
            "bfm_controllers": list(BFM_CONTROLLERS),
            "peripherals": list(BFM_PERIPHERALS),
            "widgets": ["lcd_widget", "keypad_widget", "ssd_widget", "battery_widget"],
            "application_tasks": list(self.application.task_ids) or
                ["T1_lcd", "T2_keypad", "T3_ssd", "T4_idle"],
            "application_handlers": ["H1_cyclic", "H2_alarm", "keypad_isr"],
        }
