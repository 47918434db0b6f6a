"""The video-game application of the case study (section 5.2).

The game is a small paddle-and-ball game mapped onto four communicating tasks
and two handlers, exactly the decomposition of the paper:

=========  ===============  ==========================================================
T-THREAD   Priority          Behaviour
=========  ===============  ==========================================================
LCD:T1     high (8)          waits for a frame semaphore, renders the play field to
                             the LCD through parallel-port BFM writes
Keypad:T2  higher (6)        waits on an event flag set by the keypad ISR, reads the
                             key code from the keypad port and moves the paddle
SSD:T3     medium (12)       periodically writes the score to the seven-segment display
IDLE:T4    lowest (120)      the idle loop, burning background cycles
Cyclic:H1  handler           the game tick: advances the ball, detects bounces and
                             misses, updates the score and signals the frame semaphore
Alarm:H2   handler           one-shot game-over alarm that stops the game
=========  ===============  ==========================================================

The keypad ISR (external interrupt line 0) bridges the hardware keypad to T2.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bfm.i8051 import I8051BFM, KEYPAD_PORT, LCD_PORT, SSD_PORT
from repro.core.events import ExecutionContext
from repro.tkernel import TA_WMUL, TWF_CLR, TWF_ORW
from repro.tkernel.kernel import TKernelOS

#: Key codes delivered by the keypad widget.
KEY_LEFT = 0x01
KEY_RIGHT = 0x02
KEY_FIRE = 0x03


class VideoGameConfig:
    """Tunable parameters of the video-game workload.

    ``lcd_update_period_ms`` is the paper's Table 2 knob: how often a BFM
    access burst drives the LCD GUI widget.  ``game_over_ms`` arms the H2
    alarm handler.
    """

    __slots__ = (
        "field_width", "lcd_update_period_ms", "ssd_update_period_ms",
        "game_tick_period_ms", "game_over_ms", "lcd_task_priority",
        "keypad_task_priority", "ssd_task_priority", "idle_task_priority",
        "render_cycles", "tick_cycles", "idle_slice_cycles",
    )

    def __init__(
        self,
        field_width: int = 16,
        lcd_update_period_ms: int = 10,
        ssd_update_period_ms: int = 50,
        game_tick_period_ms: int = 20,
        game_over_ms: Optional[int] = None,
        lcd_task_priority: int = 8,
        keypad_task_priority: int = 6,
        ssd_task_priority: int = 12,
        idle_task_priority: int = 120,
        render_cycles: int = 400,
        tick_cycles: int = 120,
        idle_slice_cycles: int = 200,
    ):
        self.field_width = field_width
        self.lcd_update_period_ms = lcd_update_period_ms
        self.ssd_update_period_ms = ssd_update_period_ms
        self.game_tick_period_ms = game_tick_period_ms
        self.game_over_ms = game_over_ms
        self.lcd_task_priority = lcd_task_priority
        self.keypad_task_priority = keypad_task_priority
        self.ssd_task_priority = ssd_task_priority
        self.idle_task_priority = idle_task_priority
        #: Cycle budget of the per-frame rendering computation (basic block).
        self.render_cycles = render_cycles
        #: Cycle budget of the game-tick computation inside H1.
        self.tick_cycles = tick_cycles
        self.idle_slice_cycles = idle_slice_cycles


class GameState:
    """Shared state updated by the handlers and tasks."""

    __slots__ = (
        "field_width", "paddle", "ball", "ball_direction", "score", "misses",
        "running", "frames_rendered", "keys_handled", "key_log",
    )

    def __init__(self, field_width: int = 16, paddle: int = 8, ball: int = 0,
                 ball_direction: int = 1):
        self.field_width = field_width
        self.paddle = paddle
        self.ball = ball
        self.ball_direction = ball_direction
        self.score = 0
        self.misses = 0
        self.running = True
        self.frames_rendered = 0
        self.keys_handled = 0
        self.key_log: List[int] = []

    def advance_ball(self) -> None:
        """Move the ball one cell; bounce at the paddle, score or miss."""
        if not self.running:
            return
        self.ball += self.ball_direction
        if self.ball <= 0:
            self.ball = 0
            self.ball_direction = 1
        elif self.ball >= self.field_width - 1:
            if abs(self.paddle - self.ball) <= 1:
                self.score += 1
            else:
                self.misses += 1
            self.ball_direction = -1
            self.ball = self.field_width - 1

    def move_paddle(self, key_code: int) -> None:
        """Apply a key press to the paddle position."""
        if key_code == KEY_LEFT:
            self.paddle = max(0, self.paddle - 1)
        elif key_code == KEY_RIGHT:
            self.paddle = min(self.field_width - 1, self.paddle + 1)

    def render_row(self) -> str:
        """The play field as a one-line string (ball ``o``, paddle ``=``)."""
        row = ["."] * self.field_width
        row[self.paddle] = "="
        row[self.ball % self.field_width] = "o"
        return "".join(row)


class VideoGameApplication:
    """Creates the game's tasks, handlers and kernel objects on a kernel."""

    #: Event-flag bit set by the keypad ISR.
    KEY_EVENT_BIT = 0b1
    #: Event-flag bit set by the game-over alarm.
    GAME_OVER_BIT = 0b10

    def __init__(self, kernel: TKernelOS, bfm: I8051BFM,
                 config: Optional[VideoGameConfig] = None):
        self.kernel = kernel
        self.bfm = bfm
        self.config = config if config is not None else VideoGameConfig()
        self.state = GameState(field_width=self.config.field_width)
        self.task_ids: Dict[str, int] = {}
        self.frame_semaphore_id: Optional[int] = None
        self.key_flag_id: Optional[int] = None
        self.cyclic_id: Optional[int] = None
        self.alarm_id: Optional[int] = None

    # ------------------------------------------------------------------
    # user_main: create every object and start the tasks
    # ------------------------------------------------------------------
    def user_main(self, kernel: TKernelOS):
        """The user main entry the initial task runs (creates the scenario)."""
        config = self.config
        self.frame_semaphore_id = yield from kernel.tk_cre_sem(
            isemcnt=0, maxsem=8, name="frame_sem"
        )
        self.key_flag_id = yield from kernel.tk_cre_flg(
            iflgptn=0, flgatr=TA_WMUL, name="key_flag"
        )

        t1 = yield from kernel.tk_cre_tsk(
            self._lcd_task, itskpri=config.lcd_task_priority, name="T1_lcd"
        )
        t2 = yield from kernel.tk_cre_tsk(
            self._keypad_task, itskpri=config.keypad_task_priority, name="T2_keypad"
        )
        t3 = yield from kernel.tk_cre_tsk(
            self._ssd_task, itskpri=config.ssd_task_priority, name="T3_ssd"
        )
        t4 = yield from kernel.tk_cre_tsk(
            self._idle_task, itskpri=config.idle_task_priority, name="T4_idle"
        )
        self.task_ids = {"T1_lcd": t1, "T2_keypad": t2, "T3_ssd": t3, "T4_idle": t4}

        yield from kernel.tk_def_int(0, self._keypad_isr, name="keypad_isr")

        self.cyclic_id = yield from kernel.tk_cre_cyc(
            self._game_tick_handler, cyctim=config.game_tick_period_ms, name="H1_cyclic"
        )
        self.alarm_id = yield from kernel.tk_cre_alm(
            self._game_over_handler, name="H2_alarm"
        )

        for task_id in self.task_ids.values():
            yield from kernel.tk_sta_tsk(task_id)
        yield from kernel.tk_sta_cyc(self.cyclic_id)
        if config.game_over_ms is not None:
            yield from kernel.tk_sta_alm(self.alarm_id, config.game_over_ms)

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def _lcd_task(self, stacd, exinf):
        """T1: render a frame to the LCD whenever the frame semaphore fires."""
        kernel, api, config = self.kernel, self.kernel.api, self.config
        while self.state.running:
            yield from kernel.tk_wai_sem(self.frame_semaphore_id)
            # Rate-limit rendering to the configured LCD update period.
            yield from kernel.tk_dly_tsk(config.lcd_update_period_ms)
            yield from api.sim_wait(
                cycles=config.render_cycles, label="task:T1:render"
            )
            row = self.state.render_row()
            for character in row:
                yield from self.bfm.pio.write_port(LCD_PORT, ord(character))
            self.state.frames_rendered += 1

    def _keypad_task(self, stacd, exinf):
        """T2: consume key events signalled by the keypad ISR."""
        kernel, api = self.kernel, self.kernel.api
        while self.state.running:
            pattern = yield from kernel.tk_wai_flg(
                self.key_flag_id, self.KEY_EVENT_BIT | self.GAME_OVER_BIT,
                TWF_ORW | TWF_CLR,
            )
            if pattern < 0 or not self.state.running:
                return
            if pattern & self.GAME_OVER_BIT:
                return
            key = yield from self.bfm.pio.read_port(KEYPAD_PORT)
            # Acknowledge the key (pops it from the keypad FIFO).
            yield from self.bfm.pio.write_port(KEYPAD_PORT, 0)
            yield from api.sim_wait(cycles=60, label="task:T2:handle_key")
            self.state.move_paddle(key)
            self.state.keys_handled += 1
            self.state.key_log.append(key)

    def _ssd_task(self, stacd, exinf):
        """T3: periodically publish the score on the seven-segment display."""
        kernel, api, config = self.kernel, self.kernel.api, self.config
        while self.state.running:
            yield from kernel.tk_dly_tsk(config.ssd_update_period_ms)
            yield from api.sim_wait(cycles=40, label="task:T3:format_score")
            score = self.state.score % 100
            yield from self.bfm.pio.write_port(SSD_PORT, (0 << 4) | (score % 10))
            yield from self.bfm.pio.write_port(SSD_PORT, (1 << 4) | (score // 10))

    def _idle_task(self, stacd, exinf):
        """T4: the idle loop."""
        api, config = self.kernel.api, self.config
        while True:
            yield from api.sim_wait(
                cycles=config.idle_slice_cycles,
                context=ExecutionContext.IDLE,
                label="task:T4:idle",
            )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _game_tick_handler(self, exinf):
        """H1 (cyclic): advance the game and signal a new frame."""
        kernel, api, config = self.kernel, self.kernel.api, self.config
        yield from api.sim_wait(
            cycles=config.tick_cycles,
            context=ExecutionContext.HANDLER,
            label="handler:H1:tick",
        )
        if not self.state.running:
            return
        self.state.advance_ball()
        yield from kernel.tk_sig_sem(self.frame_semaphore_id)

    def _game_over_handler(self, exinf):
        """H2 (alarm): stop the game and release any waiting tasks."""
        kernel, api = self.kernel, self.kernel.api
        yield from api.sim_wait(
            cycles=50, context=ExecutionContext.HANDLER, label="handler:H2:game_over"
        )
        self.state.running = False
        yield from kernel.tk_set_flg(self.key_flag_id, self.GAME_OVER_BIT)
        yield from kernel.tk_sig_sem(self.frame_semaphore_id)

    def _keypad_isr(self, exinf):
        """Keypad ISR: turn the hardware interrupt into a key event flag."""
        kernel, api = self.kernel, self.kernel.api
        yield from api.sim_wait(
            cycles=30, context=ExecutionContext.HANDLER, label="isr:keypad"
        )
        yield from kernel.tk_set_flg(self.key_flag_id, self.KEY_EVENT_BIT)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A compact result summary for benchmarks and examples."""
        return {
            "frames_rendered": self.state.frames_rendered,
            "keys_handled": self.state.keys_handled,
            "score": self.state.score,
            "misses": self.state.misses,
            "running": self.state.running,
            "tasks": dict(self.task_ids),
        }
