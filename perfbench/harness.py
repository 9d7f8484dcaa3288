"""Rounds, set-ups and the two kinds of run: timed and traced.

Times are taken against a yardstick.  Other tenants of the machine slow a
run down by up to 1.7 times, for a second or for a whole run, and CPU
time slows with wall time because a contended core runs slower rather than
being taken away.  So after every PROBE_EVERY_S of time in the program a
`Yardstick` times a fixed loop of the benchmark's own, and each stretch of
program time is divided by the loop time measured at its end; an interval
timer also probes in the middle of long calls, so that no stretch is much
longer than PROBE_EVERY_S.  A run reports the sum of those quotients, the
program's time in loops, times YARDSTICK_S.

The quickest loop time of a run is no good as that factor: when other
tenants keep the machine busy for a whole run, its quickest probe is up
to 1.8 times slower than another run's.  YARDSTICK_S is a constant, near the
loop's quickest time on the machine the benchmark was set on, so the
figures there read close to seconds at its quickest speed.  The raw times,
the run's quickest probe and the number of probes go to the samples.
"""

import gc
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from tracer import Tracer

SETUPS_PER_RUN = 3
PROBE_EVERY_S = 0.025
#: the nominal time of one `reference_work`; a time in loops is reported
#: as loops * YARDSTICK_S seconds
YARDSTICK_S = 0.001


def reference_work():
    """About a millisecond of exact arithmetic, tuples and dicts, the mix the
    program runs on.  It calls nothing of the program."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 120):
        x = Fraction(i, 7 + i % 5) * Fraction(3, 1 + i % 4) - Fraction(i % 9, 2)
        key = (i % 11, i % 5, x.numerator % 3)
        table[key] = table.get(key, Fraction(0)) + x
        acc += x / (1 + i % 3)
    rows = [[table.get((a, b, c), 0) for c in range(3)] for a in range(11) for b in range(5)]
    return acc, rows


class Yardstick:
    """Times `reference_work` on demand and keeps the quickest time seen.

    Inside `ticking()`, SIGALRM every PROBE_EVERY_S splits the section that
    is running (`current`) and probes there.
    """

    def __init__(self):
        self.quickest = (float("inf"), float("inf"))
        self.probes = 0
        self.current = None

    @contextmanager
    def ticking(self):
        def tick(signum, frame):
            if self.current is not None:
                self.current.split()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self):
        """(wall, cpu) of one `reference_work`, with the collector held off so
        that the program's heap does not bill its collections to the loop."""
        enabled = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        reference_work()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if enabled:
            gc.enable()
        cpu = max(cpu, 1e-9)
        self.quickest = (min(self.quickest[0], wall), min(self.quickest[1], cpu))
        self.probes += 1
        return wall, cpu


class Clock:
    """Time spent in the program, one timed section per call into it.

    `wall` and `cpu` are the raw sums; `units` the same in yardstick loops,
    each stretch of PROBE_EVERY_S divided by the loop time at its end.  The
    yardstick runs outside the sections.
    """

    def __init__(self, yardstick, tracer=None):
        self.yardstick = yardstick
        self.tracer = tracer
        self.wall = self.cpu = 0.0
        self.units = [0.0, 0.0]
        self._pending = [0.0, 0.0]
        self._start = None  # (wall, cpu) where the running piece of a section began
        self._busy = False  # set while the bookkeeping runs, so a tick keeps out

    @contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.live = True
        self.yardstick.current = self
        self._start = (time.perf_counter(), time.process_time())
        try:
            yield
        finally:
            self._busy = True
            self._close_piece()
            self._start = None
            self.yardstick.current = None
            if self.tracer is not None:
                self.tracer.live = False
            if self._pending[0] >= PROBE_EVERY_S:
                self.settle()
            self._busy = False

    def _close_piece(self):
        wall = time.perf_counter() - self._start[0]
        cpu = time.process_time() - self._start[1]
        self.wall += wall
        self.cpu += cpu
        self._pending[0] += wall
        self._pending[1] += cpu

    def split(self):
        """Probe in the middle of the running section, leaving the probe's own
        time out of the section."""
        if self._busy or self._start is None:
            return
        self._busy = True
        self._close_piece()
        self.settle()
        self._start = (time.perf_counter(), time.process_time())
        self._busy = False

    def settle(self):
        """Divide the stretch since the last probe by a fresh probe."""
        if self._pending == [0.0, 0.0]:
            return
        wall, cpu = self.yardstick.measure()
        self.units[0] += self._pending[0] / wall
        self.units[1] += self._pending[1] / cpu
        self._pending = [0.0, 0.0]

    def seconds(self):
        """(wall, cpu) in loops of the yardstick, times YARDSTICK_S."""
        self.settle()
        return self.units[0] * YARDSTICK_S, self.units[1] * YARDSTICK_S


class Round:
    """One round of checked operations and the time it spent in the program."""

    def __init__(self, expected, clock):
        self.expected = expected
        self.clock = clock
        self.timed = clock.timed
        self.done = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.done += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    def abort(self, reason):
        """Count every operation not yet checked as failed."""
        self.failed += self.expected - self.done
        self.done = self.expected
        self.failures.append(reason)


def clear_caches():
    """Empty the program's module-level memo tables.

    Every round then starts as cold as a fresh run of the program, and
    rounds stay alike instead of the later ones reading what the first
    one stored.
    """
    for name, module in list(sys.modules.items()):
        if name == "cocenter" or name.startswith("cocenter."):
            for attr, value in vars(module).items():
                if attr.endswith("_CACHE") and isinstance(value, dict):
                    value.clear()
                elif callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_round(workload, inputs, corrupt=False, tracer=None, yardstick=None):
    clear_caches()
    gc.collect()
    rnd = Round(inputs.ops, Clock(yardstick or Yardstick(), tracer))
    try:
        workload.round(inputs, rnd, corrupt)
    except Exception as exc:  # a fault of the program fails the rest of the round
        rnd.abort(f"{type(exc).__name__}: {exc}")
    if rnd.done != rnd.expected:
        raise RuntimeError(
            f"{workload.name}: round checked {rnd.done} operations, set-up promised {rnd.expected}")
    return rnd


def _setup(workload, seed, yardstick):
    """The workload's inputs, and a clock of the program calls that built them."""
    clear_caches()
    gc.collect()
    clock = Clock(yardstick)
    return workload.setup(seed, clock.timed), clock


def _result(rounds, metrics):
    attempted = sum(r.done for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for what in r.failures:
            print(f"failed: {what}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def timed_run(workload, seed, seconds):
    """Set up SETUPS_PER_RUN times, then make `seconds // workload.round_s`
    rounds, at least one, and report the medians.

    The number of rounds depends on `seconds` only, not on how fast this
    run goes, so every run attempts the same operations.
    """
    yardstick = Yardstick()
    setup_clocks = []
    with yardstick.ticking():
        for _ in range(SETUPS_PER_RUN):
            inputs = None  # hold one set of inputs at a time
            inputs, clock = _setup(workload, seed, yardstick)
            setup_clocks.append(clock)
        rounds = [run_round(workload, inputs, yardstick=yardstick)
                  for _ in range(max(1, int(seconds // workload.round_s)))]
    setup_times = [clock.seconds()[0] for clock in setup_clocks]
    round_times = [r.clock.seconds() for r in rounds]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": {"value": statistics.median(w for w, _ in round_times), "unit": "s"},
        "cpu_s": {"value": statistics.median(c for _, c in round_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }
    samples = {
        "setup_s": setup_times,
        "setup_raw_s": [clock.wall for clock in setup_clocks],
        "round_wall_s": [w for w, _ in round_times],
        "round_raw_wall_s": [r.clock.wall for r in rounds],
        "yardstick_quickest_s": yardstick.quickest[0],
        "yardstick_probes": yardstick.probes,
    }
    return _result(rounds, metrics), samples


def traced_run(workload, seed):
    """One traced set-up, then one round untraced and one round traced.

    The per-layer metrics come from the traced set-up and round together;
    trace.overhead_s is the traced round's raw wall time minus the untraced
    one's.
    """
    tracer = Tracer()
    yardstick = Yardstick()
    with tracer:
        inputs, _ = _setup(workload, seed, yardstick)
    plain = run_round(workload, inputs, yardstick=yardstick)
    with tracer:
        traced = run_round(workload, inputs, tracer=tracer, yardstick=yardstick)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = {"value": traced.clock.wall - plain.clock.wall, "unit": "s"}
    return _result([plain, traced], metrics), tracer.spans()
