"""Per-layer spans for qrfsim, recorded from outside the package.

The tracer wraps the functions one qrfsim module imports from another (and
the few module-internal entry points the per-layer metrics name), by
rebinding every name in every ``qrfsim`` module that refers to the original
function.  Intra-module calls resolve module globals at call time, so they
are seen too.  Chart-state amplitudes (closures that callers evaluate
later) are wrapped as they are stored, and ``MomentumGrid.quad_weights``
calls are counted.  Nothing under ``src/`` is edited; ``uninstall``
restores the originals, so untraced passes run the unmodified code.

Each wrapped call records a span: name, layer, start, end, parent.
A span's parent is the innermost open span on its thread; a span opened on a
sweep worker thread with nothing open on that thread gets the running sweep
span as parent.  Self time is a span's duration minus its direct children's
durations (children on one thread run one after another, so they never
overlap).  Busy time of a group of functions is the summed duration of the
group's outermost spans, so nested calls inside the group count once.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function): functions that qrfsim modules import from one another,
# plus module-internal calls that a per-layer metric needs.  The module is
# the span's layer.
WRAPPED = (
    ("packets", "position_wavefunction"),
    ("packets", "expectation"),
    ("packets", "variance"),
    ("packets", "position_mean"),
    ("packets", "position_variance"),
    ("packets", "sym_xp_covariance"),
    ("packets", "make_gaussian"),
    ("packets", "default_grid"),
    ("packets", "from_function"),
    ("packets", "evolve_free"),
    ("packets", "derivative_roughness"),
    ("packets", "_derivative"),
    ("clocks", "angle_moments"),
    ("clocks", "angular_density"),
    ("clocks", "freeclock_packet"),
    ("clocks", "rotator_evolve_rest"),
    ("clocks", "rotator_init"),
    ("clocks", "rotator_read"),
    ("clocks", "theta_matrix"),
    ("sampling", "inverse_cdf_sample"),
    ("sampling", "choice_from_weights"),
    ("sampling", "variance_standard_error"),
    ("sampling", "make_rng"),
    ("relkin", "proper_time_stats"),
    ("relkin", "time_boost"),
    ("relkin", "sample_proper_times"),
    ("relkin", "mc_variance_check"),
    ("relkin", "boosted_evolve"),
    ("relkin", "frame_to_frame"),
    ("relkin", "nonrel_limit_report"),
    ("frames", "measurement_reduce"),
    ("frames", "build_chart"),
    ("frames", "compose_transform"),
    ("frames", "exchange_chain"),
    ("frames", "apply_transform"),
    ("cli", "load_scenario"),
    ("cli", "validate_scenario"),
    ("cli", "expand_sweep"),
    ("cli", "render_csv"),
    ("cli", "render_sidecar"),
    ("cli", "_atomic_write"),
    ("cli", "_worker_count"),
    ("cli", "run_scenario"),
    ("cli", "write_results"),
    ("cli", "run_sweep"),
)

LAYERS = ("packets", "clocks", "frames", "relkin", "sampling", "cli")

#: spans whose work fans out to a thread pool
_FORK = "cli.run_sweep"

# metric name -> the span names whose outermost spans it sums
BUSY = {
    "packets.position_wavefunction.busy_s": ("packets.position_wavefunction",),
    "packets.moments.busy_s": ("packets.expectation", "packets.variance",
                               "packets.position_mean", "packets.position_variance",
                               "packets.sym_xp_covariance"),
    "clocks.angle_moments.busy_s": ("clocks.angle_moments",),
    "clocks.angular_density.busy_s": ("clocks.angular_density",),
    "relkin.time_boost.busy_s": ("relkin.time_boost",),
    "relkin.mc_variance_check.busy_s": ("relkin.mc_variance_check",),
    "sampling.inverse_cdf_sample.busy_s": ("sampling.inverse_cdf_sample",),
    "sampling.choice_from_weights.busy_s": ("sampling.choice_from_weights",),
    "sampling.variance_standard_error.busy_s": ("sampling.variance_standard_error",),
    "frames.charts.busy_s": ("frames.build_chart", "frames.compose_transform",
                             "frames.exchange_chain", "frames.apply_transform",
                             "frames.chart_amplitude"),
    "cli.validate.busy_s": ("cli.load_scenario", "cli.validate_scenario",
                            "cli.expand_sweep"),
    "cli.render.busy_s": ("cli.render_csv", "cli.render_sidecar"),
    "cli.write.busy_s": ("cli._atomic_write",),
}
SELF = {
    "relkin.proper_time_stats.self_s": "relkin.proper_time_stats",
    "relkin.sample_proper_times.self_s": "relkin.sample_proper_times",
    "frames.measurement_reduce.self_s": "frames.measurement_reduce",
}
CALLS = {
    "packets.position_wavefunction.calls": "packets.position_wavefunction",
    "relkin.proper_time_stats.calls": "relkin.proper_time_stats",
    "frames.measurement_reduce.calls": "frames.measurement_reduce",
}
# counters filled by the wrappers themselves
COUNTERS = ("packets.quad_weights.calls", "relkin.time_boost.elements",
            "sampling.draws", "cli.bytes_written")

#: every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    **{name: "s" for name in BUSY},
    **{name: "s" for name in SELF},
    **{name: "count" for name in CALLS},
    "packets.quad_weights.calls": "count",
    "relkin.time_boost.elements": "count",
    "sampling.draws": "count",
    "cli.bytes_written": "bytes",
    "cli.sweep.idle_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# span name -> (counter, amount computed from the call's arguments)
_ARG_COUNTERS = {
    "relkin.time_boost": ("relkin.time_boost.elements",
                          lambda a, k: np.broadcast(np.asarray(_arg(a, k, 0, "p")),
                                                    np.asarray(_arg(a, k, 1, "m2"))).size),
    "sampling.inverse_cdf_sample": ("sampling.draws", lambda a, k: int(_arg(a, k, 2, "n"))),
    "sampling.choice_from_weights": ("sampling.draws", lambda a, k: int(_arg(a, k, 1, "n"))),
    "cli._atomic_write": ("cli.bytes_written",
                          lambda a, k: len(_arg(a, k, 1, "data").encode("utf-8"))),
}


class Tracer:
    """Span recorder; spans stay in memory until ``metrics`` reads them."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fork: int | None = None
        self._lock = threading.Lock()  # sweep workers update counters concurrently
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # span id -> [name, layer, start, end, parent, result]
        self.spans: dict[int, list] = {}
        self.counts: Counter = Counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, name: str, layer: str, fn):
        counter = _ARG_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._fork
            sid = next(self._ids)
            if counter is not None:
                self._count(counter[0], counter[1](args, kwargs))
            record = [name, layer, time.perf_counter(), None, parent, None]
            self.spans[sid] = record
            stack.append(sid)
            if name == _FORK:
                self._fork = sid
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                outer = self.spans.get(parent)
                if outer is None or outer[1] != layer:  # count once per layer crossing
                    self._count(f"{layer}.errors")
                raise
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                if name == _FORK:
                    self._fork = None
            record[5] = result if name == "cli._worker_count" else None
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function, and count MomentumGrid.quad_weights calls."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qrfsim" or n.startswith("qrfsim.")]
        for mod_name, fn_name in WRAPPED:
            original = getattr(sys.modules[f"qrfsim.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", mod_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

        # chart amplitudes are closures that callers evaluate later; wrap each
        # one as it is stored so its evaluation is frames work too
        frames = sys.modules["qrfsim.frames"]
        chart_state = frames.ChartState
        amplitude = functools.partial(self._wrap, "frames.chart_amplitude", "frames")

        def traced_chart_state(chart, amp):
            return chart_state(chart, amplitude(amp))

        self._patched.append((frames, "ChartState", chart_state))
        frames.ChartState = traced_chart_state

        grid_cls = sys.modules["qrfsim.packets"].MomentumGrid
        quad = grid_cls.quad_weights

        @functools.wraps(quad)
        def counted(grid):
            self._count("packets.quad_weights.calls")
            return quad(grid)

        self._patched.append((grid_cls, "quad_weights", quad))
        grid_cls.quad_weights = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        if any(s[3] is None for s in spans.values()):
            raise RuntimeError("metrics read while a span is still open")
        children: dict[int, list[int]] = defaultdict(list)
        for sid, s in spans.items():
            if s[4] is not None:
                children[s[4]].append(sid)

        def duration(sid):
            return spans[sid][3] - spans[sid][2]

        def outermost(names):
            total = 0.0
            for sid, s in spans.items():
                if s[0] not in names:
                    continue
                parent = s[4]
                while parent is not None and spans[parent][0] not in names:
                    parent = spans[parent][4]
                if parent is None:
                    total += duration(sid)
            return total

        out: dict[str, float] = {}
        for metric, names in BUSY.items():
            out[metric] = outermost(set(names))
        for metric, name in SELF.items():
            out[metric] = sum((duration(sid) - sum(duration(c) for c in children[sid])
                               for sid, s in spans.items() if s[0] == name), 0.0)
        for metric, name in CALLS.items():
            out[metric] = sum(1 for s in spans.values() if s[0] == name)
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        idle = 0.0
        for sid, s in spans.items():
            if s[0] == _FORK:
                kids = children[sid]
                workers = next(spans[c][5] for c in kids if spans[c][0] == "cli._worker_count")
                idle += workers * duration(sid) - sum(duration(c) for c in kids)
        out["cli.sweep.idle_s"] = idle
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.counts[f"{layer}.errors"]
        return out
