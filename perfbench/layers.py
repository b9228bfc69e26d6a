"""Outside-in layer tracing: wrap the public entry points of each layer.

The benchmark never edits ``src/``.  To see which layer the time goes
to, :class:`Tracer` replaces selected functions and methods of the
``repro`` package with timing wrappers for the length of a traced pass
and puts the originals back afterwards.  Each wrapped call is a span:

* *coarse* spans (a Table I run, a fork, a plan compile, ...) are kept
  in memory with name, start, end, parent span and trace id, and are
  written out when the benchmark ends;
* *hot* spans (per-cycle calls such as ``Core.step``, per-block plan
  compiles) are too many to keep one by one; they are folded into
  per-name totals but still count as children of the span that called
  them.

A span's self time is its duration minus the time its child spans
cover.  The benchmark opens one top-level span per unit around its
call into the program; the layer spans below it must account for the
traced wall time, so a unit span's own self time (time no layer
wrapper saw) must stay small.

On the fast tier's classic two-core span the monitor observe and the
memory stage are inlined into generated code, so no wrapper sees
them: their cost is part of ``engine.span_s``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

_perf = time.perf_counter


class SpanStats:
    """Per-name totals: calls, inclusive and self seconds, durations."""

    __slots__ = ("name", "layer", "calls", "total", "self_s",
                 "durations")

    def __init__(self, name: str, layer: str, keep_durations: bool):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.durations: Optional[List[float]] = (
            [] if keep_durations else None)


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        #: Coarse spans: (span_id, parent_id, name, start, end, trace_id).
        self.spans: List[tuple] = []
        #: Open frames: [span_id, child_seconds].
        self._stack: List[list] = []
        self._next_id = 1
        self.trace_id = 0
        self._undo: List[tuple] = []
        #: SoCs built since the caller last cleared the list.
        self.socs: List[object] = []

    # -- spans ------------------------------------------------------------

    def stat(self, name: str, layer: str,
             keep_durations: bool = False) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStats(name, layer,
                                                keep_durations)
        return stat

    def span(self, name: str, layer: str, func, *args, **kwargs):
        """Run ``func`` inside a coarse span (used for unit spans)."""
        return self._wrap(func, self.stat(name, layer), hot=False)(
            *args, **kwargs)

    def _wrap(self, func, stat: SpanStats, hot: bool):
        stack = self._stack
        spans = self.spans
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                frame = [0, 0.0]
                stack.append(frame)
                start = _perf()
                try:
                    return func(*args, **kwargs)
                finally:
                    duration = _perf() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    stat.calls += 1
                    stat.total += duration
                    stat.self_s += duration - frame[1]
            return wrapper

        durations = stat.durations
        name = stat.name

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                return func(*args, **kwargs)
            finally:
                end = _perf()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_s += duration - frame[1]
                if durations is not None:
                    durations.append(duration)
                spans.append((span_id, parent, name, start, end,
                              tracer.trace_id))
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str,
              hot: bool = False, keep_durations: bool = False,
              func=None):
        """Replace ``owner.attr`` (module function, method, classmethod)
        with a timing wrapper until :meth:`restore`.  ``func``, when
        given, is timed in place of the original (it must call it)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        stat = self.stat(name, layer, keep_durations)
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, stat, hot))
        else:
            replacement = self._wrap(func or raw, stat, hot)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def wrap_callable(self, func, name: str, layer: str):
        """A hot wrapper around one callable object (scheme taps)."""
        return self._wrap(func, self.stat(name, layer), hot=True)

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for stat in self.stats.values():
            out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_s
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, _, start, end, _
                   in self.spans if parent == 0)


def install(tracer: Tracer):
    """Wrap every layer entry point the benchmark attributes time to.

    Names follow ``<layer>.<what>``; the layer is the ``repro`` module
    the wrapped code lives in.
    """
    import repro.engine as engine_pkg
    import repro.fault as fault_pkg
    import repro.montecarlo.campaign as mc_campaign
    import repro.replay.monitor_sweep as monitor_sweep
    import repro.runner.sweep as runner_sweep
    import repro.workloads as workloads_pkg
    from repro.checkpoint import Snapshot
    from repro.core.monitor import DiversityMonitor
    from repro.cpu.core import Core
    from repro.engine.fast import FastRunner
    from repro.engine.plan import ProgramPlan
    from repro.fault.injector import ForkEngine
    from repro.lint.masking import StaticMaskFilter
    from repro.mem.bus import AhbBus
    from repro.montecarlo.campaign import BatchedCampaign
    from repro.replay.engine import ReplayEngine
    from repro.schemes import base as schemes_base
    from repro.schemes import dme, lockstep, multipair, tmr
    from repro.soc.mpsoc import MPSoC
    from repro.trace.stream_trace import StreamTrace

    p = tracer.patch
    # isa / workloads: program assembly (registry-cached per process).
    p(workloads_pkg, "program", "isa.assemble", "isa")
    # runner: the Table I sweep driver and the runs it fans out.
    p(runner_sweep.ParallelSweep, "run_table", "runner.run_table",
      "runner")
    p(runner_sweep, "run_redundant", "soc.run_redundant", "soc")
    # soc: platform build and program start.  Built SoCs are kept
    # until the caller reads their engine statistics.
    raw_init = MPSoC.__dict__["__init__"]

    def init(soc, *args, **kwargs):
        raw_init(soc, *args, **kwargs)
        tracer.socs.append(soc)
    p(MPSoC, "__init__", "soc.build", "soc", func=init)
    p(MPSoC, "start_redundant", "soc.start", "soc")
    p(MPSoC, "step", "soc.step", "soc", hot=True)
    for module in (schemes_base, dme, lockstep, multipair, tmr):
        for cls in vars(module).values():
            if (isinstance(cls, type)
                    and issubclass(cls, schemes_base.RedundancyScheme)
                    and "start" in cls.__dict__):
                p(cls, "start", "soc.scheme_start", "soc")
    # engine: tier selection, spans, plan compilation.
    p(engine_pkg, "run_soc", "engine.run_soc", "engine")
    p(FastRunner, "run_span", "engine.span", "engine")
    p(ProgramPlan, "build_fetch_maker", "engine.compile_fetch", "engine",
      hot=True)
    p(ProgramPlan, "build_issue_maker", "engine.compile_issue", "engine",
      hot=True)
    # cpu / mem / core: the reference interpreter's per-cycle calls.
    p(Core, "step", "cpu.step", "cpu", hot=True)
    p(AhbBus, "step", "mem.bus_step", "mem", hot=True)
    p(DiversityMonitor, "observe", "core.observe", "core", hot=True)
    # schemes: per-cycle checker taps, wrapped as they are registered.
    add_tap = MPSoC.__dict__["add_scheme_tap"]

    def add_scheme_tap(soc, tap):
        return add_tap(soc, tracer.wrap_callable(tap, "schemes.tap",
                                                 "schemes"))
    tracer._undo.append((MPSoC, "add_scheme_tap", add_tap))
    MPSoC.add_scheme_tap = add_scheme_tap
    p(fault_pkg, "run_scheme_matrix", "schemes.matrix", "schemes")
    # fault: injected trials and checkpoint forks.
    p(mc_campaign, "inject_common_cause", "fault.inject", "fault",
      keep_durations=True)
    p(ForkEngine, "fork", "fault.fork", "fault")
    # checkpoint: snapshot codec and restore.
    p(Snapshot, "decode", "checkpoint.decode", "checkpoint")
    p(Snapshot, "encode", "checkpoint.encode", "checkpoint")
    p(MPSoC, "snapshot", "checkpoint.snapshot", "checkpoint")
    p(MPSoC, "load_state_dict", "checkpoint.restore", "checkpoint")
    # montecarlo / lint: golden run, classification, static proofs.
    p(BatchedCampaign, "run", "montecarlo.run", "montecarlo")
    p(BatchedCampaign, "prepare", "montecarlo.prepare", "montecarlo")
    p(mc_campaign, "mc_golden_run", "montecarlo.golden", "montecarlo")
    p(mc_campaign, "classify_batch", "montecarlo.classify", "montecarlo")
    p(StaticMaskFilter, "from_program", "lint.prefilter", "lint")
    # trace / replay: capture once, replay many.
    p(monitor_sweep.MonitorSweep, "sweep", "replay.sweep", "replay")
    p(monitor_sweep, "run_redundant_captured", "trace.capture", "trace")
    p(StreamTrace, "byte_size", "trace.byte_size", "trace")
    p(ReplayEngine, "run_result", "replay.point", "replay",
      keep_durations=True)
