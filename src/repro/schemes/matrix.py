"""Scheme-matrix CCF trials: coverage × latency × hardware cost.

The fault campaign in :mod:`repro.fault` asks one question about one
scheme (SafeDM-monitored redundancy).  This module asks the *matrix*
question: for each redundancy scheme, what fraction of unmasked
common-cause corruptions does it catch, how fast, and at what hardware
cost?

Each trial runs one kernel under one scheme, injects a
:class:`repro.fault.models.CommonCauseFault` into **every replica** on
the configured cycle (the same physical disturbance hits all cores;
what it corrupts is modulated per-core by :func:`state_digest`), then
runs to completion and classifies:

* ``masked`` — no detection and every replica output equals golden;
* ``corrected`` — the scheme repaired the error in-flight and its
  voted output is golden (TMR only);
* ``detected`` — the scheme raised its error signal;
* ``trap`` — a replica failed loudly with an architectural trap;
* ``hang`` — the run exceeded its cycle budget;
* ``silent`` — outputs are wrong and nothing fired.

``coverage = (detected + corrected + trap) / (trials - masked)`` —
the scheme's probability of containing a *consequential* CCF.

The activity term of the fault model (the SafeDM signature-window
digest) is defined per monitored pair only, so matrix trials set it to
zero for every replica: corruption identity is then exactly
state-digest identity, the CCF mechanism all five schemes face on
equal terms.

A row simulates on one SoC.  The golden run and one fault-free prefix
pass run on the fast tier (:mod:`repro.engine`); the prefix pass stops
at each fault instant and snapshots the SoC and the scheme checker.
Every trial restores its instant's snapshot in place, steps the fault
cycle on the reference interpreter, applies the corruption on its
closing clock edge (the pair campaign's after-step semantics), and
runs on the fast tier to the hang budget.  A trap inside a fast span
replays that trial reference-tier from the same snapshot, since the
reference tier is the oracle for trap timing; SoC shapes the fast
tier does not model run reference-tier throughout.  Every trial is
therefore field-for-field the trial a fresh SoC stepped by the
reference interpreter from cycle 0 produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..cpu.core import SimulationError
from ..fault.campaign import spread_cycles
from ..fault.injector import _tier_runner
from ..fault.models import CommonCauseFault
from ..mem.memory import MemoryError_
from .base import RedundancyScheme, build_scheme
from .spec import SCHEME_KINDS

#: Default stimuli: two distinct disturbances per injection cycle.
DEFAULT_STIMULI = (0x5EED, 0xC0FFEE)


@dataclass
class SchemeTrial:
    """One injected run under one scheme."""

    fault_cycle: int
    stimulus: int
    classification: str
    #: detection_cycle - fault_cycle for detected/corrected trials.
    latency: int
    outputs: tuple
    effects: tuple

    @property
    def effects_identical(self) -> bool:
        return len(set(self.effects)) == 1


@dataclass
class SchemeMatrixRow:
    """All trials of one scheme on one kernel, plus derived metrics."""

    scheme: str
    benchmark: str
    golden_cycles: int
    golden_output: int
    hardware: dict
    trials: List[SchemeTrial] = field(default_factory=list)

    def count(self, classification: str) -> int:
        return sum(1 for t in self.trials
                   if t.classification == classification)

    @property
    def unmasked(self) -> int:
        return len(self.trials) - self.count("masked")

    @property
    def covered(self) -> int:
        return (self.count("detected") + self.count("corrected")
                + self.count("trap"))

    @property
    def escaped(self) -> int:
        """Unmasked trials the scheme did not contain: silent ones and
        hangs no checker flagged."""
        return self.unmasked - self.covered

    @property
    def coverage(self) -> float:
        unmasked = self.unmasked
        return self.covered / unmasked if unmasked else 1.0

    @property
    def silent(self) -> int:
        return self.count("silent")

    @property
    def mean_latency(self) -> float:
        latencies = [t.latency for t in self.trials
                     if t.classification in ("detected", "corrected")
                     and t.latency >= 0]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "golden_cycles": self.golden_cycles,
            "trials": len(self.trials),
            "masked": self.count("masked"),
            "corrected": self.count("corrected"),
            "detected": self.count("detected"),
            "trap": self.count("trap"),
            "hang": self.count("hang"),
            "silent": self.silent,
            "coverage": self.coverage,
            "mean_detection_latency": self.mean_latency,
            "hardware": self.hardware,
        }


def _advance(soc, runner, cores, stop: int) -> bool:
    """Run to absolute cycle ``stop`` or until every watched replica
    finishes: one fast-tier span when ``runner`` is given, the
    reference interpreter otherwise.  Returns True when they all
    have."""
    if runner is not None:
        runner.run_span(stop)
    else:
        step = soc.step
        while soc.cycle < stop and not all(core.finished
                                           for core in cores):
            step()
    return all(core.finished for core in cores)


def _finish(soc, scheme: RedundancyScheme):
    for monitor in soc.monitors:
        monitor.finish()
    scheme.finish(soc)


def _capture(soc, scheme: RedundancyScheme):
    return soc.state_dict(), scheme.state_dict()


def _restore(soc, scheme: RedundancyScheme, runner, snapshot):
    """Rewind the row's SoC and scheme checker to ``snapshot`` in
    place.  The runner's engines are released first, while the groups
    in flight that carry their handlers are still in the pipeline."""
    if runner is not None:
        runner.release()
    soc_state, scheme_state = snapshot
    soc.load_state_dict(soc_state)
    scheme.load_state_dict(scheme_state)


def _respecialize(runner):
    """Rebuild the fast tier over a SoC whose state was replaced."""
    if runner is not None:
        runner._rebuild()


def _golden(scheme: RedundancyScheme, program, benchmark, config,
            max_cycles: int):
    """Fault-free fast-tier run on the row's SoC, which is then rewound
    to cycle 0 for the prefix pass.

    Returns ``(soc, runner, outputs, cycles)``.
    """
    soc = scheme.build(config)
    scheme.start(soc, program, benchmark=benchmark)
    start = _capture(soc, scheme)
    runner = _tier_runner(soc, "fast")
    cores = [soc.cores[idx] for idx in scheme.watched()]
    finished = _advance(soc, runner, cores, max_cycles)
    _finish(soc, scheme)
    if not finished:
        raise RuntimeError("golden %s run did not finish in %d cycles"
                           % (scheme.kind, max_cycles))
    if scheme.error_detected(soc):
        raise RuntimeError("golden %s run raised its error signal"
                           % scheme.kind)
    outputs, cycles = scheme.outputs(soc), soc.cycle
    _restore(soc, scheme, runner, start)
    _respecialize(runner)
    return soc, runner, outputs, cycles


def _classify(scheme: RedundancyScheme, soc, finished: bool,
              trapped: bool, golden_outputs, fault_cycle: int
              ) -> SchemeTrial:
    detection = scheme.detection_cycle(soc)
    latency = detection - fault_cycle if detection >= 0 else -1
    outputs = scheme.outputs(soc) if not trapped else ()
    if trapped:
        classification = "trap"
        latency = soc.cycle - fault_cycle
    elif finished:
        if (scheme.corrected(soc)
                and scheme.voted_output(soc) == golden_outputs[0]):
            classification = "corrected"
        elif scheme.error_detected(soc):
            classification = "detected"
        elif tuple(outputs) == tuple(golden_outputs):
            classification = "masked"
        else:
            classification = "silent"
    elif scheme.checker_detected(soc):
        # The replica hung, but the streaming checker had already
        # flagged the divergence — the error signal fired.
        classification = "detected"
    else:
        classification = "hang"
    return SchemeTrial(fault_cycle=fault_cycle, stimulus=0,
                       classification=classification, latency=latency,
                       outputs=tuple(outputs), effects=())


def run_scheme_trials(scheme, program, benchmark: str = "program",
                      config=None, num_faults: int = 8,
                      stimuli: Sequence[int] = DEFAULT_STIMULI,
                      max_cycles: int = 2_000_000) -> SchemeMatrixRow:
    """CCF trials of one scheme on one kernel.

    ``scheme`` is anything :func:`repro.schemes.base.build_scheme`
    accepts (a kind string, a :class:`SchemeSpec`, or an instance).
    See the module docstring for how the trials are simulated.
    """
    sch = build_scheme(scheme)
    soc, runner, golden_outputs, golden_cycles = _golden(
        sch, program, benchmark, config, max_cycles)
    row = SchemeMatrixRow(scheme=sch.kind, benchmark=benchmark,
                          golden_cycles=golden_cycles,
                          golden_output=golden_outputs[0],
                          hardware=sch.hardware_cost())
    cycles = spread_cycles(golden_cycles, num_faults)
    # A corrupted replica can loop essentially forever; a few golden
    # lengths is ample for every legitimate post-fault path, and hangs
    # are classified, not simulated to the bitter end.
    budget = min(max_cycles, 4 * golden_cycles + 20_000)
    cores = [soc.cores[idx] for idx in sch.watched()]
    # Instant-major: only the current instant's snapshot is alive.
    grid = [[None] * len(cycles) for _ in stimuli]
    try:
        for j, fault_cycle in enumerate(cycles):
            _advance(soc, runner, cores, min(fault_cycle, budget))
            snapshot = _capture(soc, sch)
            for i, stimulus in enumerate(stimuli):
                fault = CommonCauseFault(cycle=fault_cycle,
                                         stimulus=stimulus)
                grid[i][j] = _one_trial(soc, sch, runner, cores,
                                        snapshot, fault, golden_outputs,
                                        budget)
            if j + 1 < len(cycles):
                # Resume the prefix pass where this instant left it.
                _restore(soc, sch, runner, snapshot)
                _respecialize(runner)
    finally:
        if runner is not None:
            runner.release()
    row.trials = [trial for trials in grid for trial in trials]
    return row


def _one_trial(soc, sch: RedundancyScheme, runner, cores, snapshot,
               fault: CommonCauseFault, golden_outputs,
               max_cycles: int) -> SchemeTrial:
    """One trial from its instant's ``snapshot`` (``soc.cycle`` is the
    fault cycle once restored)."""
    _restore(soc, sch, runner, snapshot)
    trapped = False
    effects = []
    finished = all(core.finished for core in cores)
    try:
        if not finished and soc.cycle == fault.cycle \
                and soc.cycle < max_cycles:
            soc.step()
            for core in cores:
                effect = fault.effect_on(core, activity=0)
                effect.apply(core)
                effects.append((effect.register, effect.bit))
            _respecialize(runner)
            finished = _advance(soc, runner, cores, max_cycles)
    except (MemoryError_, SimulationError):
        if runner is not None:
            # The fast tier's block granularity can surface a trap at
            # a tier-dependent cycle; the reference tier is the oracle
            # for trap timing, so replay this trial on it.
            runner.release()
            return _one_trial(soc, sch, None, cores, snapshot, fault,
                              golden_outputs, max_cycles)
        trapped = True
    _finish(soc, sch)
    trial = _classify(sch, soc, finished, trapped, golden_outputs,
                      fault.cycle)
    trial.stimulus = fault.stimulus
    trial.effects = tuple(effects)
    return trial


def scheme_matrix(program, benchmark: str = "program",
                  schemes: Sequence = SCHEME_KINDS, config=None,
                  num_faults: int = 8,
                  stimuli: Sequence[int] = DEFAULT_STIMULI,
                  max_cycles: int = 2_000_000,
                  metrics=None) -> List[SchemeMatrixRow]:
    """One :class:`SchemeMatrixRow` per scheme, same kernel and fault
    grid throughout (fault *cycles* follow each scheme's own golden
    timeline; stimuli are shared)."""
    rows = []
    for scheme in schemes:
        row = run_scheme_trials(scheme, program, benchmark=benchmark,
                                config=config, num_faults=num_faults,
                                stimuli=stimuli, max_cycles=max_cycles)
        rows.append(row)
        if metrics is not None:
            _row_to_metrics(row, metrics)
    return rows


def _row_to_metrics(row: SchemeMatrixRow, registry):
    if not getattr(registry, "enabled", True):
        return
    labels = (("scheme", row.scheme),)
    for classification in ("masked", "corrected", "detected", "trap",
                           "hang", "silent"):
        registry.counter(
            "repro_scheme_trials_total",
            labels + (("classification", classification),)
        ).inc(row.count(classification))
    registry.gauge("repro_scheme_coverage", labels).set(row.coverage)


def matrix_table(rows: Sequence[SchemeMatrixRow]) -> str:
    """The ``repro compare-schemes`` table."""
    header = ("scheme", "cores", "trials", "masked", "corr", "det",
              "trap", "silent", "coverage", "latency", "luts",
              "overhead")
    lines = ["  ".join("%-9s" % h for h in header)]
    for row in rows:
        hardware = row.hardware
        lines.append("  ".join("%-9s" % v for v in (
            row.scheme,
            hardware["cores"],
            len(row.trials),
            row.count("masked"),
            row.count("corrected"),
            row.count("detected"),
            row.count("trap"),
            row.silent,
            "%.3f" % row.coverage,
            "%.1f" % row.mean_latency,
            hardware["total_luts"],
            "%+.1f%%" % hardware["overhead_vs_dual_percent"],
        )))
    return "\n".join(lines)
