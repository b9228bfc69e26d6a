"""The benchmark's four workloads.

Each workload turns a seed into an endless stream of *units* (one call
into the program), runs a unit, counts what it produced, and checks
the produced outputs against expected values recorded in
``perfbench/expected/<workload>.json``.  Inputs whose outcome is
random (fault sites, stimuli, monitor points) are drawn by the seed
from a recorded pool, so every output a run can produce has a
recorded expected value.  ``python3 perfbench/run.py --record``
rebuilds the pools and their expected values.

Unit order is fixed by the workload, so a run of a given length
covers the same mix of kernels whatever the seed; the seed picks the
inputs inside that mix.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib
import random
from typing import Dict, Iterator, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"

#: Seed of every recorded input pool (not a run seed).
POOL_SEED = 2022


def _plain(value):
    """JSON round trip: tuples become lists, keys become strings."""
    return json.loads(json.dumps(value))


def _stride(items: List, count: int) -> List:
    """``count`` items spread evenly over ``items`` (first included)."""
    if not items or count <= 0:
        return []
    step = max(1, len(items) // count)
    return items[::step][:count]


def _spread(n: int, rng: random.Random) -> List[int]:
    """A permutation of ``range(n)`` whose every prefix is spread
    evenly over the range (bit-reversed counting), rotated by a
    seeded offset."""
    bits = max(1, (n - 1).bit_length())
    offset = rng.randrange(n)
    order = []
    for k in range(1 << bits):
        r = int(format(k, "0%db" % bits)[::-1], 2)
        if r < n:
            order.append((r + offset) % n)
    return order


def _traffic_row(result, soc, cores) -> dict:
    """Modelled memory traffic of one run over the given cores."""
    l1 = [soc.cores[i].dcache.stats for i in cores]
    l1_access = sum(s.accesses for s in l1)
    bus = soc.bus.stats
    l2_access = bus.l2_hits + bus.l2_misses
    return {
        "cycles": result.cycles,
        "ipc": result.ipc,
        "l1d_miss_rate": (sum(s.misses for s in l1) / l1_access
                          if l1_access else 0.0),
        "l2_miss_rate": bus.l2_misses / l2_access if l2_access else 0.0,
        "bus_wait_cycles": bus.grant_wait_cycles,
        "bus_transactions": bus.transactions,
    }


def _table1_subset() -> Tuple[str, ...]:
    """``TABLE1_SUBSET`` from the pytest benchmarks' conftest."""
    path = ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_table1_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.TABLE1_SUBSET)


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    why = ""
    #: What one counted unit of output is (throughput denominator).
    noun = ""
    #: The workload's throughput under the name the docs use.
    throughput_name = ""
    throughput_unit = "1/s"
    #: Kernels the traffic description covers, and their SoC config.
    kernels: Tuple[str, ...] = ()
    #: A round is this many units: one pass over the workload's kernel
    #: mix.  The timed phase runs whole rounds, so every run measures
    #: the same mix whatever the seed.
    round_units = 1
    #: Set-ups per run for ``setup_s``: the first in-process, the rest
    #: in fresh processes (compiled code is cached per process), run
    #: one at a time between timed units.
    setup_samples = 3
    #: Nominal seconds per round (2-CPU x86-64 host, CPython 3.11).
    #: ``--seconds`` buys ``round(seconds / round_seconds)`` rounds, so
    #: the work a run measures is fixed by the benchmark, not by how
    #: fast the host or the program happens to be.
    round_seconds = 1.0

    def __init__(self, expected: dict):
        self.expected = expected

    def config(self):
        return None

    def setup(self, seed: int):
        """Assembly, workload preparation and one warm-up unit."""
        raise NotImplementedError

    def units(self, seed: int) -> Iterator:
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def count(self, unit, output) -> int:
        """Counted units of output (runs, trials, points)."""
        raise NotImplementedError

    def work(self, unit, output) -> float:
        """Throughput numerator contributed by one unit."""
        return self.count(unit, output)

    def check(self, unit, output) -> List[str]:
        """Mismatches against the recorded expected values."""
        raise NotImplementedError

    def hangs_traps(self, unit, output) -> Tuple[int, int]:
        return 0, 0

    #: Why :meth:`reference_check` has nothing to compare.
    no_reference_check = ""

    def reference_check(self, done) -> Tuple[int, List[str], str]:
        """Re-run a stride sample on the reference tier.

        Returns ``(compared, mismatches, skip_reason)``.
        """
        return 0, [], self.no_reference_check

    def layer_extras(self, done) -> Dict[str, float]:
        """Per-layer metrics read from outputs rather than spans."""
        return {}

    def traffic(self) -> dict:
        """Modelled traffic of the runs the workload serves: one
        fast-tier classic-pair run per kernel under its SoC config."""
        from repro.soc.experiment import run_redundant
        from repro.workloads import program
        out = {}
        for kernel in self.kernels:
            socs = []
            result = run_redundant(program(kernel), benchmark=kernel,
                                   config=self.config(),
                                   soc_hook=socs.append, engine="fast")
            out[kernel] = _traffic_row(result, socs[0], socs[0].monitored)
        return _plain(out)

    def record(self) -> dict:
        raise NotImplementedError


# -- table1 -------------------------------------------------------------------

class Table1(Workload):
    name = "table1"
    why = ("Table I protocol on the fast tier: long uninterrupted "
           "classic-pair runs; bypasses fault, checkpoint, lint, "
           "montecarlo, schemes and replay")
    noun = "run"
    throughput_name = "sim_cycles_per_s"
    throughput_unit = "cycles/s"
    #: A set-up takes about a second, so host noise weighs on it most;
    #: more samples are cheap.
    setup_samples = 5
    #: One round: every kernel once.
    round_units = 9
    round_seconds = 9.0
    #: Truncated run length of the warm-up pass (compiles every
    #: kernel's plan template without simulating whole runs).
    WARMUP_CYCLES = 3000

    def __init__(self, expected: dict):
        super().__init__(expected)
        from repro.soc.experiment import PAPER_STAGGER_VALUES
        self.kernels = _table1_subset()
        self.staggers = tuple(PAPER_STAGGER_VALUES)

    def _sweep(self):
        from repro.runner.sweep import ParallelSweep
        return ParallelSweep(jobs=1, use_cache=False, engine="fast")

    def setup(self, seed: int):
        from repro.workloads import program
        for kernel in self.kernels:
            program(kernel)
        self.sweep = self._sweep()
        # Warm-up: every kernel once at stagger 0, truncated, so each
        # plan template is compiled before the timed phase.
        self.sweep.run_table(self.kernels, (0,),
                             max_cycles=self.WARMUP_CYCLES)

    def units(self, seed: int):
        # Round r gives kernel i the stagger (i + r) mod 4, so any four
        # consecutive rounds are the whole Table I subset; the seed
        # shuffles the kernel order inside each round.
        rng = random.Random(seed)
        kernels, staggers = self.kernels, self.staggers
        rnd = 0
        while True:
            order = list(range(len(kernels)))
            rng.shuffle(order)
            for i in order:
                yield kernels[i], staggers[(i + rnd) % len(staggers)]
            rnd += 1

    def run(self, unit):
        kernel, stagger = unit
        return self.sweep.run_table([kernel], [stagger])[kernel][0]

    def count(self, unit, cell) -> int:
        return len(cell.runs)

    def work(self, unit, cell) -> float:
        return sum(run.cycles for run in cell.runs)

    @staticmethod
    def _cell_dict(cell) -> dict:
        return _plain({
            "zero_staggering_cycles": cell.zero_staggering_cycles,
            "no_diversity_cycles": cell.no_diversity_cycles,
            "runs": [dataclasses.asdict(run) for run in cell.runs],
        })

    def check(self, unit, cell) -> List[str]:
        key = "%s/%d" % unit
        want = self.expected["cells"].get(key)
        got = self._cell_dict(cell)
        if want is None:
            return ["%s: no expected value recorded" % key]
        problems = []
        for i, (g, w) in enumerate(zip(got["runs"], want["runs"])):
            for field in sorted(set(g) | set(w)):
                if g.get(field) != w.get(field):
                    problems.append("%s run %d %s: got %r, expected %r"
                                    % (key, i, field, g.get(field),
                                       w.get(field)))
        if len(got["runs"]) != len(want["runs"]):
            problems.append("%s: %d runs, expected %d"
                            % (key, len(got["runs"]), len(want["runs"])))
        for field in ("zero_staggering_cycles", "no_diversity_cycles"):
            if got[field] != want[field]:
                problems.append("%s %s: got %r, expected %r"
                                % (key, field, got[field], want[field]))
        return problems

    def hangs_traps(self, unit, cell) -> Tuple[int, int]:
        return sum(1 for run in cell.runs if not run.finished), 0

    def reference_check(self, done):
        from repro.runner.sweep import cell_specs, execute_spec
        pairs = []
        for unit, cell, _ in done:
            for spec, run in zip(cell_specs(*unit), cell.runs):
                pairs.append((spec, run))
        problems = []
        sample = _stride(pairs, 2)
        for spec, run in sample:
            ref = execute_spec(spec, engine="reference")
            if dataclasses.asdict(ref) != dataclasses.asdict(run):
                problems.append("%s: reference %r != fast %r"
                                % (spec.describe(), ref, run))
        return len(sample), problems, ""

    def record(self) -> dict:
        sweep = self._sweep()
        cells = {}
        for kernel in self.kernels:
            row = sweep.run_table([kernel], self.staggers)[kernel]
            for cell in row:
                cells["%s/%d" % (kernel, cell.stagger_nops)] = \
                    self._cell_dict(cell)
        return {"cells": cells}


# -- mc-ccf -------------------------------------------------------------------

class McCcf(Workload):
    name = "mc-ccf"
    why = ("batched CCF Monte-Carlo on the fast tier: every live trial "
           "forks from a checkpoint, rebuilds its plan and runs short "
           "spans between convergence probes")
    noun = "sampled trial"
    throughput_name = "trials_per_s"
    kernels = ("countnegative", "matrix1")
    round_units = 2
    round_seconds = 10.0
    #: The ``repro montecarlo`` hang budget.
    MAX_CYCLES = 200_000
    #: Trials per campaign run (one unit): a whole round's draw for one
    #: kernel, so the per-campaign checkpoint decode and golden-view
    #: caches of ``ForkEngine`` are shared by all of them.
    BATCH = 64
    #: Recorded trials per kernel.
    POOL = 256
    #: Live trials per kernel in the warm-up unit.
    WARMUP_LIVE = 3

    def config(self):
        from repro.fault import shared_address_config
        return shared_address_config()

    def _campaign(self, kernel):
        from repro.montecarlo import BatchedCampaign
        from repro.workloads import program
        return BatchedCampaign(program(kernel), benchmark=kernel,
                               config=self.config(),
                               max_cycles=self.MAX_CYCLES,
                               engine="fast")

    def setup(self, seed: int):
        self.seed = seed
        self.campaigns = {}
        for kernel in self.kernels:
            campaign = self._campaign(kernel)
            artifact = campaign.prepare("ccf")
            want = self.expected["kernels"][kernel]["golden"]
            got = {"end_cycle": artifact.end_cycle,
                   "checksum": artifact.checksum,
                   "checkpoint_every": campaign.checkpoint_every}
            if got != want:
                raise RuntimeError("%s golden run %r differs from the "
                                   "recorded %r" % (kernel, got, want))
            self.campaigns[kernel] = campaign
        # Warm-up: a few live trials per kernel.
        rng = random.Random(seed)
        for kernel in self.kernels:
            status = self._column(kernel, "status")
            classes = self._column(kernel, "classification")
            live = [i for i, (s, c) in enumerate(zip(status, classes))
                    if s == 2 and c != 3]  # live, not a hang
            picks = tuple(rng.sample(live, min(self.WARMUP_LIVE,
                                               len(live))))
            unit = (kernel, picks)
            problems = self.check(unit, self.run(unit))
            if problems:
                raise RuntimeError("warm-up unit failed its check: %s"
                                   % problems[0])

    def _column(self, kernel: str, name: str) -> List[int]:
        return self.expected["kernels"][kernel]["columns"][name]

    def _strata_order(self, kernel: str, rng: random.Random):
        """Endless pool order, stratified by recorded outcome and cycle.

        Trials are grouped by (status, classification, converged early)
        and the groups are interleaved in proportion, so every stretch
        of the order holds static, analytic, live, converged, hang and
        trap trials in the pool's shares.  Each pass opens with one trial of every group,
        so even a short run holds the pool's rare, costly hang and
        trap trials instead of a random share of runs holding them.
        Inside a group the trials are visited in a spread order over
        their fault cycles (a live trial's cost grows with the cycles
        left after its fault), starting at a seeded offset.
        """
        status = self._column(kernel, "status")
        classes = self._column(kernel, "classification")
        cycles = self._column(kernel, "cycle")
        converged = self.expected["kernels"][kernel]["converged"]
        groups: Dict[tuple, List[int]] = {}
        for i, key in enumerate(zip(status, classes, converged)):
            groups.setdefault(key, []).append(i)
        for members in groups.values():
            members.sort(key=lambda i: cycles[i])
        while True:
            keyed = []
            for rank, key in enumerate(sorted(groups)):
                by_cycle = groups[key]
                n = len(by_cycle)
                members = [by_cycle[i] for i in _spread(n, rng)]
                keyed.extend((j / n, rank, idx)
                             for j, idx in enumerate(members))
            keyed.sort()
            for _, _, idx in keyed:
                yield idx

    def units(self, seed: int):
        rng = random.Random(seed)
        orders = {k: self._strata_order(k, rng) for k in self.kernels}
        while True:
            for kernel in self.kernels:
                order = orders[kernel]
                yield kernel, tuple(next(order)
                                    for _ in range(self.BATCH))

    def run(self, unit):
        from repro.montecarlo import TrialBatch
        kernel, picks = unit
        campaign = self.campaigns[kernel]
        cycles = self._column(kernel, "cycle")
        stimuli = self._column(kernel, "stimulus")
        batch = TrialBatch("ccf", len(picks), backend="auto",
                           golden_checksum=campaign.artifact.checksum)
        for i, idx in enumerate(picks):
            batch.set_ccf_trial(i, cycles[idx], stimuli[idx])
        return campaign.run(batch, jobs=1, seed=self.seed)

    def count(self, unit, result) -> int:
        return result.batch.n

    def check(self, unit, result) -> List[str]:
        from repro.montecarlo import CLASS_NAMES
        kernel, picks = unit
        columns = self.expected["kernels"][kernel]["columns"]
        batch = result.batch
        problems = []
        for name, want in columns.items():
            got = batch.column(name)
            for i, idx in enumerate(picks):
                if int(got[i]) != want[idx]:
                    problems.append("%s trial %d column %s: got %r, "
                                    "expected %r" % (kernel, idx, name,
                                                     int(got[i]),
                                                     want[idx]))
        classes = columns["classification"]
        for code, label in enumerate(CLASS_NAMES):
            want = sum(1 for idx in picks if classes[idx] == code)
            if result.counts[label] != want:
                problems.append("%s batch %s count: got %d, expected %d"
                                % (kernel, label, result.counts[label],
                                   want))
        if result.static + result.analytic + result.simulated != len(
                picks):
            problems.append("%s batch: static+analytic+simulated != "
                            "trials" % kernel)
        return problems

    def hangs_traps(self, unit, result) -> Tuple[int, int]:
        return result.counts["hang"], result.counts["trap"]

    def reference_check(self, done):
        from repro.fault import ForkEngine, inject_common_cause
        from repro.montecarlo import STATUS_SIMULATED
        problems = []
        compared = 0
        for kernel in self.kernels:
            live = []
            for unit, result, _ in done:
                if unit[0] != kernel:
                    continue
                status = result.batch.column("status")
                live.extend((result, i) for i in range(result.batch.n)
                            if status[i] == STATUS_SIMULATED)
            campaign = self.campaigns[kernel]
            base = campaign.artifact.base
            for result, i in _stride(live, 2):
                batch = result.batch
                fork = ForkEngine(campaign.program, base,
                                  config=campaign.config)
                ref = inject_common_cause(
                    campaign.program, int(batch.column("cycle")[i]),
                    int(batch.column("stimulus")[i]), base.checksum,
                    config=campaign.config, max_cycles=self.MAX_CYCLES,
                    fork=fork, engine="reference")
                fast = batch.result(i)
                compared += 1
                if dataclasses.asdict(ref) != dataclasses.asdict(fast):
                    problems.append("%s trial %d: reference %r != fast %r"
                                    % (kernel, i, ref, fast))
        return compared, problems, ""

    def layer_extras(self, done):
        from repro.montecarlo import STATUS_SIMULATED
        trials = static = analytic = simulated = 0
        forks = scratch = converged = 0
        live_cycles = hang_cycles = 0
        for unit, result, _ in done:
            kernel = unit[0]
            trials += result.batch.n
            static += result.static
            analytic += result.analytic
            simulated += result.simulated
            forks += result.forks
            scratch += result.scratch_runs
            converged += result.converged
            starts = self.campaigns[kernel].artifact.base.checkpoint_cycles
            cols = result.batch.columns
            for i in range(result.batch.n):
                if int(cols["status"][i]) != STATUS_SIMULATED:
                    continue
                fault = int(cols["cycle"][i])
                start = max((c for c in starts if c <= fault), default=0)
                cycles = int(cols["end_cycle"][i]) - start
                live_cycles += cycles
                if int(cols["classification"][i]) == 3:
                    hang_cycles += cycles
        return {
            "fault.forks": forks,
            "fault.scratch_runs": scratch,
            "fault.converged_frac": converged / forks if forks else 0.0,
            "montecarlo.static_frac": static / trials if trials else 0.0,
            "montecarlo.analytic_frac": (analytic / trials
                                         if trials else 0.0),
            "montecarlo.simulated_frac": (simulated / trials
                                          if trials else 0.0),
            "montecarlo.hang_cycle_share": (hang_cycles / live_cycles
                                            if live_cycles else 0.0),
        }

    def record(self) -> dict:
        from repro.fault import ForkEngine, inject_common_cause
        from repro.montecarlo import STATUS_SIMULATED
        out = {}
        for kernel in self.kernels:
            campaign = self._campaign(kernel)
            batch = campaign.sample_ccf(self.POOL, seed=POOL_SEED)
            campaign.run(batch, jobs=1, seed=POOL_SEED)
            # Which live trials a fork cuts short at a convergence
            # probe: they cost a fraction of the others.
            base = campaign.artifact.base
            fork = ForkEngine(campaign.program, base,
                              config=campaign.config)
            converged = []
            for i in range(batch.n):
                before = fork.converged
                if batch.column("status")[i] == STATUS_SIMULATED:
                    inject_common_cause(
                        campaign.program, int(batch.column("cycle")[i]),
                        int(batch.column("stimulus")[i]), base.checksum,
                        config=campaign.config,
                        max_cycles=self.MAX_CYCLES, fork=fork,
                        engine="fast")
                converged.append(fork.converged - before)
            out[kernel] = {
                "golden": {"end_cycle": campaign.artifact.end_cycle,
                           "checksum": campaign.artifact.checksum,
                           "checkpoint_every": campaign.checkpoint_every},
                "columns": {name: [int(v) for v in batch.column(name)]
                            for name in batch.columns},
                "converged": converged,
            }
        return {"pool_seed": POOL_SEED, "kernels": out}


# -- scheme-matrix ------------------------------------------------------------

class SchemeMatrix(Workload):
    name = "scheme-matrix"
    why = ("all five redundancy schemes on 2-, 3- and 4-core SoCs with "
           "scheme taps, run from scratch on the reference interpreter")
    noun = "scheme trial"
    throughput_name = "trials_per_s"
    no_reference_check = "scheme trials already run on the reference tier"
    #: Cheapest first, so a short run still sees every kernel.
    kernels = ("cosf", "bitonic", "binarysearch")
    #: Every scheme once.
    round_units = 5
    round_seconds = 20.0
    #: Scheme order of the unit stream.  With the kernel order above it
    #: makes the first round (cosf, tmr), (bitonic, safedm),
    #: (binarysearch, lockstep), (cosf, multipair), (bitonic, dme): no
    #: pool stimulus makes a trial of these pairs hang.  Binarysearch
    #: under multipair (two stimuli) and dme (one) has trials that hang
    #: and run to the budget of four golden lengths, so in a one-round
    #: run the seed's draw, not the code, would set the throughput.
    #: Later rounds reach them.
    SCHEME_ORDER = ("tmr", "safedm", "lockstep", "multipair", "dme")
    #: Fault instants per scheme row (spread over the golden run), and
    #: one stimulus per row: the ``repro compare-schemes`` defaults, so
    #: a unit is one golden run and four trials, as there.
    NUM_FAULTS = 4
    #: Recorded stimuli per (kernel, scheme).
    POOL = 4

    def __init__(self, expected: dict):
        super().__init__(expected)
        from repro.schemes import SCHEME_KINDS
        assert sorted(self.SCHEME_ORDER) == sorted(SCHEME_KINDS)
        self.schemes = self.SCHEME_ORDER

    def _stimuli(self) -> List[int]:
        rng = random.Random(POOL_SEED)
        return [rng.getrandbits(32) for _ in range(self.POOL)]

    def setup(self, seed: int):
        from repro.workloads import program
        self.stimuli = self.expected["stimuli"]
        for kernel in self.kernels:
            program(kernel)
        # Warm-up: the first unit of the fixed order.
        unit = next(self.units(seed))
        problems = self.check(unit, self.run(unit))
        if problems:
            raise RuntimeError("warm-up unit failed its check: %s"
                               % problems[0])

    def units(self, seed: int):
        # Unit j is kernel j mod 3 under scheme j mod 5: the first
        # fifteen units cover every (kernel, scheme) pair and any five
        # consecutive ones every scheme.  The seed draws each stimulus.
        rng = random.Random(seed)
        j = 0
        while True:
            yield (self.kernels[j % len(self.kernels)],
                   self.schemes[j % len(self.schemes)],
                   rng.choice(self.stimuli))
            j += 1

    def run(self, unit):
        from repro.fault import run_scheme_matrix
        from repro.workloads import program
        kernel, scheme, stimulus = unit
        rows = run_scheme_matrix(program(kernel), benchmark=kernel,
                                 schemes=(scheme,),
                                 num_faults=self.NUM_FAULTS,
                                 stimuli=(stimulus,))
        return rows[0]

    def count(self, unit, row) -> int:
        return len(row.trials)

    @staticmethod
    def _row_dict(row) -> dict:
        out = row.to_dict()
        out["trials"] = [dataclasses.asdict(t) for t in row.trials]
        return _plain(out)

    def check(self, unit, row) -> List[str]:
        key = "%s/%s/%d" % unit
        want = self.expected["rows"].get(key)
        if want is None:
            return ["%s: no expected value recorded" % key]
        got = self._row_dict(row)
        return ["%s %s: got %r, expected %r" % (key, field, got.get(field),
                                                want.get(field))
                for field in sorted(set(got) | set(want))
                if got.get(field) != want.get(field)]

    def hangs_traps(self, unit, row) -> Tuple[int, int]:
        return row.count("hang"), row.count("trap")

    def traffic(self) -> dict:
        """One reference-tier golden run per (kernel, scheme): the SoC
        shape, cores and checker taps every trial of that row runs on."""
        from repro.soc.experiment import run_redundant
        from repro.workloads import program
        out = {}
        for kernel in self.kernels:
            for scheme in self.schemes:
                socs = []
                result = run_redundant(program(kernel), benchmark=kernel,
                                       scheme=scheme, soc_hook=socs.append,
                                       engine="reference")
                soc = socs[0]
                cores = (soc.watched_cores if soc.watched_cores is not None
                         else soc.monitored)
                out["%s/%s" % (kernel, scheme)] = _traffic_row(
                    result, soc, cores)
        return _plain(out)

    def layer_extras(self, done):
        seconds: Dict[str, float] = {}
        trials: Dict[str, int] = {}
        for unit, row, unit_s in done:
            seconds[unit[1]] = seconds.get(unit[1], 0.0) + unit_s
            trials[unit[1]] = trials.get(unit[1], 0) + len(row.trials)
        return {"schemes.trials_per_s.%s" % kind:
                (trials[kind] / seconds[kind] if seconds.get(kind)
                 else 0.0)
                for kind in self.schemes}

    def record(self) -> dict:
        rows = {}
        stimuli = self._stimuli()
        self.stimuli = stimuli
        for kernel in self.kernels:
            for scheme in self.schemes:
                for stimulus in stimuli:
                    unit = (kernel, scheme, stimulus)
                    rows["%s/%s/%d" % unit] = self._row_dict(
                        self.run(unit))
        return {"pool_seed": POOL_SEED, "stimuli": stimuli,
                "num_faults": self.NUM_FAULTS, "rows": rows}


# -- monitor-sweep ------------------------------------------------------------

class MonitorSweepWorkload(Workload):
    name = "monitor-sweep"
    why = ("capture one run, replay many monitor points: the only "
           "workload through trace and replay, with monitor accounting "
           "offline")
    noun = "monitor point"
    throughput_name = "points_per_s"
    #: As for table1: a set-up of about a second.
    setup_samples = 5
    no_reference_check = ("replayed points are checked against the "
                          "recorded values; the sweep itself checks its "
                          "capture point against the live run")
    kernels = ("cosf", "fft", "recursion", "bsort")
    round_units = 4
    round_seconds = 3.0
    THRESHOLDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    #: Thresholds the seed draws per unit (every variant is swept).
    PER_UNIT = 4

    @staticmethod
    def variants():
        from repro.core.signatures import IsVariant, SignatureConfig
        return {
            "per_stage": SignatureConfig(),
            "inflight": SignatureConfig(is_variant=IsVariant.INFLIGHT),
            "ports2_depth3": SignatureConfig(num_ports=2, ds_depth=3),
            "depth5": SignatureConfig(ds_depth=5),
        }

    def _points(self, thresholds):
        from repro.core.monitor import ReportingMode
        from repro.replay.monitor_sweep import MonitorPoint
        return tuple(
            (variant, threshold,
             MonitorPoint(mode=ReportingMode.INTERRUPT_THRESHOLD,
                          threshold=threshold, signature=signature))
            for variant, signature in self.variants().items()
            for threshold in thresholds)

    def setup(self, seed: int):
        from repro.replay.monitor_sweep import MonitorSweep
        from repro.workloads import program
        for kernel in self.kernels:
            program(kernel)
        self.sweeper = MonitorSweep(use_cache=False, engine="fast")
        unit = next(self.units(seed))
        problems = self.check(unit, self.run(unit))
        if problems:
            raise RuntimeError("warm-up unit failed its check: %s"
                               % problems[0])

    def units(self, seed: int):
        rng = random.Random(seed)
        while True:
            for kernel in self.kernels:
                picks = tuple(sorted(rng.sample(self.THRESHOLDS,
                                                self.PER_UNIT)))
                yield kernel, picks

    def run(self, unit):
        from repro.workloads import program
        kernel, thresholds = unit
        points = self._points(thresholds)
        outcome = self.sweeper.sweep(kernel, [p for _, _, p in points],
                                     program=program(kernel))
        return points, outcome

    def count(self, unit, output) -> int:
        return len(output[1].results)

    def check(self, unit, output) -> List[str]:
        kernel = unit[0]
        points, outcome = output
        want_all = self.expected["kernels"][kernel]
        problems = []
        for (variant, threshold, _), result in zip(points,
                                                   outcome.results):
            key = "%s/%d" % (variant, threshold)
            got = _plain(dataclasses.asdict(result))
            want = want_all["points"].get(key)
            if got != want:
                problems.append("%s %s: got %r, expected %r"
                                % (kernel, key, got, want))
        if outcome.trace_bytes != want_all["trace_bytes"]:
            problems.append("%s trace bytes: got %d, expected %d"
                            % (kernel, outcome.trace_bytes,
                               want_all["trace_bytes"]))
        return problems

    def layer_extras(self, done):
        size = cycles = 0
        for unit, (_, outcome), _ in done:
            size += outcome.trace_bytes
            cycles += outcome.cycles
        return {"trace.bytes_per_cycle": size / cycles if cycles else 0.0}

    def record(self) -> dict:
        from repro.replay.monitor_sweep import MonitorSweep
        self.sweeper = MonitorSweep(use_cache=False, engine="fast")
        out = {}
        for kernel in self.kernels:
            points, outcome = self.run((kernel, self.THRESHOLDS))
            out[kernel] = {
                "trace_bytes": outcome.trace_bytes,
                "cycles": outcome.cycles,
                "points": {"%s/%d" % (variant, threshold):
                           _plain(dataclasses.asdict(result))
                           for (variant, threshold, _), result
                           in zip(points, outcome.results)},
            }
        return {"thresholds": list(self.THRESHOLDS), "kernels": out}


WORKLOADS = {cls.name: cls for cls in
             (Table1, McCcf, SchemeMatrix, MonitorSweepWorkload)}


def expected_path(name: str) -> pathlib.Path:
    return EXPECTED_DIR / ("%s.json" % name)


def load(name: str) -> Workload:
    """The workload ``name`` with its recorded expected values."""
    path = expected_path(name)
    expected = json.loads(path.read_text())
    return WORKLOADS[name](expected)
