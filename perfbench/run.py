#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and by layer.

One workload per run::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 \\
        --trace 0

prints a report and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (untraced); with
``--trace 1`` they are the per-layer ones from a separate traced pass
over the same units.  Every workload, both passes, in one go (this
also rewrites ``BENCHMARK.json`` from the definitions below)::

    python3 perfbench/run.py --all --seed 1 --seconds 10

``--record`` re-records the expected outputs under
``perfbench/expected/``.  See ``perfbench/README.md`` for the metric,
layer and workload map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: %s holds no src/repro; run it from a full "
             "checkout" % ROOT)
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import suite  # noqa: E402

#: Default ``--seconds`` (see ``Workload.round_seconds``).
RUN_SECONDS = 10
#: The layer spans inside the unit spans must cover the traced wall
#: time to within this share.
RECONCILE_TOLERANCE = 0.02

#: (name, unit, better, bound) — the end-to-end metrics.
END_TO_END = (
    ("throughput", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: The metric names the report prints, throughput under its per-workload
#: name.
NAMED_END_TO_END = (
    ("sim_cycles_per_s", "cycles/s"),
    ("trials_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
)

#: (name, unit, better) — the per-layer metrics of the traced pass.
PER_LAYER = (
    ("isa.assemble_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("soc.build_s", "s", "lower"),
    ("soc.builds", "count", "lower"),
    ("engine.span_s", "s", "lower"),
    ("engine.spans", "count", "lower"),
    ("engine.cycles", "cycles", "higher"),
    ("engine.cycles_per_s", "cycles/s", "higher"),
    ("engine.compile_s", "s", "lower"),
    ("engine.blocks_built", "count", "lower"),
    ("engine.tier_hit_rate", "ratio", "higher"),
    ("engine.deopts", "count", "lower"),
    ("engine.delegations", "count", "lower"),
    ("engine.fallbacks", "count", "lower"),
    ("cpu.step_s", "s", "lower"),
    ("cpu.steps", "count", "lower"),
    ("mem.bus_step_s", "s", "lower"),
    ("core.observe_s", "s", "lower"),
    ("core.observe_calls", "count", "lower"),
    ("schemes.tap_s", "s", "lower"),
    ("schemes.trials_per_s.safedm", "1/s", "higher"),
    ("schemes.trials_per_s.lockstep", "1/s", "higher"),
    ("schemes.trials_per_s.tmr", "1/s", "higher"),
    ("schemes.trials_per_s.multipair", "1/s", "higher"),
    ("schemes.trials_per_s.dme", "1/s", "higher"),
    ("fault.inject_p50_s", "s", "lower"),
    ("fault.inject_tail_s", "s", "lower"),
    ("fault.fork_s", "s", "lower"),
    ("fault.forks", "count", "lower"),
    ("fault.scratch_runs", "count", "lower"),
    ("fault.converged_frac", "ratio", "higher"),
    ("checkpoint.decode_s", "s", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("checkpoint.snapshot_s", "s", "lower"),
    ("montecarlo.golden_s", "s", "lower"),
    ("lint.prefilter_s", "s", "lower"),
    ("montecarlo.classify_s", "s", "lower"),
    ("montecarlo.static_frac", "ratio", "higher"),
    ("montecarlo.analytic_frac", "ratio", "higher"),
    ("montecarlo.simulated_frac", "ratio", "lower"),
    ("montecarlo.hang_cycle_share", "ratio", "lower"),
    ("trace.capture_s", "s", "lower"),
    ("trace.bytes_per_cycle", "B/cycle", "lower"),
    ("replay.point_p50_s", "s", "lower"),
    ("replay.point_tail_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.reconcile_frac", "ratio", "higher"),
)


# -- environment --------------------------------------------------------------

def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            packed = (git / "packed-refs").read_text().splitlines()
            for line in packed:
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.montecarlo import resolve_backend
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "trialbatch_backend": resolve_backend("auto"),
        "platform": platform.platform(),
    }


# -- small statistics ---------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n: int):
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n)) / 100


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- phases -------------------------------------------------------------------

def timed_loop(workload, units, seconds, pauses=()):
    """Run the rounds ``seconds`` buys (at least one).  Returns
    ``(done, wall)`` where ``done`` holds ``(unit, output, seconds,
    error)``.

    Each of ``pauses`` (untimed callables) runs at evenly spaced points
    of the loop, so the timed units sample the host's speed in several
    windows rather than one."""
    total = max(1, round(seconds / workload.round_seconds)) \
        * workload.round_units
    breaks = {}
    for k, pause in enumerate(pauses, 1):
        breaks.setdefault(k * total // (len(pauses) + 1), []).append(pause)
    done = []
    perf = time.perf_counter
    paused = 0.0
    start = perf()
    for index, unit in zip(range(total), units):
        for pause in breaks.pop(index, ()):
            t0 = perf()
            pause()
            paused += perf() - t0
        t0 = perf()
        error = None
        output = None
        try:
            output = workload.run(unit)
        except Exception as exc:  # counted as a failed unit
            error = "%s: %s" % (type(exc).__name__, exc)
        done.append((unit, output, perf() - t0, error))
    return done, perf() - start - paused


def check_units(workload, done):
    """Failed unit count and the first mismatches."""
    failed = 0
    problems = []
    for unit, output, _, error in done:
        issues = [error] if error else workload.check(unit, output)
        if issues:
            failed += 1
            problems.extend(issues[:3])
    return failed, problems


def setup_child(name: str, seed: int, into: list):
    """One set-up in a fresh interpreter (cold per-process caches);
    appends its seconds to ``into``.  It runs alone: the caller waits
    for it before timing anything else."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed:\n%s" % proc.stderr)
    into.append(json.loads(proc.stdout.strip().splitlines()[-1])
                ["setup_s"])


def timed_setup(workload, seed: int) -> float:
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


# -- traced pass --------------------------------------------------------------

def _engine_totals(socs) -> dict:
    totals = {"issue_fast": 0, "issue_ref": 0, "deopts": 0,
              "delegations": 0, "fallbacks": 0, "fast_cycles": 0}
    for soc in socs:
        stats = soc.engine_stats
        if stats is None:
            continue
        totals["issue_fast"] += stats.issue_fast
        totals["issue_ref"] += stats.issue_ref
        totals["deopts"] += stats.deopts
        totals["delegations"] += stats.delegations
        totals["fast_cycles"] += stats.fast_cycles
        if stats.engine == "fast" and stats.fallback_reason is not None:
            totals["fallbacks"] += 1
    return totals


def traced_pass(workload, units):
    """The same units again, every layer entry point wrapped.

    The returned wall time leaves out the benchmark's housekeeping
    between units (reading engine statistics), which the untraced
    timing does not have."""
    tracer = layers.Tracer()
    socs = tracer.socs
    engine = {}
    layers.install(tracer)
    perf = time.perf_counter
    try:
        done = []
        housekeeping = 0.0
        start = perf()
        for index, unit in enumerate(units):
            t0 = perf()
            tracer.trace_id = index + 1
            t1 = perf()
            error = None
            output = None
            try:
                output = tracer.span("bench.unit", "bench",
                                     workload.run, unit)
            except Exception as exc:
                error = "%s: %s" % (type(exc).__name__, exc)
            t2 = perf()
            done.append((unit, output, t2 - t1, error))
            for key, value in _engine_totals(socs).items():
                engine[key] = engine.get(key, 0) + value
            socs.clear()
            housekeeping += (t1 - t0) + (perf() - t2)
        wall = perf() - start - housekeeping
    finally:
        tracer.restore()
    return tracer, engine, done, wall


def _self(tracer, *names) -> float:
    return sum(tracer.stats[n].self_s for n in names if n in tracer.stats)


def _calls(tracer, *names) -> int:
    return sum(tracer.stats[n].calls for n in names if n in tracer.stats)


def _dist(tracer, name):
    stat = tracer.stats.get(name)
    values = stat.durations if stat is not None else []
    if not values:
        return 0.0, 0.0, None, 0
    q = tail_quantile(len(values))
    tail = percentile(values, q) if q is not None else max(values)
    return percentile(values, 0.5), tail, q, len(values)


def layer_metrics(setup_tracer, tracer, engine, extras, untraced_s,
                  traced_s, traced_wall):
    """Per-layer metrics plus notes on how the tails were taken."""
    span_total = tracer.stats["engine.span"].total \
        if "engine.span" in tracer.stats else 0.0
    issued = engine.get("issue_fast", 0) + engine.get("issue_ref", 0)
    inject = _dist(tracer, "fault.inject")
    point = _dist(tracer, "replay.point")
    # Time the layer wrappers saw: the unit spans minus their own self
    # time (the benchmark's glue around the call into the program).
    covered = tracer.top_level_seconds() - _self(tracer, "bench.unit")
    overhead = traced_s - untraced_s
    metrics = {
        "isa.assemble_s": _self(setup_tracer, "isa.assemble"),
        "runner.self_s": _self(tracer, "runner.run_table"),
        "soc.build_s": _self(tracer, "soc.build", "soc.start",
                             "soc.scheme_start"),
        "soc.builds": _calls(tracer, "soc.build"),
        "engine.span_s": _self(tracer, "engine.span", "engine.run_soc"),
        "engine.spans": _calls(tracer, "engine.span"),
        "engine.cycles": engine.get("fast_cycles", 0),
        "engine.cycles_per_s": (engine.get("fast_cycles", 0) / span_total
                                if span_total else 0.0),
        "engine.compile_s": _self(tracer, "engine.compile_fetch",
                                  "engine.compile_issue"),
        "engine.blocks_built": _calls(tracer, "engine.compile_fetch",
                                      "engine.compile_issue"),
        "engine.tier_hit_rate": (engine.get("issue_fast", 0) / issued
                                 if issued else 0.0),
        "engine.deopts": engine.get("deopts", 0),
        "engine.delegations": engine.get("delegations", 0),
        "engine.fallbacks": engine.get("fallbacks", 0),
        "cpu.step_s": _self(tracer, "cpu.step"),
        "cpu.steps": _calls(tracer, "cpu.step"),
        "mem.bus_step_s": _self(tracer, "mem.bus_step"),
        "core.observe_s": _self(tracer, "core.observe"),
        "core.observe_calls": _calls(tracer, "core.observe"),
        "schemes.tap_s": _self(tracer, "schemes.tap"),
        "fault.inject_p50_s": inject[0],
        "fault.inject_tail_s": inject[1],
        "fault.fork_s": _self(tracer, "fault.fork"),
        "checkpoint.decode_s": _self(tracer, "checkpoint.decode"),
        "checkpoint.restore_s": _self(tracer, "checkpoint.restore"),
        "checkpoint.snapshot_s": sum(
            _self(t, "checkpoint.snapshot", "checkpoint.encode")
            for t in (setup_tracer, tracer)),
        "montecarlo.golden_s": _self(setup_tracer, "montecarlo.golden"),
        "lint.prefilter_s": _self(setup_tracer, "lint.prefilter"),
        "montecarlo.classify_s": _self(tracer, "montecarlo.classify"),
        "trace.capture_s": _self(tracer, "trace.capture"),
        "replay.point_p50_s": point[0],
        "replay.point_tail_s": point[1],
        "bench.trace_overhead_s": overhead,
        "bench.trace_overhead_frac": (overhead / untraced_s
                                      if untraced_s else 0.0),
        "bench.reconcile_frac": (covered / traced_wall
                                 if traced_wall else 0.0),
    }
    for name, _, _ in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extras)
    notes = {
        "fault.inject": {"samples": inject[3], "tail_quantile": inject[2]},
        "replay.point": {"samples": point[3], "tail_quantile": point[2]},
    }
    return metrics, notes


def write_spans(path: pathlib.Path, tracer):
    rows = [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "trace": s[5]} for s in tracer.spans]
    path.write_text(json.dumps({"spans": rows}) + "\n")


# -- one workload run ---------------------------------------------------------

def print_end_to_end(workload, end_to_end: dict, failed_frac: float):
    """The end-to-end metrics under the names the docs use."""
    print("end-to-end (untraced, jobs=1):")
    throughput = end_to_end["throughput"]
    for metric, unit in NAMED_END_TO_END:
        if metric in end_to_end:
            value = end_to_end[metric]
        elif metric == "failed_frac":
            value = failed_frac
        elif metric == workload.throughput_name:
            value = throughput
        else:
            print("  %-18s skipped: not defined on %s (its throughput "
                  "is %s)" % (metric, workload.name,
                              workload.throughput_name))
            continue
        print("  %-18s %.6g %s" % (metric, value, unit))
    print("  %-18s %.6g %s (= %s; the contract name)"
          % ("throughput", throughput, workload.throughput_unit,
             workload.throughput_name))


def traced_section(workload, done, unit_seconds, setup_tracer, report):
    """The traced pass and the checks that go with it.

    Prints the per-layer report, adds it to ``report`` and returns
    ``(per_layer, ok)`` where ``ok`` is False when the traced units,
    the reference-tier sample or the traffic description disagree with
    what is expected, or when the layer spans do not account for the
    traced wall time."""
    units = [d[0] for d in done]
    kept = [(u, o, s) for u, o, s, e in done if e is None]
    tracer, engine, tdone, traced_wall = traced_pass(workload, units)
    tfailed, _ = check_units(workload, tdone)
    per_layer, notes = layer_metrics(
        setup_tracer, tracer, engine, workload.layer_extras(kept),
        unit_seconds, sum(d[2] for d in tdone), traced_wall)
    reconcile = per_layer["bench.reconcile_frac"]
    reconciled = abs(1.0 - reconcile) <= RECONCILE_TOLERANCE
    compared, ref_problems, skip = workload.reference_check(kept)
    description = workload.traffic()
    traffic_ok = description == workload.expected.get("traffic")

    print("traced pass: same %d units, %.3f s traced vs %.3f s "
          "untraced (overhead %.3f s, %.1f%%), %d failed"
          % (len(units), traced_wall, unit_seconds,
             per_layer["bench.trace_overhead_s"],
             100 * per_layer["bench.trace_overhead_frac"], tfailed))
    print("reconcile: layer span time / traced wall = %.4f "
          "(tolerance %.0f%%): %s" % (reconcile, 100 * RECONCILE_TOLERANCE,
                                      "ok" if reconciled else "FAILED"))
    if skip:
        print("reference-tier stride check: skipped (%s)" % skip)
    else:
        print("reference-tier stride check: %d compared field for "
              "field, %d mismatched" % (compared, len(ref_problems)))
    for problem in ref_problems[:5]:
        print("  MISMATCH %s" % problem)
    by_layer = tracer.self_by_layer()
    print("self time by layer (traced pass):")
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("  %-12s %9.4f s  %5.1f%%"
              % (layer, secs, 100 * secs / traced_wall
                 if traced_wall else 0.0))
    print("per-layer metrics:")
    for metric, unit, _ in PER_LAYER:
        print("  %-32s %.6g %s" % (metric, per_layer[metric], unit))
    for name, note in notes.items():
        if note["samples"]:
            print("  (%s: %d samples, tail = p%s)"
                  % (name, note["samples"],
                     "max" if note["tail_quantile"] is None
                     else "%g" % (100 * note["tail_quantile"])))
    print("traffic (simulated time, modelled; the model is not validated "
          "against hardware, so no error figure is given): %s"
          % ("repeats the recorded values exactly" if traffic_ok
             else "DIFFERS from the recorded values"))
    for kernel, row in description.items():
        print("  %-14s %s" % (kernel, json.dumps(row, sort_keys=True)))
    print("  hangs=%d traps=%d over the timed units"
          % (report["hangs"], report["traps"]))

    report.update({
        "per_layer": per_layer, "tail_notes": notes,
        "traced_wall_s": traced_wall, "traced_failed": tfailed,
        "reconciled": reconciled, "self_by_layer": by_layer,
        "reference_check": {"compared": compared,
                            "mismatches": ref_problems[:20],
                            "skipped": skip or None},
        "traffic": {"simulated": description, "repeats": traffic_ok},
    })
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / ("%s-seed%d-spans.json"
                           % (workload.name, report["seed"])), tracer)
    return per_layer, (tfailed == 0 and not ref_problems and traffic_ok
                       and reconciled)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    workload = suite.load(name)
    env = environment()
    print("perfbench %s seed=%d seconds=%s trace=%d" % (name, seed,
                                                        seconds, trace))
    print("environment: %s" % json.dumps(env, sort_keys=True))

    setup_tracer = layers.Tracer()
    pauses = ()
    if trace:
        layers.install(setup_tracer)
        try:
            setup_seconds = [timed_setup(workload, seed)]
        finally:
            setup_tracer.restore()
            setup_tracer.socs.clear()
    else:
        setup_seconds = [timed_setup(workload, seed)]
        # The other set-ups run between timed units, one at a time.
        pauses = [lambda: setup_child(name, seed, setup_seconds)
                  for _ in range(workload.setup_samples - 1)]

    done, wall = timed_loop(workload, workload.units(seed), seconds,
                            pauses)
    ok = [(u, o) for u, o, _, e in done if e is None]
    unit_seconds = sum(d[2] for d in done)
    counted = sum(workload.count(u, o) for u, o in ok)
    failed, problems = check_units(workload, done)
    attempted = len(done)
    hangs_traps = [workload.hangs_traps(u, o) for u, o in ok]
    end_to_end = {
        "throughput": (sum(workload.work(u, o) for u, o in ok)
                       / unit_seconds if unit_seconds else 0.0),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    failed_frac = failed / attempted if attempted else 1.0
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env,
        "units": attempted, "counted": counted, "noun": workload.noun,
        "unit_seconds": unit_seconds, "loop_wall_s": wall,
        "setup_samples_s": setup_seconds,
        "end_to_end": dict(end_to_end, failed_frac=failed_frac),
        "failed": failed, "mismatches": problems[:20],
        "hangs": sum(h for h, _ in hangs_traps),
        "traps": sum(t for _, t in hangs_traps),
        "unit_log": [[repr(u), s, e] for u, _, s, e in done],
    }
    print("timed phase: %d units (%d %ss) in %.3f s, %d failed"
          % (attempted, counted, workload.noun, unit_seconds, failed))
    for problem in problems[:10]:
        print("  MISMATCH %s" % problem)
    correct = failed == 0

    if trace:
        per_layer, traced_ok = traced_section(workload, done, unit_seconds,
                                              setup_tracer, report)
        correct = correct and traced_ok
        metrics = {m: {"value": per_layer[m], "unit": unit}
                   for m, unit, _ in PER_LAYER}
    else:
        print_end_to_end(workload, end_to_end, failed_frac)
        metrics = {m: {"value": end_to_end[m], "unit": unit}
                   for m, unit, _, _ in END_TO_END}

    OUT_DIR.mkdir(exist_ok=True)
    report["correct"] = correct
    (OUT_DIR / ("%s-seed%d-trace%d.json" % (name, seed, trace))).write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# -- other modes --------------------------------------------------------------

def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in suite.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def _dump(data) -> str:
    """Indented JSON with lists of scalars kept on one line."""
    text = json.dumps(data, indent=1, sort_keys=True)
    return re.sub(r"\[\s*([^\[\]{}]*?)\s*\]",
                  lambda m: "[%s]" % ", ".join(
                      part.strip() for part in m.group(1).split(",")),
                  text) + "\n"


def record(names) -> int:
    suite.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        start = time.perf_counter()
        workload = suite.WORKLOADS[name]({})
        data = workload.record()
        data["traffic"] = workload.traffic()
        suite.expected_path(name).write_text(_dump(data))
        print("recorded %s in %.1f s" % (name, time.perf_counter() - start))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    status = 0
    for name in suite.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append((name, trace, result))
            if not result["correct"]:
                status = 1
    print("\nsummary (seed %d, %s s per run):" % (seed, seconds))
    for name, trace, result in rows:
        if trace == 0:
            print("  %-14s %s  failed %d/%d" % (
                name, "  ".join("%s=%.6g %s" % (k, v["value"], v["unit"])
                                for k, v in result["metrics"].items()),
                result["failed"], result["attempted"]))
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(manifest(), indent=2) + "\n")
    print("wrote BENCHMARK.json")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--record", action="store_true",
                        help="re-record expected outputs")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        return record([args.workload] if args.workload
                      else list(suite.WORKLOADS))
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload, --all or --record is required")
    if args.setup_only:
        seconds = timed_setup(suite.load(args.workload), args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
