#!/usr/bin/env python3
"""Redundancy-scheme matrix benchmark: coverage x latency x hardware.

Runs the same common-cause fault campaign against every redundancy
scheme (SafeDM pair, lockstep, TMR, multi-pair, DME) and reports, per
scheme and kernel: CCF coverage, mean detection latency, run cycles,
and the modeled hardware cost.  The report goes to
``BENCH_schemes.json`` at the repo root.

The bench doubles as the scheme-framework acceptance harness:

* the **lockstep gate** (always on) fails the run if lockstep ever
  misses an unmasked CCF — identical replicas compared commit-by-
  commit have no masking window, so a silent trial or an unflagged
  hang there means the classification plumbing is broken, not the
  scheme;
* ``--safedm-sweep`` re-runs every kernel under ``scheme="safedm"``
  and asserts the result field-for-field identical to the legacy
  (scheme-less) ``run_redundant``, on both execution tiers;
* ``--dme-sweep`` checks, for every kernel, that the DME trail build
  is CFG-isomorphic to the leading build and that a full run under
  the DME scheme reaches the same architectural output as SafeDM.

Usage:
    PYTHONPATH=src python benchmarks/bench_schemes.py
        [--kernels K ...] [--schemes S ...] [--faults N] [--quick]
        [--safedm-sweep] [--dme-sweep] [--out FILE]

``--quick`` restricts the matrix to the cosf kernel with 2 faults and
turns on both sweeps, for CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time

from bench_common import metric_fields
from repro.schemes import SCHEME_KINDS, SchemeSpec
from repro.schemes.dme import dme_transform_report
from repro.schemes.matrix import matrix_table, run_scheme_trials
from repro.soc.experiment import run_redundant
from repro.workloads import all_names, program as build_program

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_schemes.json"

DEFAULT_KERNELS = ("binarysearch", "bitonic", "cosf")
QUICK_KERNELS = ("cosf",)
DEFAULT_STIMULI = (0x5EED,)
MAX_CYCLES = 2_000_000


def bench_matrix(kernels, schemes, num_faults):
    """The coverage matrix proper: every scheme over every kernel."""
    rows = []
    for kernel in kernels:
        prog = build_program(kernel)
        kernel_rows = []
        for kind in schemes:
            start = time.perf_counter()
            row = run_scheme_trials(kind, prog, benchmark=kernel,
                                    num_faults=num_faults,
                                    stimuli=DEFAULT_STIMULI,
                                    max_cycles=MAX_CYCLES)
            elapsed = time.perf_counter() - start
            payload = row.to_dict()
            payload["kernel"] = kernel
            payload["wall_seconds"] = round(elapsed, 3)
            kernel_rows.append((row, payload))
        print("%s:" % kernel)
        print(matrix_table([row for row, _ in kernel_rows]))
        rows.extend(kernel_rows)
    return rows


def lockstep_gate(rows):
    """Lockstep must detect 100% of unmasked CCFs, everywhere: a silent
    trial or a hang the comparator never flagged fails the gate."""
    missed = [(row, payload) for row, payload in rows
              if row.scheme == "lockstep" and row.escaped]
    for row, payload in missed:
        print("FAIL: lockstep let %d unmasked CCF(s) escape on %s"
              " (%d silent, %d undetected hang)"
              % (row.escaped, payload["kernel"], row.silent,
                 row.count("hang")),
              file=sys.stderr)
    return not missed


def safedm_sweep():
    """scheme="safedm" == legacy run_redundant, every kernel, both
    tiers.  Returns (kernels_checked, mismatches)."""
    mismatches = []
    names = all_names()
    for kernel in names:
        prog = build_program(kernel)
        for engine in ("reference", "fast"):
            legacy = run_redundant(prog, benchmark=kernel,
                                   engine=engine,
                                   max_cycles=MAX_CYCLES)
            scheme = run_redundant(prog, benchmark=kernel,
                                   engine=engine, scheme="safedm",
                                   max_cycles=MAX_CYCLES)
            a = dataclasses.asdict(legacy)
            b = dataclasses.asdict(scheme)
            a.pop("scheme_stats"), b.pop("scheme_stats")
            if a != b:
                diff = sorted(k for k in a if a[k] != b[k])
                mismatches.append((kernel, engine, diff))
                print("FAIL: safedm != legacy on %s (%s): %s"
                      % (kernel, engine, diff), file=sys.stderr)
    print("safedm bit-identity: %d/%d kernel x tier combinations "
          "identical" % (2 * len(names) - len(mismatches),
                         2 * len(names)))
    return len(names), mismatches


def dme_sweep():
    """DME trail build is CFG-isomorphic and reaches the same final
    architectural state, every kernel."""
    spec = SchemeSpec(kind="dme")
    failures = []
    names = all_names()
    remapped_total = 0
    for kernel in names:
        prog = build_program(kernel)
        report = dme_transform_report(kernel, spec, prog.base)
        remapped_total += report.words_remapped
        if not report.cfg_isomorphic:
            failures.append((kernel, "cfg-not-isomorphic"))
            print("FAIL: DME transform broke the CFG of %s" % kernel,
                  file=sys.stderr)
            continue
        plain = run_redundant(prog, benchmark=kernel, scheme="safedm",
                              max_cycles=MAX_CYCLES)
        dme = run_redundant(prog, benchmark=kernel, scheme="dme",
                            max_cycles=MAX_CYCLES)
        outs = dme.scheme_stats["outputs"]
        if not dme.finished:
            failures.append((kernel, "dme-run-hung"))
            print("FAIL: DME run of %s did not finish" % kernel,
                  file=sys.stderr)
        elif outs[0] != outs[1] \
                or outs[0] != plain.scheme_stats["outputs"][0]:
            failures.append((kernel, "final-state-divergence"))
            print("FAIL: DME trail of %s diverged: %r vs plain %r"
                  % (kernel, outs, plain.scheme_stats["outputs"][0]),
                  file=sys.stderr)
    print("dme equivalence: %d/%d kernels isomorphic and "
          "state-identical (%d words remapped in total)"
          % (len(names) - len(failures), len(names), remapped_total))
    return len(names), failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="+",
                        default=list(DEFAULT_KERNELS),
                        help="kernels to campaign over (default: %s)"
                        % " ".join(DEFAULT_KERNELS))
    parser.add_argument("--schemes", nargs="+",
                        default=list(SCHEME_KINDS),
                        choices=list(SCHEME_KINDS),
                        help="schemes to compare (default: all)")
    parser.add_argument("--faults", type=int, default=4, metavar="N",
                        help="fault instants per scheme x kernel "
                             "(default: 4; 2 under --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: %s only, 2 faults, both "
                             "sweeps on" % " ".join(QUICK_KERNELS))
    parser.add_argument("--safedm-sweep", action="store_true",
                        help="assert scheme='safedm' == legacy "
                             "run_redundant on every kernel, both "
                             "tiers")
    parser.add_argument("--dme-sweep", action="store_true",
                        help="assert the DME build of every kernel is "
                             "CFG-isomorphic and state-identical")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: BENCH_schemes.json "
                             "at the repo root)")
    args = parser.parse_args()
    out_path = pathlib.Path(args.out) if args.out else OUT_PATH
    kernels = list(QUICK_KERNELS) if args.quick else args.kernels
    num_faults = 2 if args.quick and args.faults == 4 else args.faults
    run_safedm = args.safedm_sweep or args.quick
    run_dme = args.dme_sweep or args.quick

    print("scheme matrix: %s x %s, %d fault(s) each"
          % (" ".join(kernels), " ".join(args.schemes), num_faults))
    rows = bench_matrix(kernels, args.schemes, num_faults)
    gate_ok = lockstep_gate(rows)

    report = {
        "kernels": kernels,
        "schemes": list(args.schemes),
        "faults_per_cell": num_faults,
        "stimuli": list(DEFAULT_STIMULI),
        "quick": bool(args.quick),
        "matrix": [payload for _, payload in rows],
        "lockstep_gate_passed": gate_ok,
    }

    if run_safedm:
        checked, mismatches = safedm_sweep()
        report.update(metric_fields(
            "safedm_identical_kernels",
            checked if not mismatches else checked - len(mismatches)))
        report["safedm_mismatches"] = [
            {"kernel": k, "engine": e, "fields": d}
            for k, e, d in mismatches]
        gate_ok = gate_ok and not mismatches
    else:
        report.update(metric_fields("safedm_identical_kernels", None,
                                    "sweep-not-requested"))

    if run_dme:
        checked, failures = dme_sweep()
        report.update(metric_fields(
            "dme_equivalent_kernels", checked - len(failures)))
        report["dme_failures"] = [{"kernel": k, "reason": r}
                                  for k, r in failures]
        gate_ok = gate_ok and not failures
    else:
        report.update(metric_fields("dme_equivalent_kernels", None,
                                    "sweep-not-requested"))

    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print("wrote %s" % out_path)
    if not gate_ok:
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
