#!/usr/bin/env python3
"""fourspace benchmark: one workload, one seed, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload's op runs in a closed loop with tracing
off, a fixed number of times sized to take about S seconds (whole passes
over the workload's inputs), then the answers are checked, then one cold
command-line call is timed in a fresh process.  The end-to-end metrics
are printed by name, with times scaled to a reference host speed
(see REFERENCE_S).  With ``--trace 1`` each of a fixed number of ops
(set by S, not by the clock) runs once untraced and once traced; the
traced copies give per-layer calls, busy and self seconds and computed
counts, and the pairs give the tracing overhead.  Spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above
it give the same numbers under the names used in the workload docs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5   # the run's own set-up plus four fresh processes
STARTUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

# End-to-end times are scaled to a reference host speed.  On a shared
# 2-vCPU virtual machine the speed of a fixed CPU-bound loop drifted by up
# to 2x over minutes, which no run length averages away.  A fixed
# pure-Python loop, timed next to each measured piece of work on the same
# CPU, tracks that drift; each time is reported as raw seconds x
# REFERENCE_S / reference seconds.  Raw seconds are printed in the report.
REFERENCE_ITERS = 60_000
REFERENCE_S = 0.010
REFERENCE_REPEATS = 3   # reference loops per scaling point (median taken)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_s", "s"),
    ("work_per_s", "1/s"),
)
# Printed in the report lines only, not gated: the tail needs more samples
# than a homdim-large run holds, and a cold CLI call in a fresh process
# spread by up to 23% (quartile distance over median) across 10 runs, near
# the largest bound allowed, where the in-process times spread under 9%.
REPORTED_END_TO_END = (
    ("op_tail_s", "s"),
    ("cli_s", "s"),
)

# Per-layer metrics: metric name -> (span name, key of spans.summarize).
# The computed counts repeat exactly on the same seed and --seconds, so a
# claim may rest on them.
COMPUTED_COUNTS = {
    "exactmat.rank.calls": ("exactmat.rank", "calls"),
    "exactmat.rank.entries": ("exactmat.rank", "entries"),
    "exactmat.invert.calls": ("exactmat.invert", "calls"),
    "exactmat.matmul.calls": ("exactmat.matmul", "calls"),
    "homdim.hom_dim.calls": ("homdim.hom_dim", "calls"),
    "homdim.coeff_matrix.rows": ("homdim.coeff_matrix", "rows"),
    "homdim.coeff_matrix.cols": ("homdim.coeff_matrix", "cols"),
    "oracle.hom_oracle.calls": ("oracle.hom_oracle", "calls"),
    "oracle.unknowns": ("oracle.hom_oracle", "unknowns"),
    "oracle.equations": ("oracle.hom_oracle", "equations"),
    "catalog.build.calls": ("catalog.build", "calls"),
    "decomp.decompose.calls": ("decomp.decompose", "calls"),
}
LAYER_TIMES = {
    "exactmat.rank.s": ("exactmat.rank", "s"),
    "exactmat.assembly.s": ("exactmat.assembly", "s"),
    "homdim.hom_dim.s": ("homdim.hom_dim", "s"),
    "homdim.hom_dim.self_s": ("homdim.hom_dim", "self_s"),
    "homdim.coeff_matrix.s": ("homdim.coeff_matrix", "s"),
}
# Zero on the workloads whose ops never reach the layer.
PARTIAL_LAYER_TIMES = {
    "exactmat.invert.s": ("exactmat.invert", "s"),
    "exactmat.matmul.s": ("exactmat.matmul", "s"),
    "oracle.hom_oracle.s": ("oracle.hom_oracle", "s"),
    "catalog.build.s": ("catalog.build", "s"),
    "modules.base_change.s": ("modules.base_change", "s"),
    "decomp.decompose.s": ("decomp.decompose", "s"),
    "verify.run_sweep.s": ("verify.run_sweep", "s"),
}
# Layer figures cover the traced ops only, not the PHASES (input
# generation, warm-up call, answer check), which are reported apart.  The
# warm-up call counts too for the spans below, because the cold Gram
# inverse it builds is what they measure; for every other span it would
# drown the warm path.
WARM_UP_SPANS = {"exactmat.invert"}

# The JSON line of a traced run: the computed counts, and the times that
# every workload's ops exercise, so no time in it is always zero.
PER_LAYER = tuple((name, "count") for name in COMPUTED_COUNTS) + tuple(
    (name, "s") for name in LAYER_TIMES
) + (
    ("cli.startup_s", "s"),
    ("trace.overhead_s", "s"),
)
# Printed in the report lines only.
REPORT_ONLY = tuple((name, "s") for name in PARTIAL_LAYER_TIMES) + (
    ("decomp.first_call_s", "s"),
    ("verify.formula_oracle_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)
# Op ids of the spans outside the traced ops, one report line each.
PHASES = ("setup", "warmup", "check")


def reference_s():
    """Seconds of one fixed loop of tuple building and integer arithmetic,
    the kind of interpreter work fourspace does; it shares no code with
    fourspace."""
    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERS):
        row = (i, i * i % 7, i + 1)
        acc += row[1] * row[2] % 32003
    return perf_counter() - start


def reference_median():
    return statistics.median(reference_s() for _ in range(REFERENCE_REPEATS))


def scaled(raw_s, ref_s):
    """raw_s at the reference host speed."""
    return raw_s * REFERENCE_S / ref_s


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the reference
    loop and the work it scales always share a CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail(samples):
    """(value, percentile, n) at the highest percentile with at least ten
    samples beyond it; None when that percentile would not reach the median
    (fewer than 20 samples), since it is then no tail."""
    n = len(samples)
    if n < 20:
        return None
    rank = n - 10
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv):
    return subprocess.run(
        argv, capture_output=True, text=True, env=child_env(),
        timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=False,
    )


def import_fourspace():
    """Import fourspace from this checkout's src/, or exit nonzero."""
    if not (SRC / "fourspace" / "__init__.py").is_file():
        sys.exit(f"error: no fourspace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fourspace

    if Path(fourspace.__file__).resolve().parent != SRC / "fourspace":
        sys.exit(f"error: imported fourspace from {fourspace.__file__}, not {SRC}")
    return fourspace


def set_up(workload, seed, tracer=None):
    """Import fourspace and build the workload's inputs; (fs, wl, seconds).

    A tracer given here wraps the package before the inputs are built, so
    input generation is traced too.
    """
    start = perf_counter()
    fs = import_fourspace()
    if tracer is not None:
        tracer.prepare()
        tracer.install()
        tracer.op = "setup"
    wl = WORKLOADS[workload](fs, seed)
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return fs, wl, seconds


def timed_op(wl, k):
    """(answer or None if it raised, seconds)."""
    start = perf_counter()
    try:
        answer = wl.run_op(k)
    except Exception:  # a raised op is a failed op; keep measuring
        traceback.print_exc()
        answer = None
    return answer, perf_counter() - start


def timed_cli(fs, wl, results):
    """(raw seconds, [reference seconds], whether it failed) of one cold
    command-line call in a fresh process, with reference loops timed
    before and after it."""
    path = ""
    if wl.cli_module is not None:
        OUT.mkdir(exist_ok=True)
        path = str(OUT / f"{wl.name}-seed{wl.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fs.module_to_record(wl.cli_module), fh)
    argv = [sys.executable, "-m", "fourspace.cli", *wl.cli_args(path)]
    refs = [reference_s() for _ in range(REFERENCE_REPEATS)]
    start = perf_counter()
    proc = run_child(argv)
    raw = perf_counter() - start
    refs += [reference_s() for _ in range(REFERENCE_REPEATS)]
    failed = not wl.cli_ok(proc.returncode, proc.stdout, results)
    if failed:
        print(f"cli call failed: {' '.join(argv[1:])}\n{proc.stdout}{proc.stderr}",
              file=sys.stderr)
    return raw, refs, failed


def setup_probe(workload, seed):
    """Set up once in this process; (raw seconds, reference seconds)."""
    raw = set_up(workload, seed)[2]
    return raw, reference_median()


def setup_samples(workload, seed, seconds, own):
    """[(raw, reference)]: own plus fresh processes running --setup-probe."""
    samples = [own]
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = run_child(argv)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        raw, ref = proc.stdout.split()[-2:]
        samples.append((float(raw), float(ref)))
    return samples


def cli_startup_s():
    code = ("from time import perf_counter as t; s = t(); import fourspace.cli; "
            "print(t() - s)")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        proc = run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            sys.exit(f"error: cannot import fourspace.cli:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_untraced(fs, wl, seconds):
    """wl.ops_per_run(seconds) ops, answer check, then the cold CLI calls.

    A reference loop runs before the first op and after each op; op k is
    scaled by the mean of the two references around it.
    """
    results, raw, ops = [], [], []
    report = []
    if wl.warm_up:
        answer, first_s = timed_op(wl, 0)
        results.append((0, answer))
        report.append(f"warm-up op 0 (paid once per process): {first_s:.4f} s raw")
    refs = [reference_s()]
    for k in range(wl.ops_per_run(seconds)):
        answer, dt = timed_op(wl, k)
        refs.append(reference_s())
        results.append((k, answer))
        raw.append(dt)
        ops.append(scaled(dt, (refs[-2] + refs[-1]) / 2))
    failed = len(wl.failed_ops(results))
    cli, cli_refs, cli_failed = timed_cli(fs, wl, results)
    # a few loops next to one long call track its speed poorly; all the
    # run's loops together track the host's speed over the run
    refs += cli_refs
    metrics = {
        "op_p50_s": statistics.median(ops),
        "work_per_s": wl.work_per_op * len(ops) / sum(ops),
        "cli_s": scaled(cli, statistics.median(refs)),
    }
    report += [
        f"ops timed: {len(ops)}; raw op p50 {statistics.median(raw):.6f} s, "
        f"raw work {wl.work_per_op * len(raw) / sum(raw):.4f} per s",
        *per_input_lines(wl, raw),
        f"raw cli: {cli:.4f} s",
        f"reference loop: median {statistics.median(refs):.6f} s over {len(refs)} "
        f"(scaled to {REFERENCE_S} s)",
        f"work unit: {wl.work_unit}; cli: {wl.cli}",
    ]
    return metrics, len(results) + 1, failed + cli_failed, report, tail(ops)


def per_input_lines(wl, raw):
    """Raw op seconds of each input of the pool, so the mix can be checked."""
    if wl.pool_size == 1:
        return []
    return [f"raw op s, input {p} ({wl.input_kind(p)}): "
            + ", ".join(f"{dt:.4f}" for dt in raw[p::wl.pool_size])
            for p in range(wl.pool_size)]


def e2e_lines(wl, m, op_tail):
    """Report lines: each end-to-end metric, and its name in the workload docs."""
    lines = []
    values = dict(m)
    values["op_tail_s"] = op_tail[0] if op_tail else None
    for name, unit in END_TO_END + REPORTED_END_TO_END:
        value = values[name]
        if value is None:
            lines.append(f"{name:<14} n/a: fewer than 20 samples in the run")
            continue
        line = f"{name:<14} {value:.6f} {unit}"
        if name in wl.aliases:
            alias, scale, alias_unit = wl.aliases[name]
            line += f"  = {alias} {value * scale:.6f} {alias_unit}"
        if name == "op_tail_s":
            line += f"  (p{op_tail[1]:.0f} of {op_tail[2]} samples: 10 beyond it)"
        if (name, unit) in REPORTED_END_TO_END:
            line += "  [report only]"
        lines.append(line)
    return lines


def run_traced(fs, wl, seconds, tracer):
    """Paired untraced/traced executions of a fixed number of ops."""
    results, plain, traced = [], [], []
    if wl.warm_up:
        tracer.install()
        tracer.op = "warmup"
        answer, _ = timed_op(wl, 0)
        results.append((0, answer))
    pairs = max(1, math.ceil(seconds * wl.trace_rate))
    for k in range(pairs):
        # alternate which copy runs first so neither gains from going second
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                tracer.op = k
            else:
                tracer.uninstall()
            answer, dt = timed_op(wl, k)
            results.append((k, answer))
            (traced if on else plain).append(dt)
    tracer.install()
    tracer.op = "check"
    failed = set(wl.failed_ops(results))
    tracer.uninstall()

    recorded = tracer.spans
    in_ops = spans.summarize(recorded, set(range(pairs)))
    with_warm_up = spans.summarize(recorded, set(range(pairs)) | {"warmup"})

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    m = {name: get(with_warm_up if span in WARM_UP_SPANS else in_ops, span, key)
         for name, (span, key) in {**COMPUTED_COUNTS, **LAYER_TIMES, **PARTIAL_LAYER_TIMES}.items()}
    first = next((s for s in recorded if s[0] == "decomp.decompose" and s[4] == "warmup"), None)
    m["decomp.first_call_s"] = first[2] - first[1] if first else None
    # oracle seconds over formula seconds on the same (module, descriptor)
    # pairs, which only run_sweep gives: it runs both routes on every pair
    oracle_s = get(in_ops, "oracle.hom_oracle", "s")
    m["verify.formula_oracle_ratio"] = (
        oracle_s / get(in_ops, "homdim.hom_dim", "s") if oracle_s else None)
    m["cli.startup_s"] = cli_startup_s()
    m["trace.overhead_s"] = (sum(traced) - sum(plain)) / pairs
    m["trace.overhead_frac"] = (sum(traced) - sum(plain)) / sum(plain)

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(span_path)
    report = [f"traced ops: {pairs} pairs (untraced + traced); spans: {len(recorded)} -> {span_path.relative_to(ROOT)}"]
    for name, unit in PER_LAYER + REPORT_ONLY:
        label = "  (computed count)" if name in COMPUTED_COUNTS else ""
        value = m[name]
        if value is None:
            text = "n/a"
        else:
            text = f"{value}" if unit == "count" else f"{value:.6f}"
        report.append(f"{name:<30} {text} {unit}{label}")
    for phase in PHASES:
        summary = spans.summarize(recorded, {phase})
        report.append(f"phase {phase}: " + (
            "; ".join(f"{name} {rec['calls']} calls {rec['s']:.4f} s"
                      for name, rec in sorted(summary.items())) or "no spans"))
    return m, len(results), len(failed), report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time the set-up alone and print the seconds")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    pin_to_one_cpu()
    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed))
        return 0

    tracer = spans.Tracer() if args.trace else None
    fs, wl, own_setup = set_up(args.workload, args.seed, tracer)
    own_setup = (own_setup, reference_median())

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  field {wl.field}; bounds {wl.bounds}")
    print(f"  inputs: {wl.inputs}")
    print(f"  op: {wl.op}")

    if args.trace:
        metrics, attempted, failed, report = run_traced(fs, wl, args.seconds, tracer)
        names = PER_LAYER
    else:
        metrics, attempted, failed, report, op_tail = run_untraced(fs, wl, args.seconds)
        samples = setup_samples(wl.name, args.seed, args.seconds, own_setup)
        metrics["setup_s"] = statistics.median(scaled(raw, ref) for raw, ref in samples)
        metrics["peak_rss_mb"] = peak_rss_mb()
        report += e2e_lines(wl, metrics, op_tail)
        report.append("setup samples (raw s): " + ", ".join(f"{raw:.4f}" for raw, _ in samples))
        names = END_TO_END
    report.append(f"failed_frac    {failed / attempted:.6f}  ({failed} of {attempted} ops)")
    for line in report:
        print("  " + line)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
