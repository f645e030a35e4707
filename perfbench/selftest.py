#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks the span arithmetic and the tail rule on fixed inputs, checks that
BENCHMARK.json lists exactly the workloads and metrics that run.py
prints, and runs the traced benchmark twice on the same seed for each
workload, requiring every computed count to repeat
exactly and every answer to be correct.  Exits nonzero on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SEED = 7
SECONDS = 1


def check_summarize():
    # a(0..10) has children b(1..4) and c(5..9); c calls c(6..8) recursively
    recorded = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, {"entries": 6}],
        ["c", 5.0, 9.0, 0, 0, None],
        ["c", 6.0, 8.0, 2, 0, None],
        ["b", 20.0, 21.0, -1, 1, {"entries": 4}],
    ]
    got = spans.summarize(recorded)
    want = {
        "a": {"calls": 1, "s": 10.0, "self_s": 3.0},
        "b": {"calls": 2, "s": 4.0, "self_s": 4.0, "entries": 10},
        "c": {"calls": 2, "s": 4.0, "self_s": 4.0},
    }
    assert got == want, got
    assert spans.summarize(recorded, {1}) == {
        "b": {"calls": 1, "s": 1.0, "self_s": 1.0, "entries": 4}
    }


def check_tail():
    assert run.tail([1.0] * 19) is None
    samples = [float(x) for x in range(30, 0, -1)]
    assert run.tail(samples) == (20.0, 100.0 * 20 / 30, 30)


def check_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ], "workloads differ from workloads.py"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_counts_repeat(workload):
    first, second = traced_run(workload), traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result
    diff = {
        name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
        for name in run.COMPUTED_COUNTS
        if first["metrics"][name] != second["metrics"][name]
    }
    assert not diff, f"computed counts differ between two runs: {diff}"


def main():
    checks = [
        ("span arithmetic", check_summarize),
        ("tail rule", check_tail),
        ("BENCHMARK.json matches run.py", check_benchmark_json),
    ] + [
        (f"{w}: computed counts repeat on seed {SEED}", lambda w=w: check_counts_repeat(w))
        for w in WORKLOADS
    ]
    failures = 0
    for label, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"PASS {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
