#!/usr/bin/env python3
"""Self-test of the benchmark in short mode (a twentieth of the ops).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that run.py prints every
end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
by name with its declared unit; that probes run only in the traced
run, after the measured repeats and after the snapshot; and that
tier_thrash is seed-invariant while mail_spool is not. Exits nonzero
on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark module under test)


def fail(message):
    print(f"selftest: FAIL {message}")
    sys.exit(1)


def run_bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--short"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    order = next((line.split(":", 2)[2].split() for line in lines
                  if line.startswith("perfbench: repeat order:")), None)
    return json.loads(lines[-1]), order


def check_metrics(workload, trace, result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: correctness check failed")
    printed = result["metrics"]
    for metric in declared:
        name = metric["name"]
        if name not in printed:
            fail(f"{workload} --trace {trace}: {name} not printed")
        if printed[name]["unit"] != metric["unit"]:
            fail(f"{workload} --trace {trace}: {name} unit "
                 f"{printed[name]['unit']} != {metric['unit']}")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        fail(f"{workload} --trace {trace}: undeclared {sorted(extra)}")


def check_order(workload, trace, order):
    if order is None:
        fail(f"{workload} --trace {trace}: no repeat order printed")
    if trace == 0 and (set(order[:-1]) != {"measure"} or
                       order[-1] != "check"):
        fail(f"{workload}: untraced run ran {order}")
    if trace == 1:
        first_extra = order.index("traced")
        if set(order[:first_extra]) != {"measure"} or \
                order[first_extra:] != ["traced", "probe"]:
            fail(f"{workload}: traced run order {order}")


def klocbench(driver, seed, mode):
    ops = dict(run.WORKLOADS.values())[driver] // 20
    proc = subprocess.run(
        [str(run.BINARY), "--driver", driver, "--ops", str(ops),
         "--seed", str(seed), "--mode", mode],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"klocbench {driver} {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result, order = run_bench(workload, trace)
            check_metrics(workload, trace, result, declared)
            check_order(workload, trace, order)
        print(f"selftest: {workload} ok")

    # Probes run after the measured phase and the snapshot, before
    # teardown, and never in a measure or traced repeat.
    for mode in ("measure", "traced"):
        rep = klocbench("varmail", 7, mode)
        if rep["probes"] or "probes" in rep["order"]:
            fail(f"probes ran in a {mode} repeat")
    order = klocbench("varmail", 7, "probe")["order"]
    if order.index("probes") != order.index("snapshot") + 1 or \
            order.index("snapshot") != order.index("workload.run") + 1 or \
            order[-1] != "workload.teardown":
        fail(f"probe repeat order {order}")
    print("selftest: probes ok")

    # The thrash driver draws no randomness: its seed changes nothing.
    digests = {s: klocbench("thrash", s, "measure")["digest"]
               for s in (7, 42, 99)}
    if len(set(digests.values())) != 1:
        fail(f"tier_thrash is no longer seed-invariant: {digests}; "
             "update SEED_INVARIANT in run.py and README.md")
    if klocbench("varmail", 7, "measure")["digest"] == \
            klocbench("varmail", 42, "measure")["digest"]:
        fail("mail_spool gives the same run at seeds 7 and 42")
    print("selftest: seeds ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
