#!/usr/bin/env python3
"""Host-time benchmark of the KLOC simulator; see perfbench/README.md.

    python3 perfbench/run.py --workload mail_spool --seed 7 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/, then runs
one klocbench process per repeat until --seconds have been spent, checks
every repeat and prints one JSON result as the last line of stdout.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Repeat i runs the workload at seed instance_seed(--seed, i): host cost
differs more between seeds than between repeats of one seed, so a run
takes its medians over many seeds of its own. Simulated metrics come
from the first repeats, which every run makes; repeat 0 runs --seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "klocbench"

# name -> (workload driver, measured ops); every workload runs under klocs.
WORKLOADS = {
    "mail_spool": ("varmail", 4000),
    "static_web": ("webserver", 60000),
    "tier_thrash": ("thrash", 60000),
}

# The thrash driver draws no randomness, so the seed cannot change it.
SEED_INVARIANT = {"tier_thrash"}

# Budget for the repeats: a run must end within 180 s of its build.
DEADLINE_S = 170.0
MIN_REPEATS = 3


def instance_seed(seed, i):
    """Seed of measured repeat i; repeat 0 runs --seed itself."""
    return (seed + (i << 32)) % 2**64


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "teardown_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "1/s",
}

PHASES = ["platform.build_s", "policy.install_s", "workload.load_s",
          "fs.sync_s", "sim.quiesce_s", "workload.run_s",
          "workload.teardown_s"]
SETUP_PHASES = PHASES[:5]

PROBE_UNITS = {
    "fs.readdir_ns": "ns",
    "fs.readdir_entries": "count",
    "fs.create_write_fsync_ns": "ns",
    "fs.open_read_ns": "ns",
    "fs.unlink_ns": "ns",
    "net.request_ns": "ns",
    "core.find_knode_ns": "ns",
    "mem.lru_scan_ns_per_page": "ns/page",
    "mem.migrate_ns_per_page": "ns/page",
    "kobj.app_page_ns": "ns",
    "sim.access_ns": "ns",
    "sim.daemon_ns_per_virt_ms": "ns/ms",
}

SIM_UNITS = {
    "sim.virt_ms": "ms",
    "sim.kernel_ref_share": "ratio",
    "mem.migrated_pages": "count",
    "mem.migration_success_ratio": "ratio",
    "fs.read_hit_ratio": "ratio",
    "fs.journal_commits": "count",
    "fs.device_requests": "count",
    "fs.live_inodes": "count",
    "net.packets_delivered": "count",
    "net.early_demux_ratio": "ratio",
    "core.knodes_created": "count",
    "core.percpu_hit_ratio": "ratio",
    "core.metadata_peak_bytes": "bytes",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in PHASES},
    **PROBE_UNITS,
    "trace.overhead_pct": "%",
    "trace.events": "count",
    **SIM_UNITS,
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build klocbench; False when it cannot."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "klocbench",
              "-j", "4"]]
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return True


class Repeats:
    """Runs klocbench repeats and checks each one against the first."""

    def __init__(self, driver, ops, deadline):
        self.driver, self.ops = driver, ops
        self.deadline = deadline
        self.attempted = 0
        self.errors = []
        self.digests = {}
        self.order = []

    def run(self, label, seed):
        """One repeat; label is a klocbench mode or "check"."""
        self.attempted += self.ops
        self.order.append(label)
        mode = "measure" if label == "check" else label
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.errors.append(f"{mode}: no time left in the run budget")
            return None
        cmd = [str(BINARY), "--driver", self.driver, "--ops",
               str(self.ops), "--seed", str(seed), "--mode", mode]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode}: repeat exceeded the run budget")
            return None
        if proc.returncode != 0:
            self.errors.append(f"{mode}: klocbench exited "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
            return None
        try:
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.errors.append(f"{mode}: unreadable klocbench output")
            return None
        self.check(rep, seed)
        return rep

    def check(self, rep, seed):
        mode = rep["mode"]
        if rep["ops_done"] != rep["ops_requested"]:
            self.errors.append(f"{mode}: completed {rep['ops_done']} of "
                               f"{rep['ops_requested']} ops")
        # Every repeat of one seed must simulate the same thing, traced
        # or not, with probes or without (they run after the snapshot).
        first = self.digests.setdefault(seed, rep["digest"])
        if rep["digest"] != first:
            self.errors.append(f"{mode}: simulated snapshot {rep['digest']}"
                               f" at seed {seed} differs from {first}")
        if mode == "traced" and not rep["checker_clean"]:
            self.errors.append(f"traced: InvariantChecker reported "
                               f"{rep['checker_violations']:.0f} violations")
        if mode != "probe" and rep["probes"]:
            self.errors.append(f"{mode}: probes ran in a measured repeat")


def end_to_end(reps):
    def med(values):
        return statistics.median(values)
    setup = [sum(r["phases"][p] for p in SETUP_PHASES) for r in reps]
    run = [r["phases"]["workload.run_s"] for r in reps]
    teardown = [r["phases"]["workload.teardown_s"] for r in reps]
    first = reps[:MIN_REPEATS]
    return {
        "ops_per_s": med(r["ops_done"] / t for r, t in zip(reps, run)),
        "setup_s": med(setup),
        "teardown_s": med(teardown),
        "wall_s": med(s + r + t for s, r, t in zip(setup, run, teardown)),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        # Simulated ops per virtual second over the first MIN_REPEATS
        # repeats: they always run, so --seed alone fixes this value.
        "sim_ops_per_s": 1000.0 * sum(r["ops_done"] for r in first) /
                         sum(r["sim"]["sim.virt_ms"] for r in first),
    }


def per_layer(reps, traced, probe):
    values = {p: statistics.median(r["phases"][p] for r in reps)
              for p in PHASES}
    values.update(probe["probes"])
    # Against the untraced runs of the traced run's own seed.
    untraced_run = statistics.mean(r["phases"]["workload.run_s"]
                                   for r in (reps[0], probe))
    values["trace.overhead_pct"] = (
        100.0 * (traced["phases"]["workload.run_s"] / untraced_run - 1.0))
    values["trace.events"] = traced["trace_events"]
    values.update({k: reps[0]["sim"][k] for k in SIM_UNITS})
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="a twentieth of the ops (self-test only)")
    args = parser.parse_args()

    if not build():
        return 2
    driver, ops = WORKLOADS[args.workload]
    if args.short:
        ops //= 20
    reps = Repeats(driver, ops, time.monotonic() + DEADLINE_S)

    # The untraced repeats are the measurement. In a traced run they get
    # half the window; the traced and probe repeats follow them at
    # --seed, and must reproduce repeat 0's snapshot. An untraced run
    # re-runs --seed once, unmeasured, for the same check.
    window = args.seconds / 2 if args.trace else args.seconds
    measured_from = time.monotonic()
    measured = []
    while not reps.errors and (len(measured) < MIN_REPEATS or
                               time.monotonic() - measured_from < window):
        rep = reps.run("measure", instance_seed(args.seed, len(measured)))
        if rep is not None:
            measured.append(rep)
    traced = probe = None
    if args.trace and not reps.errors:
        traced = reps.run("traced", args.seed)
        probe = reps.run("probe", args.seed)
    elif not reps.errors:
        reps.run("check", args.seed)

    if reps.errors:
        for error in reps.errors:
            log(f"perfbench: FAILED {error}")
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in per_layer(measured, traced,
                                                probe).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(measured).items()}

    print(f"perfbench: {args.workload} ({driver}, {ops} ops, klocs) seed "
          f"{args.seed}")
    print(f"perfbench: repeat order: {' '.join(reps.order)}")
    print("perfbench: sim_ops_per_s is simulated ops per virtual second, "
          "unvalidated against hardware")
    if args.workload in SEED_INVARIANT:
        print(f"perfbench: {args.workload} is seed-invariant: the {driver} "
              "driver draws no randomness, so every seed simulates the "
              "same run")
    correct = not reps.errors
    print(json.dumps({
        "correct": correct,
        "attempted": reps.attempted,
        "failed": 0 if correct else reps.attempted,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
