#!/usr/bin/env python3
"""End-to-end campaign benchmark for the STCG reproduction.

Drives whole gen::Campaign runs (one campaign per child process, see
campaign_bench.cpp) at a fixed round count, checks every output, and prints
one JSON result line last:

    python3 perfbench/run.py --workload solve-tcp --seed 1 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(a separate, traced run). The first call builds the child in .bench_build/
of the checkout (Release). Self-tests:

    python3 -m unittest discover -s perfbench/tests
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SCRATCH_DIR = ROOT / ".bench_build" / "scratch"
CHILD = BUILD_DIR / "perfbench_campaign"

# A child that outlives this is killed and counted as failed (and, when it
# can be the ThreadPool deadlock, as a pool hang); it is never retried.
WATCHDOG_S = 45.0
# No child is started after this point of a run, so a run always ends
# within WATCHDOG_S of it (plus the build, on the first run).
LAST_START_S = 110.0
# Setups per child; the run reports the median over all of them.
SETUP_REPEATS = 31
# Jobs of the pool probe: the first PROBE_ROUNDS rounds at jobs 1 and at
# this many jobs, paired by round index.
PROBE_JOBS = 4
PROBE_ROUNDS = 200
# Panel seeds are seed, seed + PANEL_STRIDE, seed + 2 * PANEL_STRIDE, ...
PANEL_STRIDE = 1_000_000


class Workload:
    def __init__(self, name, why, model, rounds, panel, jobs=1, prune=False,
                 checkpoint_every=0, resume_at=0, listed=True):
        self.name = name
        self.why = why
        self.model = model
        self.rounds = rounds
        # Campaign seeds per run: the campaign time of one seed varies with
        # the trajectory, so a run averages over a fixed panel of seeds.
        self.panel = panel
        self.jobs = jobs
        self.prune = prune
        self.checkpoint_every = checkpoint_every
        self.resume_at = resume_at
        # Whether BENCHMARK.json lists it; unlisted ones run only by name.
        self.listed = listed

    def child_args(self, seed, jobs=None, resume=True):
        args = ["--model", self.model, "--seed", str(seed),
                "--rounds", str(self.rounds),
                "--jobs", str(self.jobs if jobs is None else jobs),
                "--scratch", str(SCRATCH_DIR)]
        if self.prune:
            args.append("--prune")
        if resume and self.checkpoint_every:
            args += ["--checkpoint-every", str(self.checkpoint_every),
                     "--resume-at", str(self.resume_at)]
        return args


# All workloads use GenOptions defaults (tape engine, batch 8, box solver),
# a budget that never binds, and stop at a fixed round count.
WORKLOADS = {w.name: w for w in [
    Workload("grid-lanswitch",
             "LANSwitch, 2000 rounds: bound by grid enumeration (85M cells "
             "for 8K solver calls); sim and solver barely matter",
             "LANSwitch", 2000, panel=3),
    Workload("solve-tcp",
             "TCP, 2000 rounds: bound by expr::substitute and box solving "
             "(21K committed cells, maxBoxes UNKNOWNs)",
             "TCP", 2000, panel=9),
    # Not in BENCHMARK.json: its batched AVX2 replay swings with the load
    # of the shared host, so ten runs spread 0.14-0.17 (see NOTES.md).
    Workload("replay-ledlc",
             "LEDLC, 40000 rounds: a dead default keeps it in random "
             "expansion (960K batched sim steps, ~200 solver calls)",
             "LEDLC", 40000, panel=6, listed=False),
    # Not in BENCHMARK.json: the ThreadPool deadlock hangs a large share of
    # its runs (see NOTES.md), so no run of it can be steady.
    Workload("resume-nic-j4",
             "NICProtocol, pruned, jobs 4, 2000 rounds, checkpoint every 10, "
             "dropped at round 1000 and resumed from the file",
             "NICProtocol", 2000, panel=3, jobs=4, prune=True,
             checkpoint_every=10, resume_at=1000, listed=False),
]}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("campaign_s", "s", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("goals_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("decision_cov", "%", "higher", 0.02),
    ("condition_cov", "%", "higher", 0.02),
    ("mcdc_cov", "%", "higher", 0.1),
    ("ok_frac", "fraction", "higher", 0.05),
]

# name, unit, better, source (the call timed or counted)
PER_LAYER = [
    ("compile.compile_ms", "ms", "lower", "compile::compile"),
    ("analysis.prune_ms", "ms", "lower",
     "gen::pruneUnreachableGoals on a copy of the goal list"),
    ("stcg.solve_round_ms_p50", "ms", "lower",
     "Campaign::runRound, rounds whose GenStats gained a SAT"),
    ("stcg.solve_round_ms_p90", "ms", "lower", "as above"),
    ("stcg.fallback_round_ms_p50", "ms", "lower",
     "Campaign::runRound, rounds that ran random expansion"),
    ("stcg.fallback_round_ms_p90", "ms", "lower", "as above"),
    ("stcg.rounds_solved", "count", "higher", "GenStats delta per round"),
    ("stcg.rounds_fallback", "count", "lower", "GenStats delta per round"),
    ("stcg.grid_cells", "count", "lower",
     "unattempted (uncovered goal x node) cells from state() per round"),
    ("stcg.cells_committed", "count", "lower", "GenStats::solveCalls"),
    ("stcg.cell_yield", "fraction", "higher",
     "cells_committed / grid_cells"),
    ("stcg.ns_per_grid_cell", "ns", "lower",
     "runRound wall time / grid_cells"),
    ("expr.substitute_us_p50", "us", "lower",
     "expr::substitute on the first cells of every n-th round"),
    ("expr.substitute_us_p90", "us", "lower", "as above"),
    ("expr.fold_rate", "fraction", "higher",
     "sampled cells folding to constant false"),
    ("solver.solve_us_p50", "us", "lower",
     "solver::solveWith on the sampled cells that did not fold"),
    ("solver.solve_us_p90", "us", "lower", "as above"),
    ("solver.boxes_per_call", "count", "lower", "SolveStats::boxesProcessed"),
    ("solver.sat_calls", "count", "higher", "GenStats::solveSat"),
    ("solver.unsat_calls", "count", "lower", "GenStats::solveUnsat"),
    ("solver.unknown_calls", "count", "lower", "GenStats::solveUnknown"),
    ("sim.steps", "count", "lower", "GenStats::stepsExecuted"),
    ("sim.step_us", "us", "lower",
     "sim::Simulator::step of library inputs from tree nodes"),
    ("sim.batch_step_us", "us", "lower",
     "sim::BatchSimulator::stepBatch at 8 lanes, per lane"),
    ("stcg.tree_nodes", "count", "lower", "GenStats::treeNodes"),
    ("stcg.find_state_us", "us", "lower",
     "StateTree::findByState on the replayed snapshots"),
    ("coverage.replay_ms", "ms", "lower",
     "gen::replaySuite of the final suite at batch 8"),
    ("coverage.tests", "count", "lower", "final suite size"),
    ("stcg.checkpoint_save_ms_p50", "ms", "lower",
     "Campaign::saveCheckpoint"),
    ("stcg.checkpoint_save_ms_p90", "ms", "lower", "as above"),
    ("stcg.checkpoint_bytes", "bytes", "lower", "largest checkpoint file"),
    ("stcg.restore_ms", "ms", "lower", "Campaign::restore"),
    ("util.pool_round_overhead_ms_p50", "ms", "lower",
     "runRound at jobs 4 minus at jobs 1, paired by round index"),
    ("util.pool_round_overhead_ms_p90", "ms", "lower", "as above"),
    ("util.pool_hangs", "count", "lower", "children killed by the watchdog"),
    ("trace.overhead_s", "s", "lower",
     "traced campaign_s minus the untraced median"),
    ("failed_frac", "fraction", "lower",
     "children that hung, crashed or failed the output check"),
]


def spec():
    """The BENCHMARK.json this file defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values() if w.listed],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ----- build -----------------------------------------------------------------

def build():
    """Configure and build the child (Release) under .bench_build/."""
    if not (ROOT / "src" / "stcg" / "campaign.h").is_file():
        raise SystemExit(f"perfbench: no library sources under {ROOT}/src")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_build(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release", *gen])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_build(["cmake", "--build", str(BUILD_DIR), "-j", jobs])


def run_build(cmd):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-4000:])
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


# ----- children --------------------------------------------------------------

def run_child(cmd, watchdog_s=WATCHDOG_S):
    """Run one child under the watchdog. Returns (status, result dict or
    None): status is "ok", "hang" (killed by the watchdog) or "error"."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=watchdog_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"watchdog killed after {watchdog_s:.0f} s: {' '.join(cmd)}")
        return "hang", None
    if proc.returncode != 0:
        log(f"child exited {proc.returncode}: {' '.join(cmd)}\n{err.strip()}")
        return "error", None
    try:
        return "ok", json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"child printed no result: {' '.join(cmd)}")
        return "error", None


class Tally:
    """Children attempted and failed in one run."""

    def __init__(self):
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.hangs = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def run(self, args, watchdog_s=WATCHDOG_S):
        if self.elapsed() >= LAST_START_S:
            log(f"out of time, not started: {' '.join(args)}")
            return None
        self.attempted += 1
        status, res = run_child([str(CHILD), *args], watchdog_s)
        if status != "ok":
            self.failed += 1
            self.hangs += status == "hang"
            return None
        return res

    def fail(self, why):
        log(f"output check failed: {why}")
        self.failed += 1


def checked(tally, res, seed, refs):
    """Output check of one campaign: the replayed suite reaches the
    tracker's coverage and the fingerprint matches the seed's reference
    (the first campaign of the seed, or its uninterrupted jobs-1 run)."""
    if res is None:
        return None
    if not res["replay_ok"]:
        tally.fail(f"seed {seed}: replayed coverage below the tracker's")
        return None
    ref = refs.setdefault(seed, res["fingerprint"])
    if res["fingerprint"] != ref:
        tally.fail(f"seed {seed}: fingerprint {res['fingerprint']} != "
                   f"reference {ref}")
        return None
    return res


def panel_seeds(w, seed):
    return [seed + i * PANEL_STRIDE for i in range(w.panel)]


def reference_runs(w, seeds, tally, refs):
    """A resumed jobs-N campaign must match an uninterrupted jobs-1 run."""
    if not w.resume_at and w.jobs == 1:
        return
    for s in seeds:
        res = tally.run([*w.child_args(s, jobs=1, resume=False),
                         "--setup-repeats", "1"])
        if res is not None and res["replay_ok"]:
            refs[s] = res["fingerprint"]


# ----- runs ------------------------------------------------------------------

def measure(w, seed, seconds):
    """Untraced run: every panel seed once, then the first seed again (a
    repeat the output check can compare), then further passes while
    `seconds` last. Per-seed medians, averaged over the panel."""
    tally = Tally()
    seeds = panel_seeds(w, seed)
    refs = {}
    reference_runs(w, seeds, tally, refs)
    per_seed = {s: [] for s in seeds}
    setups = []
    schedule = seeds + [seeds[0]]
    i = 0
    while tally.elapsed() < LAST_START_S:
        if i < len(schedule):
            s = schedule[i]
        elif tally.elapsed() < seconds:
            s = seeds[(i - len(schedule) + 1) % len(seeds)]
        else:
            break
        i += 1
        res = tally.run([*w.child_args(s),
                         "--setup-repeats", str(SETUP_REPEATS)])
        res = checked(tally, res, s, refs)
        if res is not None:
            per_seed[s].append(res)
            setups.append(res["setup_s"])

    done = [runs for runs in per_seed.values() if runs]
    metrics = {}
    if done:
        med = lambda runs, k: statistics.median(r[k] for r in runs)
        campaign = [med(runs, "campaign_s") for runs in done]
        rounds = sum(runs[0]["rounds"] for runs in done)
        goals = sum(runs[0]["goals_covered"] for runs in done)
        mean = statistics.fmean
        metrics = {
            "campaign_s": mean(campaign),
            "rounds_per_s": rounds / sum(campaign),
            "goals_per_s": goals / sum(campaign),
            "cpu_s": mean(med(runs, "cpu_s") for runs in done),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for runs in done for r in runs),
            "decision_cov": mean(runs[0]["decision_cov"] for runs in done),
            "condition_cov": mean(runs[0]["condition_cov"] for runs in done),
            "mcdc_cov": mean(runs[0]["mcdc_cov"] for runs in done),
        }
    metrics["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    return tally, {n: metrics.get(n, 0.0) for n, *_ in END_TO_END}


def measure_traced(w, seed):
    """Traced run on the first panel seed: two untraced campaigns (the
    baseline of trace.overhead_s), one traced campaign, one pool probe."""
    tally = Tally()
    refs = {}
    reference_runs(w, [seed], tally, refs)
    untraced = []
    for _ in range(2):
        res = checked(tally, tally.run([*w.child_args(seed),
                                        "--setup-repeats", "1"]), seed, refs)
        if res is not None:
            untraced.append(res["campaign_s"])
    traced = checked(tally, tally.run([*w.child_args(seed), "--trace"]),
                     seed, refs)
    probe_args = [*w.child_args(seed, resume=False),
                  "--probe-jobs", str(max(PROBE_JOBS, w.jobs))]
    probe_args[probe_args.index("--rounds") + 1] = str(PROBE_ROUNDS)
    probe = tally.run(probe_args)
    if probe is not None and not probe["identical"]:
        tally.fail("pool probe: jobs 1 and jobs N trajectories differ")

    metrics = {n: 0.0 for n, *_ in PER_LAYER}
    if traced is not None:
        metrics.update({k: v for k, v in traced.items() if k in metrics})
        if untraced:
            metrics["trace.overhead_s"] = (traced["campaign_s"] -
                                           statistics.median(untraced))
    if probe is not None:
        metrics.update({k: v for k, v in probe.items() if k in metrics})
    metrics["util.pool_hangs"] = tally.hangs
    metrics["failed_frac"] = tally.failed / tally.attempted
    return tally, metrics


def meta(info):
    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        sha = res.stdout.strip() or sha
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "cpu": cpu, "nproc": os.cpu_count(),
            "build_type": info["build_type"], "simd": info["simd"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--print-spec", action="store_true",
                    help="print the BENCHMARK.json this file defines")
    args = ap.parse_args(argv)
    if args.print_spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    status, info = run_child([str(CHILD), "--info"], watchdog_s=30)
    if status != "ok":
        raise SystemExit("perfbench: the benchmark binary does not run")
    if info["build_type"] != "Release":
        raise SystemExit(f"perfbench: refusing to measure a "
                         f"{info['build_type']} build; Release only")
    print("# meta " + json.dumps(meta(info)), flush=True)

    w = WORKLOADS[args.workload]
    if args.trace:
        tally, values = measure_traced(w, args.seed)
        units = {n: u for n, u, *_ in PER_LAYER}
        for name, unit, _, source in PER_LAYER:
            print(f"# {name} = {values[name]:.6g} {unit}  <- {source}")
    else:
        tally, values = measure(w, args.seed, args.seconds)
        units = {n: u for n, u, *_ in END_TO_END}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
