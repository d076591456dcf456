"""The forestcalc benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a forestcalc checkout.  Workloads:

- tree-groups (cold): `forestcalc group ... --json` for a fixed list of
  (m, n, flavor) cells, one fresh interpreter per cell.
- eta-kernels (cold): `eta_kernel` plus `eta_cokernel_invariants`, one fresh
  interpreter per cell.
- clasper-queries (warm): a seeded closed-loop stream of small queries
  against tree groups built during set-up.

A run repeats whole rounds of its workload's fixed work and starts no round
that would end past `--seconds`.  Times are scaled to a reference host speed
measured just before and after each job and round (see hostspeed.py).  Every
answer is checked against values the
benchmark computes itself (see oracle.py); a job or query that raises or
answers wrongly counts as failed.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and the metrics, end-to-end
ones with `--trace 0` and per-layer ones with `--trace 1`.  Details of the
run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import hostspeed, oracle  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402

# Enumeration (trees) dominates (2,5), (1,8) and (2,4); Smith normal form
# (intlinalg) is about half of (4,3), which also has 24 Z/2 summands.  (5,2)
# twisted has the order-2 torsion of T_2^inf.  Few cells make many rounds,
# and many rounds make per-cell medians steady.
TREE_GROUP_CELLS = (
    (2, 5, "framed"), (1, 8, "twisted"), (4, 3, "framed"), (2, 4, "twisted"),
    (5, 2, "twisted"),
)
# Cells where solving outweighs enumeration; n = 2 has a nonzero kernel.
ETA_CELLS = ((4, 3), (5, 2), (3, 3), (2, 4), (4, 2))

WORKLOADS = ("tree-groups", "eta-kernels", "clasper-queries")
STREAM_SETUPS = 3  # the stream is set up this many times; setup_s is their median
RUN_LIMIT_S = 170.0  # no process outlives this

# intlinalg entry points that factor a matrix; the warm stream should reach none
FACTORING = ("intlinalg.row_hermite", "intlinalg.smith_normal_form",
             "intlinalg.solve_left", "intlinalg.left_kernel", "intlinalg.invariant_factors")


class SetupError(Exception):
    """The benchmark cannot run here at all."""


def spawn(args, deadline):
    """Run one job process; returns (report or None on time-out, spawn time)."""
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.job", *args], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return None, t_spawn
    if proc.returncode != 0:
        raise SetupError(f"job {' '.join(args)} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


# ---------------------------------------------------------------------------
# cold workloads


def check_cold(workload, cell, result):
    if workload == "tree-groups":
        return oracle.check_group(*cell, result["free_rank"], result["torsion"])
    return oracle.check_eta_kernel(*cell, result["factors"], result["cokernel"], result["lifts"])


def run_cold(workload, seed, seconds, trace, deadline):
    cells = TREE_GROUP_CELLS if workload == "tree-groups" else ETA_CELLS
    kind = "group" if workload == "tree-groups" else "eta"
    rng = random.Random(f"{workload}/{seed}")  # the seed orders the cells in each round
    jobs, rounds = [], 0
    start = time.perf_counter()
    while True:
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            args = [kind, *map(str, cell)] + (["--trace"] if trace else [])
            report, t_spawn = spawn(args, deadline)
            job = {"cell": list(cell), "round": rounds}
            if report is None:
                job["error"] = "timed out"
            elif "error" in report:
                job["error"] = report["error"]
            else:
                f = hostspeed.factor(*report["refs"])
                setup = report["ready"] - t_spawn
                # a user's latency: interpreter start, import and the work
                raw = {"setup_s": setup, "latency_s": setup + report["wall_s"],
                       "wall_s": report["wall_s"], "cpu_s": report["cpu_s"]}
                job.update({key: value * f for key, value in raw.items()})
                job.update(raw=raw, host_factor=f, rss_mb=report["rss_mb"],
                           trace=scale_trace(report["trace"], f))
                problems = check_cold(workload, cell, report["result"])
                if problems:
                    job["wrong"] = problems
            jobs.append(job)
            if report is None:
                return jobs, rounds + 1
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return jobs, rounds


def cold_metrics(jobs):
    """Per-cell medians over rounds, so one slow round moves no metric."""
    done = [j for j in jobs if "wall_s" in j]
    if not done:
        raise SetupError("no job finished")
    by_cell = {}
    for j in done:
        by_cell.setdefault(tuple(j["cell"]), []).append(j)

    def per_cell(key):
        return [statistics.median(j[key] for j in js) for js in by_cell.values()]

    latencies = per_cell("latency_s")
    return {
        "setup_s": (statistics.median(j["setup_s"] for j in done), "s"),
        "wall_s": (sum(per_cell("wall_s")), "s"),
        "cpu_s": (sum(per_cell("cpu_s")), "s"),
        "peak_rss_mb": (max(j["rss_mb"] for j in done), "MB"),
        # fewer than forty jobs: the "p99" of the cold workloads is the slowest cell
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p99_ms": (1000 * max(latencies), "ms"),
    }


# ---------------------------------------------------------------------------
# the warm stream


def run_stream(seed, seconds, trace, deadline):
    """Set the stream up STREAM_SETUPS times; the last process also runs it."""
    setups, raw_setups, rss = [], [], []
    for i in range(STREAM_SETUPS):
        last = i == STREAM_SETUPS - 1
        args = ["stream", str(seed), str(seconds)]
        args += (["--trace"] if trace else []) if last else ["--setup-only"]
        ref = hostspeed.sample()
        report, t_spawn = spawn(args, deadline)
        if report is None:
            raise SetupError("stream timed out")
        # the stream process samples the host itself right after its set-up
        raw_setups.append(report["ready"] - t_spawn)
        setups.append(raw_setups[-1] * hostspeed.factor(ref, report["refs"][0]))
        rss.append(report["rss_mb"])
    report.update(setups_s=setups, raw_setups_s=raw_setups, rss_mb=max(rss))
    if trace:
        f = statistics.median(r["host_factor"] for r in report["rounds"])
        report["trace"] = scale_trace(report["trace"], f)
    return report


def stream_metrics(report):
    rounds = report["rounds"]
    latencies = sorted(x * r["host_factor"] for r in rounds for x in r["latencies"])
    return {
        "setup_s": (statistics.median(report["setups_s"]), "s"),
        "wall_s": (statistics.median(sum(r["latencies"]) * r["host_factor"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] * r["host_factor"] for r in rounds), "s"),
        "peak_rss_mb": (report["rss_mb"], "MB"),
        "query_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "query_p99_ms": (1000 * statistics.quantiles(latencies, n=100)[98], "ms"),
    }


# ---------------------------------------------------------------------------
# per-layer figures


def scale_trace(trace, f):
    """A trace report with its times scaled by the host factor f."""
    if trace is None:
        return None
    return {**trace,
            "self_s": {layer: t * f for layer, t in trace["self_s"].items()},
            "overhead_s": trace["overhead_s"] * f,
            "functions": {name: [calls, t * f] for name, (calls, t) in trace["functions"].items()}}


def layer_metrics(traces, rounds, wall_s):
    """Per-round averages of the traced figures; max_bits is a maximum."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(t["self_s"][layer] for t in traces) / rounds, "s")
        out[f"{layer}.calls"] = (sum(t["calls"][layer] for t in traces) / rounds, "count")
    out["groups.relation_rows"] = (sum(t["relation_rows"] for t in traces) / rounds, "count")
    out["intlinalg.cells_in"] = (sum(t["cells_in"] for t in traces) / rounds, "count")
    out["intlinalg.max_bits"] = (max(t["max_bits"] for t in traces), "bits")
    out["trace.wall_s"] = (wall_s, "s")
    return out


def merged_functions(traces):
    merged = {}
    for t in traces:
        for name, (calls, self_s) in t["functions"].items():
            entry = merged.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    return dict(sorted(merged.items(), key=lambda kv: -kv[1][1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "forestcalc", "__init__.py")):
            raise SetupError(f"no forestcalc sources under {os.path.join(ROOT, 'src')}")
        if args.workload == "clasper-queries":
            report = run_stream(args.seed, args.seconds, args.trace, deadline)
            metrics = stream_metrics(report)
            attempted = sum(len(r["latencies"]) for r in report["rounds"])
            problems = report["problems"]
            traces, rounds = [report["trace"]] if args.trace else [], len(report["rounds"])
            detail = {"rounds": len(report["rounds"]), "setups_s": report["setups_s"],
                      "raw_setups_s": report["raw_setups_s"],
                      "raw_round_walls_s": [sum(r["latencies"]) for r in report["rounds"]],
                      "host_factors": [r["host_factor"] for r in report["rounds"]]}
        else:
            jobs, rounds = run_cold(args.workload, args.seed, args.seconds, args.trace, deadline)
            metrics = cold_metrics(jobs)
            attempted = len(jobs)
            problems = [j for j in jobs if "error" in j or "wrong" in j]
            traces = [j["trace"] for j in jobs if j.get("trace")]
            detail = {"rounds": rounds,
                      "jobs": [{k: v for k, v in j.items() if k != "trace"} for j in jobs]}
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wrong = [p for p in problems if "wrong" in p]
    if args.trace:
        metrics = layer_metrics(traces, rounds, metrics["wall_s"][0])
        functions = merged_functions(traces)
        detail["functions"] = functions
        detail["overhead_s"] = sum(t["overhead_s"] for t in traces) / rounds
        if args.workload == "clasper-queries":
            detail["factoring_calls"] = {f: functions[f][0] for f in FACTORING if f in functions}
    detail["problems"] = problems
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail}, fh, indent=1)
    for p in problems[:10]:
        print(f"perfbench: failed: {json.dumps(p)[:500]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
