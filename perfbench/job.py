"""One benchmark process: a cold job or the warm query stream.

Run from the root of a forestcalc checkout as

    python3 -m perfbench.job group M N FLAVOR [--trace]
    python3 -m perfbench.job eta M N [--trace]
    python3 -m perfbench.job stream SEED SECONDS [--trace] [--setup-only]

It imports forestcalc from the checkout's `src`, does its work and prints one
JSON line.  `ready` is the `time.perf_counter()` reading at the end of
set-up; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
the parent subtracts its own reading taken just before the spawn.  `refs`
holds samples of the host speed (hostspeed.py) taken around the timed code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import forestcalc.cli  # noqa: E402

READY = time.perf_counter()  # a cold job's set-up ends here

if not os.path.abspath(forestcalc.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"forestcalc was imported from {forestcalc.cli.__file__}, not from {SRC}")

from perfbench import hostspeed, oracle, queries  # noqa: E402
from perfbench.tracer import LayerTracer  # noqa: E402


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_group(m, n, flavor):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = forestcalc.cli.main(["group", "--m", str(m), "--order", str(n),
                                    "--flavor", flavor, "--json"])
    if code != 0:
        raise RuntimeError(f"forestcalc group exited with {code}")
    payload = json.loads(out.getvalue())
    return {"free_rank": payload["free_rank"], "torsion": payload["torsion"],
            "generators": len(payload["generators"])}


def run_eta(m, n):
    from forestcalc import eta

    factors, lifts = eta.eta_kernel(m, n)
    torsion, free = eta.eta_cokernel_invariants(m, n)
    return {"factors": factors, "cokernel": [torsion, free], "lifts": [str(f) for f in lifts]}


def cold(kind, params, trace):
    tracer = LayerTracer().install() if trace else None
    ref_before = hostspeed.sample()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        if kind == "group":
            result = run_group(int(params[0]), int(params[1]), params[2])
        else:
            result = run_eta(int(params[0]), int(params[1]))
    except Exception as exc:  # the job failed; the run goes on and counts it
        return {"error": repr(exc)[:300]}
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "result": result,
            "refs": [ref_before, hostspeed.sample()],
            "trace": tracer.report() if tracer else None}


# ---------------------------------------------------------------------------
# the warm stream


class Stream:
    """Closed loop, one client: each query starts when the previous one ends."""

    def __init__(self):
        from forestcalc import eta, forest, groups, magnus, rewrite

        self.parse_forest = forest.parse_forest
        self.build_group = groups.build_group
        self.milnor_from_forest = eta.milnor_from_forest
        self.parse_longitudes = magnus.parse_longitudes
        self.milnor_from_longitudes = magnus.milnor_from_longitudes
        self.monoize_forest = rewrite.monoize_forest

    def build_groups(self):
        for m, n in queries.OBSTRUCT_CELLS:
            self.build_group(m, n, "twisted").snf  # noqa: B018  (factor now)

    def call(self, q):
        """The timed part of a query; returns what the check needs."""
        kind = q["kind"]
        if kind == "normalize":
            f = self.parse_forest(q["text"], q["m"])
            str(f)
            return f
        if kind == "obstruct":
            group = self.build_group(q["m"], q["n"], "twisted")
            return group.is_zero(self.parse_forest(q["text"], q["m"]))
        if kind == "monoize":
            return self.monoize_forest(self.parse_forest(q["text"], q["m"]), q["k"])[0]
        f = self.parse_forest(q["text"], q["m"])
        value = self.milnor_from_forest(f, q["n"], q["k"])
        result = self.milnor_from_longitudes(self.parse_longitudes(q["longitudes"]), k=q["k"])
        return value, result

    def check(self, q, out):
        """Problems with a query's answer, judged without the program's help."""
        kind = q["kind"]
        if kind == "normalize":
            # the reference text is parsed outside the timed window
            ref = self.parse_forest(q["reference"], q["m"])
            if [t for _, t in out.terms] != [t for _, t in ref.terms]:
                return [f"trees {out} != {ref}"]
            for (c, t), (r, _) in zip(out.terms, ref.terms):
                if c != r and not (t.torsion and abs(c) == abs(r)):
                    return [f"coefficient of {t}: {c} != {r}"]
            return []
        if kind == "obstruct":
            return [] if out == q["zero"] else [f"zero test gave {out}, expected {q['zero']}"]
        if kind == "monoize":
            mixed = [str(t) for _, t in out.terms if len(set(oracle.term_labels(t.kind, t.data))) != 1]
            return [f"not mono-labeled: {mixed}"] if mixed else []
        value, result = out
        problems = []
        if result.order != q["n"]:
            problems.append(f"longitudes give order {result.order}, expected {q['n']}")
        elif result.value != value:
            problems.append(f"longitudes give {result.value}, the forest {value}")
        expected = oracle.tensor_eta(oracle.parse_forest(q["text"]), q["k"])
        if oracle.lyndon_tensor(value.coeffs) != expected:
            problems.append(f"milnor_from_forest gives {value}, independent eta differs")
        return problems

    def run_round(self, batch):
        """Time each query of a round; returns (latencies, cpu_s, problems)."""
        latencies, cpu, problems = [], 0.0, []
        for q in batch:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = self.call(q)
            except Exception as exc:  # a query that raises is a failed operation
                latencies.append(time.perf_counter() - t0)
                cpu += time.process_time() - c0
                problems.append({"stratum": q["stratum"], "error": repr(exc)[:300]})
                continue
            latencies.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            found = self.check(q, out)
            if found:
                problems.append({"stratum": q["stratum"], "wrong": found, "text": q["text"]})
        return latencies, cpu, problems


def stream(seed, seconds, trace, setup_only):
    tracer = LayerTracer().install() if trace else None
    s = Stream()
    s.build_groups()
    s.run_round(queries.make_round("warm-up", 0))
    ready = time.perf_counter()
    refs = [hostspeed.sample()]
    if setup_only:
        return {"ready": ready, "refs": refs}
    if tracer is not None:
        tracer.reset()  # per-layer figures cover the timed window only
    report = {"ready": ready, **timed_rounds(s, seed, seconds, refs)}
    report["trace"] = tracer.report() if tracer else None
    return report


def timed_rounds(s, seed, seconds, refs):
    """Whole rounds until the next one would end past `seconds`; at least one.

    `refs` holds a host-speed sample taken just before; one more is taken
    after each round.
    """
    rounds, problems = [], []
    start = time.perf_counter()
    index = 0
    while True:
        batch = queries.make_round(seed, index)
        latencies, cpu, found = s.run_round(batch)
        refs.append(hostspeed.sample())
        rounds.append({"latencies": latencies, "cpu_s": cpu,
                       "host_factor": hostspeed.factor(refs[-2], refs[-1])})
        problems += found
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break
    return {"rounds": rounds, "problems": problems, "refs": refs}


def main(argv):
    trace = "--trace" in argv
    args = [a for a in argv if not a.startswith("--")]
    kind, params = args[0], args[1:]
    if kind in ("group", "eta"):
        report = cold(kind, params, trace)
        report["ready"] = READY
    else:
        report = stream(int(params[0]), float(params[1]), trace, "--setup-only" in argv)
    report["rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
