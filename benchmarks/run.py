"""Benchmark of the `animacy` CLI pipelines on WordNet-shaped synthetic data.

Usage (from the repository root):

    python3 benchmarks/run.py --workload xval --seed 1 --seconds 30 --trace 0

Workloads: xval, wsd-rule, ml-paper, sweep-paper (see workloads.py).

The inputs are generated from --seed into .bench_cache/ (ignored by git).
A run then repeats whole rounds of the workload, each in a fresh Python
process that imports `animacy` from ./src and calls `animacy.cli.main`
in-process, for about --seconds seconds, and reports medians over the
rounds.  Round one's outputs are checked against the benchmark's own
computations (checks.py); later rounds must reproduce them byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics (setup_s, run_s,
peak_rss_mb); --trace 1 gives the per-layer metrics of tracing.METRICS
from traced rounds, and checks their call counts against the inputs.
The spans of the first traced round are kept in
.bench_cache/spans-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")
KEEP_INPUT_SETS = 6
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Fixed for every round: one thread of computation in the BLAS and OpenMP
# pools, and one string-hash seed, so that set and dict iteration order
# (and with it the work done) is the same in every process.
ROUND_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def _prune_cache() -> None:
    """Keep the most recently used input sets only."""
    sets = [os.path.join(CACHE, d) for d in os.listdir(CACHE) if d.startswith("inputs-")]
    sets.sort(key=os.path.getmtime, reverse=True)
    for stale in sets[KEEP_INPUT_SETS:]:
        shutil.rmtree(stale, ignore_errors=True)


def _round(plan: dict, plan_path: str, env: dict) -> dict:
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), plan_path],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(plan["result"], encoding="utf-8") as handle:
        return json.load(handle)


def _digest(out_dir: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "animacy", "cli.py")):
        return _fail(f"no program source at {SRC}/animacy; run from a repository checkout")
    sys.path.insert(0, HERE)
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    os.makedirs(CACHE, exist_ok=True)
    inputs = workloads.prepare(args.workload, args.seed, CACHE)
    _prune_cache()

    env = dict(os.environ, **ROUND_ENV)
    env.pop("PYTHONPATH", None)
    work = os.path.join(CACHE, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # Warm the page cache: the .pyc files of the program and its
        # dependencies, and the input files, are read once before timing.
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                        "import animacy.cli"], env=env, cwd=ROOT, check=True,
                       timeout=ROUND_TIMEOUT_S)
        for path in inputs.files.values():
            with open(path, "rb") as handle:
                handle.read()

        rounds = []
        first_out = None
        start = time.perf_counter()
        while True:
            out_dir = os.path.join(work, f"round{len(rounds)}")
            os.makedirs(out_dir)
            plan = {
                "src": SRC,
                "trace": bool(args.trace),
                "out": out_dir,
                "result": os.path.join(out_dir, "result.json"),
                "calls": workloads.calls(args.workload, inputs.files, out_dir, args.seed),
            }
            began = time.perf_counter()
            result = _round(plan, os.path.join(out_dir, "plan.json"), env)
            result["round_s"] = time.perf_counter() - began
            result["digest"] = _digest(out_dir, checks.OUTPUTS[args.workload])
            rounds.append(result)
            if first_out is None:
                first_out = out_dir
                if args.trace:
                    os.replace(os.path.join(out_dir, "spans.json"), os.path.join(
                        CACHE, f"spans-{args.workload}-seed{args.seed}.json"))
            else:
                shutil.rmtree(out_dir)
            typical = statistics.median(r["round_s"] for r in rounds)
            if time.perf_counter() - start + typical > args.seconds:
                break

        outputs = {}
        for name in checks.OUTPUTS[args.workload]:
            path = os.path.join(first_out, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    outputs[name] = handle.read()
        verdict = checks.Verdict()
        first = rounds[0]
        for i, call in enumerate(first["calls"]):
            if call["exit"] != 0:
                verdict.failed_calls[i] = f"exit code {call['exit']}"
        missing = [n for n in checks.OUTPUTS[args.workload] if n not in outputs]
        if missing:
            verdict.problems.append(f"outputs not written: {missing}")
        else:
            verdict.merge(checks.CHECKS[args.workload](inputs, outputs))
        for r in rounds[1:]:
            if r["digest"] != first["digest"] or [c["exit"] for c in r["calls"]] != [
                    c["exit"] for c in first["calls"]]:
                verdict.problems.append("a later round's outputs differ from round one's")
                break

        metrics = {}
        if args.trace:
            for name in tracing.METRICS:
                values = [r["layers"][name] for r in rounds]
                if name.endswith("_calls"):
                    if len(set(values)) != 1:
                        verdict.problems.append(f"{name} differs between rounds: {values}")
                    metrics[name] = {"value": values[0], "unit": "count"}
                else:
                    metrics[name] = {"value": statistics.median(values), "unit": "s"}
            for name, expected in checks.expected_calls(inputs).items():
                counts = {r["layers"][name] for r in rounds}
                if counts != {expected}:
                    verdict.problems.append(f"{name} is {sorted(counts)}, inputs give {expected}")
        else:
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = {"value": statistics.median(r[name] for r in rounds),
                                 "unit": unit}
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls_per_round = len(rounds[0]["calls"])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_s": [round(r["round_s"], 3) for r in rounds],
        "run_s": [round(r["run_s"], 4) for r in rounds],
        "setup_s": [round(r["setup_s"], 4) for r in rounds],
        "failed_calls": verdict.failed_calls,
        "roundoff_sightings": verdict.roundoff,
        "problems": verdict.problems[:20],
    }), file=sys.stderr)
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": calls_per_round * len(rounds),
        "failed": len(verdict.failed_calls) * len(rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
