"""Repeat the benchmark over seeds and summarize, or compare two summaries.

    python3 benchmarks/repeat.py run --seeds 1-10 --out set_a.json
    python3 benchmarks/repeat.py compare set_a.json set_b.json

``run`` invokes ``benchmarks/run.py --trace 0`` once per workload in
``BENCHMARK.json`` and seed, for its ``run_seconds``, one process at a
time, and records for every end-to-end metric the median, the quartiles
and the spread, i.e. the distance between the quartiles as a share of
the median.  ``compare`` checks that no median of the second set is
worse than the first set's by more than the metric's bound in
``BENCHMARK.json``.  Summaries taken on a different Python, numpy,
kernel backend or core count, or with other workloads or run lengths,
are refused, never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV_KEYS = ("python", "numpy", "backend", "nproc", "machine")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return env, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def cmd_run(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": seeds, "seconds": seconds, "env": None, "workloads": {}}
    steady = True
    for name in names:
        per_metric: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in seeds:
            env, result = run_once(name, seed, seconds)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {seed}: incorrect result {result}")
            env = {k: env[k] for k in ENV_KEYS}
            if summary["env"] not in (None, env):
                raise SystemExit(f"environment changed mid-set: {summary['env']} vs {env}")
            summary["env"] = env
            for metric in bounds:
                per_metric[metric].append(result["metrics"][metric]["value"])
        rows = {}
        for metric, values in per_metric.items():
            row = summarize(values)
            row["bound"] = bounds[metric]
            rows[metric] = row
            mark = "ok" if row["spread"] < bounds[metric] / 3 else "WIDE"
            if row["spread"] >= bounds[metric]:
                mark, steady = "OVER BOUND", False
            print(f"{name:<13} {metric:<12} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}"
                  f"  bound {bounds[metric]}  {mark}")
        summary["workloads"][name] = rows
    Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0 if steady else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    if first["env"] != second["env"]:
        raise SystemExit(f"refusing to compare different environments:\n"
                         f"  {first['env']}\n  {second['env']}")
    if (first["seconds"], list(first["workloads"])) != (second["seconds"],
                                                         list(second["workloads"])):
        raise SystemExit("refusing to compare sets of different run lengths or workloads")
    ok = True
    for name, rows in first["workloads"].items():
        for metric, row in rows.items():
            other = second["workloads"][name][metric]["median"]
            change = other / row["median"] - 1.0
            worse = change if better[metric] == "lower" else -change
            verdict = "ok" if worse <= bounds[metric] else "WORSE"
            ok &= verdict == "ok"
            print(f"{name:<13} {metric:<12} {row['median']:.6g} -> {other:.6g} "
                  f"({100 * change:+.2f}%, bound {100 * bounds[metric]:.0f}%) {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
