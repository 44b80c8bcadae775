"""Benchmark for ``hdcow``: one workload per invocation, closed loop.

    python3 benchmarks/run.py --workload session_ref --seed 1 --seconds 20 --trace 0

``--trace 0`` times calls for ``--seconds`` seconds and reports the
end-to-end metrics named in ``BENCHMARK.json``; the gated call time is
the 95th percentile, which on a shared host is far steadier from run to
run than the median (see README.md).  ``--trace 1`` runs a
fixed number of calls, each once plain and once with spans around the
layers of ``hdcow``, and reports the per-layer metrics, the tracing
overhead and how much of the wall time the spans account for.

Human-readable report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, and in a traced run every span, are written
under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 9
# Calls per traced run; fixed so that every count repeats exactly for a seed.
TRACE_CALLS = {"session_ref": 10, "session_wide": 6, "rates": 4}


def call_seed(seed: int, k: int) -> int:
    return seed * 1_000_000 + k


def p95(values: list[float]) -> float:
    """95th percentile, interpolated between the samples around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as
    ``(percentile, value)``; None when it would not lie above the median."""
    n = len(values)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def setup_sample(name: str) -> float:
    """Time from starting a fresh interpreter until the workload's inputs
    are built, i.e. until its first call could be timed."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def environment(args) -> dict:
    import numpy

    import hdcow
    import hdcow.kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hdcow": hdcow.__version__,
        "backend": hdcow.kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<34} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def run_plain(workload, args) -> dict:
    # Set-up samples are taken between calls, spread over the run, so
    # that their median sees the same host load as the calls do.
    setup = [setup_sample(workload.name)]
    spacing = args.seconds / SETUP_SAMPLES
    workload.call(call_seed(args.seed, 0))  # warm-up, not timed
    walls, works, sifted, rates_parts, secure = [], 0, 0, [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds or attempted == 0:
        if time.perf_counter() - start >= len(setup) * spacing:
            setup.append(setup_sample(workload.name))
        k += 1
        attempted += 1
        try:
            result = workload.call(call_seed(args.seed, k))
        except Exception as exc:  # a failed call counts against fail_frac
            failed += 1
            problems.append(f"call {k}: {type(exc).__name__}: {exc}")
            continue
        found = workload.check(result)
        if found:
            failed += 1
            problems.extend(f"call {k}: {p}" for p in found)
            continue
        walls.append(result.wall_s)
        works += workload.work(result)
        if workload.kind == "session":
            sifted += result.sifted
            secure.append(result.alice.secure_bits_per_second)
        else:
            rates_parts.append((result.sweep_s, result.threshold_s))
        del result
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload.name))
    setup_s = statistics.median(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(walls)
    total = sum(walls)
    p50 = statistics.median(walls) if walls else 0.0
    work_per_s = works / total if total else 0.0
    metrics = {
        "setup_s": setup_s,
        # 0 only when every call failed, which also makes the run incorrect.
        "call_p95_s": p95(walls) if walls else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"# {workload.name}: {n} timed calls in {time.perf_counter() - start:.2f} s")
    report("setup_s", setup_s, "s", f"median of {len(setup)} fresh interpreters")
    report("fail_frac", failed / attempted, "", f"{failed} of {attempted} calls")
    report("peak_rss_mb", peak_rss_mb, "MB")
    t = tail(walls)
    if workload.kind == "session":
        report("slots_per_s", work_per_s, "1/s")
        report("sifted_per_s", sifted / total if total else 0.0, "1/s", f"{sifted} sifted qudits")
        report("session_p50_s", p50, "s", f"n={n}")
        report("session_p95_s", metrics["call_p95_s"], "s", f"n={n}")
        if t:
            report("session_tail_s", t[1], "s", f"p{t[0]:.0f} of n={n}")
        optimum = model_optimum(workload)
        above = sum(s > optimum for s in secure)
        print(f"# secure_bits_per_second per session (alice), model optimum "
              f"{optimum:.6g} (hdcow optimize), {above} of {len(secure)} above it:")
        print("#   " + " ".join(f"{s:.6g}" for s in secure))
    else:
        sweeps = [s for s, _ in rates_parts]
        thresholds = [h for _, h in rates_parts]
        report("sweep_s", statistics.median(sweeps) if sweeps else 0.0, "s", f"n={n}")
        report("threshold_s", statistics.median(thresholds) if thresholds else 0.0,
               "s", f"n={n}")
        report("rates_call_p50_s", p50, "s", f"n={n}")
        report("rates_call_p95_s", metrics["call_p95_s"], "s", f"n={n}")
        if t:
            report("rates_call_tail_s", t[1], "s", f"p{t[0]:.0f} of n={n}")
        report("points_per_s", work_per_s, "1/s")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "walls": walls,
    }


def model_optimum(workload) -> float:
    from workloads import model_optimum_bits_per_second

    return model_optimum_bits_per_second(workload.config)


def run_traced(workload, args) -> dict:
    from tracing import WAIT_SPANS, Tracer, call_counts, instrumented

    calls = TRACE_CALLS[workload.name]
    self_s: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    extra: dict[str, float] = defaultdict(float)
    first_counts = None
    attempted = failed = 0
    problems: list[str] = []
    spans = []
    ratios = []  # traced over plain wall, per call
    missing: set[str] = set()

    def traced(*targets):
        # An identity over counts of a target that is gone cannot be checked.
        return missing.isdisjoint(f"hdcow.{t}" for t in targets)

    def traced_call(seed):
        tracer = Tracer()
        with instrumented(tracer), tracer.span("bench.call") as root:
            tracer.root = root
            result = workload.call(seed)
        missing.update(tracer.missing)
        return tracer, result

    for k in range(calls):
        seed = call_seed(args.seed, k)
        attempted += 1
        try:
            # Alternate which goes first, so neither always runs warm.
            if k % 2 == 0:
                plain = workload.call(seed)
                tracer, result = traced_call(seed)
            else:
                tracer, result = traced_call(seed)
                plain = workload.call(seed)
        except Exception as exc:
            failed += 1
            problems.append(f"call {k}: {type(exc).__name__}: {exc}")
            continue
        found = workload.check(result) + workload.check(plain)
        if workload.fingerprint(plain) != workload.fingerprint(result):
            found.append("traced and untraced outputs differ")
        counted = call_counts(tracer)
        if workload.kind == "session":
            wire_bytes = len(result.transcript.wire_bytes())
            encoded = sum(v for key, v in counted.items()
                          if key.startswith("wire.encode.") and key.endswith(".bytes"))
            if traced("session.encode_message") and encoded != wire_bytes:
                found.append(f"encoded bytes {encoded} != transcript wire bytes {wire_bytes}")
            if (traced("session.decode_frame")
                    and counted["channel.decode_frame.kept"] != result.sifted):
                found.append(f"decode_frame kept {counted['channel.decode_frame.kept']}"
                             f" != alice sifted {result.sifted}")
            if (traced("session.transmit_frame", "channel.dead_time_filter",
                       "session.decode_frame")
                    and counted["kernels.dead_time_filter.data_kept"]
                    != counted["channel.decode_frame.clicks"]):
                found.append("data-detector dead_time_filter kept != decode_frame clicks")
            extra["session.messages"] += sum(
                1 for direction, _ in result.transcript.entries
                if direction != result.transcript.QUANTUM)
            extra["session.wire_bytes"] += wire_bytes
        if k == 0:
            first_counts = counted
        if found:
            failed += 1
            problems.extend(f"call {k}: {p}" for p in found)
        call_self = tracer.self_times()
        del call_self["bench.call"]
        for name, value in call_self.items():
            self_s[name] += value
        counts.update(counted)
        call_wall = next(end - start for _, name, start, end, _, _ in tracer.spans
                         if name == "bench.call")
        extra["trace.wall_s"] += call_wall
        extra["trace.untraced_wall_s"] += plain.wall_s
        ratios.append(call_wall / plain.wall_s)
        extra["trace.busy_s"] += sum(v for n, v in call_self.items() if n not in WAIT_SPANS)
        extra["trace.idle_s"] += tracer.idle_s()
        spans.append(tracer.spans)

    # Counts must repeat exactly for one seed: trace the first call again.
    if first_counts is not None:
        attempted += 1
        again = call_counts(traced_call(call_seed(args.seed, 0))[0])
        if again != first_counts:
            failed += 1
            diff = {k: (first_counts[k], again[k])
                    for k in set(first_counts) | set(again) if first_counts[k] != again[k]}
            problems.append(f"counts differ between two traced runs of one seed: {diff}")

    wall = extra["trace.wall_s"]
    extra["trace.unexplained_s"] = wall - extra["trace.busy_s"] - extra["trace.idle_s"]
    extra["trace.unexplained_frac"] = extra["trace.unexplained_s"] / wall if wall else 0.0
    untraced = extra["trace.untraced_wall_s"]
    # A median of per-call ratios: on a busy host single calls swing by 10-20%.
    extra["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0

    values: dict[str, float] = dict(counts)
    for name, value in self_s.items():
        values[f"{name}.self_s"] = value
    for name in WAIT_SPANS:
        values[f"{name}_s"] = self_s.get(name, 0.0)
    values.update(extra)

    print(f"# {workload.name}: {calls} calls, each plain and traced")
    for target in sorted(missing):
        print(f"# trace target not found, its metrics read 0: {target}")
    print(f"#   traced wall {wall:.4f} s, untraced wall {untraced:.4f} s, "
          f"overhead {100 * extra['trace.overhead_frac']:.1f}% (median of per-call ratios)")
    print(f"#   busy (self times, no waits) {extra['trace.busy_s']:.4f} s + "
          f"both endpoints waiting {extra['trace.idle_s']:.4f} s; unexplained "
          f"{extra['trace.unexplained_s']:.4f} s ({100 * extra['trace.unexplained_frac']:.1f}%"
          " of traced wall)")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "values": values,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import SRC, WORKLOADS

    import hdcow

    if not Path(hdcow.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hdcow imported from {hdcow.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    workload.build()

    if args.trace:
        outcome = run_traced(workload, args)
        declared = spec["per_layer"]
        values = outcome["values"]
        for m in declared:
            values.setdefault(m["name"], 0)
        idle = [m["name"] for m in declared if values[m["name"]] == 0]
        if idle:
            print("# not exercised by this workload: " + " ".join(idle))
    else:
        outcome = run_plain(workload, args)
        declared = spec["end_to_end"]
        values = outcome["metrics"]
    for problem in outcome["problems"][:20]:
        print("# FAILED " + problem)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "result": result, "problems": outcome["problems"]}
    if args.trace:
        record["per_layer_all"] = outcome["values"]
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for call, spans in enumerate(outcome["spans"]):
                for sid, name, start, end, parent, thread in spans:
                    fh.write(json.dumps({"call": call, "id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent, "thread": thread}) + "\n")
    else:
        record["call_walls_s"] = outcome["walls"]
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
