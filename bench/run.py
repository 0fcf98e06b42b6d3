"""Run one benchmark workload in this process and print its metrics as JSON.

    python3 bench/run.py --workload numbers-cold --seed 1 --seconds 16 --trace 0

The package is imported from the `src/` directory next to this one.  One
thread runs a fixed, seeded batch of operations through the public API
(CLI operations call `k3mukai.cli.main` in this process), then every output
is checked by an independent route outside the timed region.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with `--trace 1` the per-layer ones).

Times are reported in reference seconds.  The speed of a shared host drifts
(one fixed computation took anywhere from 1x to 1.65x its fastest time, in
states lasting tens of seconds), so a fixed reference computation that does
not use k3mukai runs between operations and between set-up repetitions, and
each one's wall time is scaled by PROBE_NOMINAL_S over the median of the
nearest probe times.  The raw figures go to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
from tracing import Tracer
from workloads import GENERATORS, check, negative_control, prepare

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPAN_DIR = HERE / "out"
SETUP_REPEATS = 15
MIN_TAIL_SAMPLES = 40
# the reference computation: Fraction series arithmetic like the package's,
# but frozen here, so no change to k3mukai can alter its cost
PROBE_FACTORS = {Fraction(3, 7): Fraction(5, 3), Fraction(-2, 5): Fraction(7, 2),
                 Fraction(1, 3): Fraction(-1, 2)}
PROBE_ORDER = 34
PROBE_NOMINAL_S = 0.005  # about its time on a 2-core Xeon host, Python 3.11
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 7


def probe() -> tuple[float, float]:
    """(when, seconds) of one run of the reference computation."""
    start = time.perf_counter()
    oracle.binomial_product(PROBE_FACTORS, PROBE_ORDER)
    return start, time.perf_counter() - start


def speed(probes: list[tuple[float, float]], when: float) -> float:
    """Host slowdown at time `when`: the median of the PROBE_WINDOW probe
    times nearest to it, over PROBE_NOMINAL_S."""
    i = bisect.bisect([t for t, _ in probes], when)
    lo = max(0, min(i - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
    window = [s for _, s in probes[lo: lo + PROBE_WINDOW]]
    return statistics.median(window) / PROBE_NOMINAL_S


def fresh_import():
    """Import k3mukai (and its CLI) from scratch, dropping any earlier copy."""
    for name in [m for m in sys.modules if m.split(".")[0] == "k3mukai"]:
        del sys.modules[name]
    api = importlib.import_module("k3mukai")
    importlib.import_module("k3mukai.cli")
    return api


def setup(workload: str, seed: int, seconds: float):
    """Import, build the K3 lattice and the inputs, SETUP_REPEATS times with
    a probe after each; the set-up time is the median repetition in
    reference seconds.  The last repetition's objects are used."""
    times, probes = [], [probe(), probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        api = fresh_import()
        api.k3_lattice()
        ops = GENERATORS[workload](seed, seconds)
        calls = [prepare(api, op) for op in ops]
        times.append((start, time.perf_counter() - start))
        probes.append(probe())
    setup_s = statistics.median(s / speed(probes, t) for t, s in times)
    return api, ops, calls, statistics.median(s for _, s in times), setup_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond
    it; below forty samples that is no tail, and the median stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "k3mukai" / "__init__.py").is_file():
        print(f"error: no k3mukai sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    api, ops, calls, setup_raw, setup_s = setup(args.workload, args.seed, args.seconds)
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported k3mukai from {api.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    outputs, timed, failed = [], [], 0  # timed: (start, raw seconds)
    gc.collect()
    probes = [probe()]
    next_probe = time.perf_counter() + PROBE_EVERY_S
    for i, call in enumerate(calls):
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # one failed operation must not end the run
            failed += 1
            print(f"operation {i} {ops[i]} failed: {exc!r}", file=sys.stderr)
            outputs.append(exc)
            continue
        end = time.perf_counter()
        timed.append((start, end - start))
        outputs.append(out)
        if tracer and ops[i].kind.startswith("cli-"):
            tracer.stdout_bytes += len(out[1].encode())
        if end >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter() + PROBE_EVERY_S
    probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    if not timed:
        print("error: every operation failed", file=sys.stderr)
        return 1
    raw = [s for _, s in timed]
    latencies = [s / speed(probes, t) for t, s in timed]
    throughput = len(latencies) / sum(latencies)

    correct = negative_control(api, args.workload)
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            continue
        try:
            ok = check(api, op, out)
        except Exception as exc:  # a checker that cannot read the output rejects it
            print(f"check of {op} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"wrong output for {op}", file=sys.stderr)
            correct = False

    pct, tail_s = tail(latencies)
    print(f"{args.workload}: {len(ops)} operations, {sum(raw):.2f} s raw busy time, "
          f"raw p50 {statistics.median(raw):.4g} s, raw set-up {setup_raw:.4g} s, "
          f"median slowdown {statistics.median(s for _, s in probes) / PROBE_NOMINAL_S:.3f} "
          f"over {len(probes)} probes, tail = p{pct:.1f} of {len(latencies)} samples",
          file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(throughput)
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    else:
        metrics = {
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
