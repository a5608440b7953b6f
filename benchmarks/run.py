"""The masure benchmark: seeded, closed-loop, single-client query workloads.

One process, one thread; each query starts after the previous one returns.
From the repository root:

    python3 benchmarks/run.py --workload tree --seed 1 --seconds 15 --trace 0

Without ``--workload`` it runs tree, coxeter and series in turn, each in a
fresh interpreter.

``--trace 0`` measures the end-to-end metrics: it runs queries, drawn from
the seed's stream as they are needed, until ``--seconds`` seconds of query
time have passed and the current block of the mix is complete, and checks
each answer with an independent oracle outside the timed region.  Between
queries it measures set-up in fresh interpreters (``setup_probe.py``),
spread over the run, and the machine's speed with a fixed reference kernel
(``reference.py``).  Every time is scaled to the kernel's nominal speed by
the kernel's speed around it; the unscaled times are kept in the result
file.
``--trace 1`` runs a fixed prefix of the same query stream untraced, then
under the layer tracer, and reports the per-layer metrics; its answers must
match the untraced ones.  The last line of standard output is the result as
one JSON object.  The full result, with its provenance, input hash and
realised mix, is written to ``--out`` (default ``benchmarks/out``), with the
spans of a traced run.

Compare two sets of results, e.g. the parent commit's and a change's, run
with the same seeds and settings:

    python3 benchmarks/run.py --compare PARENT_DIR CHANGE_DIR

``baseline.json`` holds this benchmark's first measurement and the holdout
seed on which a claimed gain must also hold.  Self-tests:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from reference import Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11


def git_commit(root: Path) -> str:
    """HEAD of the repository at ``root``; "unknown" outside git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class InputLog:
    """The queries run so far, kept as counts and a running hash: the input
    hash, the realised shares of query kinds and of keys (field, root datum
    or ring), and the share of queries on a root datum seen before."""

    def __init__(self, queries=()):
        self.hash = hashlib.sha256()
        self.kinds, self.keys = Counter(), Counter()
        self.data, self.repeated = set(), 0
        for q in queries:
            self.add(q)

    def add(self, q) -> None:
        from workloads import FRESH

        self.hash.update(repr(q).encode() + b"\n")
        self.kinds[q.kind] += 1
        self.keys[q.key] += 1
        datum = q.args if q.kind == FRESH else q.key
        self.repeated += datum in self.data
        self.data.add(datum)

    def record(self) -> dict:
        n = max(1, sum(self.kinds.values()))
        return {"input_hash": self.hash.hexdigest()[:16], "queries_run": sum(self.kinds.values()),
                "kind_shares": {k: v / n for k, v in sorted(self.kinds.items())},
                "key_shares": {k: v / n for k, v in sorted(self.keys.items())},
                "repeated_datum_share": self.repeated / n}


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(workload: str) -> dict:
    """Set-up in one fresh interpreter, in seconds: as measured ("wall") and
    at the reference's nominal speed ("scaled"); see setup_probe.py."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                           repr(time.monotonic())],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def _checked(name: str, q, ans, fixed) -> bool:
    """Oracle verdict; an answer that raised, or a check that raised, fails."""
    import oracles

    if isinstance(ans, Exception):
        return False
    try:
        return oracles.check(name, q, ans, fixed)
    except Exception:  # a malformed answer fails its check
        return False


def _latency_metrics(latencies) -> dict:
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else \
        list(latencies) * 9
    return {"throughput_qps": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": deciles[8] * 1000}


def closed_loop(name: str, queries, fixed, seconds: float, corrupt=None, probe=None) -> dict:
    """Run queries in order until their summed time reaches ``seconds`` and a
    block is complete, so every run holds whole blocks of the mix, or until
    ``queries`` ends; check each answer right after its query, untimed.
    Between queries the reference kernel keeps up with the query time, and
    ``probe()``, if given, measures set-up SETUP_REPEATS times, spread evenly
    over the run.  Times are reported at the reference's nominal speed, each
    scaled by the reference's speed around it.
    ``corrupt(i, answer)`` may replace an answer before its check."""
    from workloads import WORKLOADS

    run, block = WORKLOADS[name].run, WORKLOADS[name].block
    starts, latencies = array("d"), array("d")
    log = InputLog()
    ref = Reference()
    probes = []
    failed = 0
    busy = 0.0
    clock = time.perf_counter
    queries = iter(queries)
    gc.collect()
    while busy < seconds or len(latencies) % block:
        if probe is not None and len(probes) < SETUP_REPEATS \
                and busy >= len(probes) * seconds / SETUP_REPEATS:
            probes.append(probe())
        q = next(queries, None)
        if q is None:
            break
        log.add(q)
        start = clock()
        try:
            ans = run(q, fixed)
        except Exception as exc:  # a query that raises counts as failed
            ans = exc
        dt = clock() - start
        busy += dt
        ref.keep_up(busy)
        if corrupt is not None:
            ans = corrupt(len(latencies), ans)
        starts.append(start)
        latencies.append(dt)
        if not _checked(name, q, ans, fixed):
            failed += 1
    scaled = [dt * f for dt, f in zip(latencies, ref.factors(starts, latencies))]
    n = len(latencies)
    stats = {
        "attempted": n, "failed": failed, "busy_s": busy, "reference_units": len(ref.times),
        "failed_ratio": failed / n,
        **_latency_metrics(scaled),
        "unscaled": _latency_metrics(latencies),
        **log.record(),
    }
    if probes:
        stats["setup_probes"] = probes
        stats["setup_s"] = statistics.median(p["scaled"] for p in probes)
        stats["unscaled"]["setup_s"] = statistics.median(p["wall"] for p in probes)
    return stats


def answer_all(name: str, queries, fixed, tracer=None) -> tuple[list, float]:
    """Every query's answer (or the exception it raised) and the summed time."""
    from workloads import WORKLOADS

    run = WORKLOADS[name].run
    out, busy = [], 0.0
    clock = time.perf_counter
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qid
        start = clock()
        try:
            ans = run(q, fixed)
        except Exception as exc:  # recorded; fails its check
            ans = exc
        busy += clock() - start
        out.append(ans)
    return out, busy


def traced_run(name: str, queries, fixed) -> tuple[dict, int, "LayerTracer"]:
    """Per-layer metrics of one untraced and one traced pass over ``queries``,
    and the number of queries that failed their check or differed between
    the two passes."""
    from layertrace import LayerTracer

    gc.collect()
    plain, plain_s = answer_all(name, queries, fixed)
    gc.collect()
    with LayerTracer() as tracer:
        traced, traced_s = answer_all(name, queries, fixed, tracer)
    failed = sum(1 for q, a, b in zip(queries, plain, traced)
                 if repr(a) != repr(b) or not _checked(name, q, b, fixed))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return metrics, failed, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="tree, coxeter or series; all runs each in its own interpreter")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out"), help="directory for result files")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if args.compare:
        from compare import compare

        return compare(json.loads(spec_path.read_text()), *args.compare)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import masure.cli  # noqa: F401  (pulls in every module)
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import masure from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        queries = wl.generate(args.seed, max(1, math.ceil(args.seconds * wl.trace_qps)))
        fixed = wl.fixed()
        metrics, failed, tracer = traced_run(args.workload, queries, fixed)
        tracer.write_spans(f"{stem}.spans.csv.gz")
        names = [m["name"] for m in spec["per_layer"]]
        extra = {"exact_counts": tracer.exact_counts(), **InputLog(queries).record()}
        attempted = len(queries)
    else:
        setup_probe(args.workload)  # may compile bytecode; not counted
        fixed = wl.fixed()
        stats = closed_loop(args.workload, wl.stream(args.seed), fixed, args.seconds,
                            probe=lambda: setup_probe(args.workload))
        metrics = {k: stats[k] for k in ("setup_s", "throughput_qps", "latency_p50_ms",
                                         "latency_p90_ms")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        names = [m["name"] for m in spec["end_to_end"]]
        failed, attempted = stats["failed"], stats["attempted"]
        extra = {k: v for k, v in stats.items() if k not in metrics}
        print(f"{args.workload:8s} {'failed_ratio':42s} {stats['failed_ratio']:12.6g} fraction")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}
    record = {"provenance": provenance(args), "result": result, **extra}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for n in names:
        print(f"{args.workload:8s} {n:42s} {metrics[n]:12.6g} {units[n]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
