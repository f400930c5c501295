"""graphcake benchmark: one closed-loop client running a seeded corpus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed (set-up, timed several times),
warms up, then runs whole passes over the corpus, one operation at a time,
until at least S seconds have passed.  A fixed reference loop is timed before
and after every operation and every set-up build, and each time is scaled to
the speed at which that loop takes REFERENCE_LOOP_S, so that a change in the
machine's speed during or between runs cancels out.  Every operation's output
is checked; a failure counts against ``attempted`` and never leaves the timed
set.  The last line of stdout is one JSON object with the metrics that
BENCHMARK.json lists: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The traced run alternates an untraced and a traced
pass and writes its spans to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import graphcake
except ImportError as exc:
    sys.exit(f"bench: cannot import graphcake from {SRC}: {exc}")
if not Path(graphcake.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: graphcake was imported from {graphcake.__file__}, not from {SRC}")

import corpus as corpora  # noqa: E402
import spans  # noqa: E402

# the set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS have passed
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 20
# a set-up build is scaled by the median of this many reference loops before and as many after it
SETUP_LOOPS = 5
# every run makes at least this many passes; the tail percentile is chosen for this many
MIN_PASSES = 3
# reported times are scaled to a machine on which reference_loop() takes this long
REFERENCE_LOOP_S = 0.005
# an operation is scaled by the median of the six loop times within this many operations on
# either side: local enough to follow the machine's speed, wide enough that one slow loop does not matter
REFERENCE_WINDOW = 2
TRACE_DIR = ROOT / ".bench_out"
# layers whose self time the traced run reports as a share of operation time
LAYERS = ("graph_core", "valuation", "protocols", "allocation", "oracle", "cli")


@dataclass
class Pass:
    """Timings and checked outcomes of one pass over the corpus."""

    times: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # loop times before the first and after each operation
    outcomes: list = field(default_factory=list)  # corpus.Outcome, or None when the operation failed
    failures: list[str] = field(default_factory=list)

    def texts(self) -> list[str]:
        return [o.text if o else "" for o in self.outcomes]

    def scaled(self) -> list[float]:
        """Operation times at the reference speed, measured by the loops around each operation."""
        w = REFERENCE_WINDOW
        return [
            t * REFERENCE_LOOP_S / statistics.median(self.reference[max(0, i - w) : i + w + 2])
            for i, t in enumerate(self.times)
        ]


def reference_loop() -> tuple:
    """Fixed work of the kinds graphcake does, on the standard library only: Fraction sums, dict and set updates."""
    total, buckets, seen = Fraction(0), {}, set()
    for k in range(1, 1000):
        total += Fraction(1, k % 97 + 1)
        buckets[k % 50] = buckets.get(k % 50, 0) + k
        seen |= {k % 7, k % 11}
    return total, sorted(buckets.items()), len(seen)


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def run_pass(ops: list, tracer: spans.Tracer | None = None, pass_id: int = 0) -> Pass:
    result = Pass(reference=[time_reference()])
    for i, op in enumerate(ops):
        gc.collect()
        record = tracer.operation((pass_id, i)) if tracer else contextlib.nullcontext()
        raw, error = None, None
        start = perf_counter()
        try:
            with record:
                raw = op.execute()
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=2)
        result.times.append(perf_counter() - start)
        result.reference.append(time_reference())
        if error is None:
            try:
                outcome = op.finish(raw)
                error = "; ".join(outcome.problems) or None
            except Exception:
                error = traceback.format_exc(limit=2)
        result.outcomes.append(None if error else outcome)
        if error:
            result.failures.append(f"operation {i} ({op.kind}): {error.strip()}")
    return result


def smallest_of_each_kind(ops: list) -> list:
    smallest = {}
    for op in ops:
        if op.kind not in smallest or op.edges < smallest[op.kind].edges:
            smallest[op.kind] = op
    return list(smallest.values())


def warm_up(ops: list) -> None:
    """Run the smallest operation of each kind once, untimed and unchecked."""
    for op in smallest_of_each_kind(ops):
        try:
            op.finish(op.execute())
        except Exception:  # the timed passes count and report it
            pass


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in MIN_PASSES passes."""
    return max(50, (100 * MIN_PASSES * per_pass - 1000) // (MIN_PASSES * per_pass))


def set_up(workload: str, seed: int, tracer: spans.Tracer | None):
    """Build the corpus several times and time each build at the reference speed.

    With a tracer, one more build is traced into it.
    """
    times, before = [], [time_reference() for _ in range(SETUP_LOOPS)]
    while len(times) < SETUP_MAX_REPEATS and (len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS):
        corpus = None  # free the previous build before collecting
        gc.collect()
        start = perf_counter()
        corpus = corpora.WORKLOADS[workload](seed)
        elapsed = perf_counter() - start
        after = [time_reference() for _ in range(SETUP_LOOPS)]
        times.append(elapsed * REFERENCE_LOOP_S / statistics.median(before + after))
        before = after
    if tracer is not None:
        saved = spans.install(tracer)
        try:
            with tracer.operation("setup", "bench.setup"):
                corpus = corpora.WORKLOADS[workload](seed)
        finally:
            spans.restore(saved)
    return corpus, times


def per_layer_metrics(
    tracer: spans.Tracer, setup_tracer: spans.Tracer, traced: list[Pass], untraced: list[Pass], first: Pass
) -> dict:
    stats = spans.aggregate(tracer.spans)
    setup_stats = spans.aggregate(setup_tracer.spans)
    count = len(traced)

    def calls(name: str) -> float:
        entry = stats.get(name)
        return entry.calls / count if entry else 0

    def seconds(name: str) -> float:
        entry = stats.get(name)
        return entry.total_s / count if entry else 0.0

    layer_self = spans.layer_self_times(stats)
    base = seconds("bench.op")
    out = {f"{layer}.self_s": layer_self.get(layer, 0.0) / count for layer in LAYERS}
    out.update({f"{layer}.share": out[f"{layer}.self_s"] / base for layer in LAYERS})
    for name in (
        "graph_core.is_contiguous",
        "graph_core.find_bridges",
        "graph_core.split_cycles",
        "graph_core.induced_cake",
        "valuation.restrict",
        "valuation.cut",
        "valuation.eval",
        "allocation.verify",
        "oracle.grid_search",
        "oracle.pair_feasible",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = seconds(name)
    for name in (
        "graph_core.labeling",
        "graph_core.classify",
        "graph_core.piece_components",
        "valuation.from_json",
        "protocols.guarantee_check",
        "oracle.powers3",
    ):
        out[f"{name}.s"] = seconds(name)
    out["allocation.verify_share"] = out["allocation.verify.s"] / base
    out["traced_op_s"] = base
    done = [o for o in first.outcomes if o is not None]
    out["valuation.eval_queries"] = sum(o.eval_queries for o in done)
    out["valuation.cut_queries"] = sum(o.cut_queries for o in done)
    out["cli.output_bytes"] = sum(o.output_bytes for o in done)
    out["output_bits_max"] = max((o.bits for o in done), default=0)
    for name, key in (("fixtures.build", "fixtures.build.s"), ("fixtures.valuations", "fixtures.valuations.s"),
                      ("bench.setup", "fixtures.corpus.s")):
        out[key] = setup_stats[name].total_s if name in setup_stats else 0.0
    out["trace_overhead_ratio"] = sum(sum(p.times) for p in traced) / sum(sum(p.times) for p in untraced)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    before = spans.snapshot()
    tracer = spans.Tracer() if trace else None
    setup_tracer = spans.Tracer() if trace else None  # kept apart so set-up spans stay out of the layer times
    corpus, setup_times = set_up(workload, seed, setup_tracer)
    ops = corpus.ops
    warm_up(ops)
    gc.collect()
    gc.freeze()  # the corpus lives for the whole run; keep it out of every collection

    passes: list[Pass] = []
    traced: list[Pass] = []
    min_passes = 1 if trace else MIN_PASSES  # a traced pass comes with each untraced one
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(run_pass(ops))
        if trace:
            saved = spans.install(tracer)
            try:
                traced.append(run_pass(ops, tracer, len(traced)))
            finally:
                spans.restore(saved)
    after = spans.snapshot()
    untouched = not spans.changed(before, after)

    first = passes[0]
    failures = [f for p in passes + traced for f in p.failures]
    mismatched = sum(1 for p in passes[1:] + traced for a, b in zip(first.texts(), p.texts()) if a and b and a != b)
    failed = len(failures) + mismatched
    attempted = len(ops) * (len(passes) + len(traced))
    digest = hashlib.sha256("\n".join(first.texts()).encode()).hexdigest()
    done = [o for o in first.outcomes if o is not None]
    wall = [t for p in passes for t in p.times]
    latencies = [t for p in passes for t in p.scaled()]
    loops = [r for p in passes for r in p.reference]
    tail = tail_percentile(len(ops))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_per_s": len(ops) / statistics.median(sum(p.scaled()) for p in passes),
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "latency_tail_ms": quantile(latencies, tail / 100) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    print(f"graphcake benchmark: workload {workload}, seed {seed}, closed loop with one client")
    print(
        f"input: {len(ops)} operations per pass, {sum(op.edges for op in ops)} edges and "
        f"{sum(op.agents for op in ops)} agents in total; set-up median of {len(setup_times)}: "
        f"{metrics['setup_s']:.3f} s"
    )
    print(
        f"wall clock: {len(passes)} passes, {len(wall)} operations, {sum(wall):.3f} s inside operations "
        f"(passes {', '.join(f'{sum(p.times):.2f}' for p in passes)} s), p50 {quantile(wall, 0.5) * 1e3:.2f} ms; "
        f"reference loop median {statistics.median(loops) * 1e3:.3f} ms "
        f"(quartiles {quantile(loops, 0.25) * 1e3:.3f}-{quantile(loops, 0.75) * 1e3:.3f}) against {REFERENCE_LOOP_S * 1e3:g} ms"
    )
    print(
        f"at the reference speed: {metrics['throughput_ops_per_s']:.3f} operations/s over the median pass; "
        f"p50 {metrics['latency_p50_ms']:.2f} ms, p{tail} {metrics['latency_tail_ms']:.2f} ms "
        f"({len(latencies)} samples, {len(latencies) * (1 - tail / 100):.1f} beyond p{tail})"
    )
    print(
        f"errors: {failed} of {attempted} operations failed (error_rate {failed / attempted:.4g}); "
        f"{mismatched} outputs differed between passes"
    )
    for failure in failures[:10]:
        print(f"  failed: {failure}")
    if not untouched:
        print(f"  graphcake objects changed during the run: {', '.join(spans.changed(before, after))}")
    print(
        f"digest: sha256 {digest} over {len(ops)} outputs; counters: operations={len(ops)} "
        f"eval_queries={sum(o.eval_queries for o in done)} cut_queries={sum(o.cut_queries for o in done)} "
        f"output_bits_max={max((o.bits for o in done), default=0)}"
    )
    if trace:
        metrics = per_layer_metrics(tracer, setup_tracer, traced, passes, first)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(path)
        setup_tracer.write(TRACE_DIR / f"trace-{workload}-seed{seed}-setup.jsonl")
        shares = ", ".join(f"{layer} {metrics[f'{layer}.share']:.1%}" for layer in LAYERS)
        print(
            f"trace: self-time shares of {metrics['traced_op_s']:.3f} s of traced operations per pass: {shares}; "
            f"verifier {metrics['allocation.verify_share']:.1%}; overhead x{metrics['trace_overhead_ratio']:.2f}; "
            f"{len(tracer.spans)} spans written to {path}"
        )
    return {
        "correct": failed == 0 and untouched,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    section = spec["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
