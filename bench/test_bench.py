"""Tests of the benchmark itself: corpus determinism, span arithmetic, smoke runs.

    python3 -m pytest -q bench
"""

import json

import pytest

import run
import spans
from run import corpora


@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    build = corpora.WORKLOADS[workload]
    first, again, other = build(3), build(3), build(4)
    assert first.documents == again.documents
    assert first.documents != other.documents
    assert [op.kind for op in first.ops] == [op.kind for op in other.ops]


def test_self_time_on_a_synthetic_span_tree():
    # op [0, 10] > a [1, 6] > b [2, 3], b [4, 5]; op > a [7, 9] (recursion: a inside a at [7.5, 8])
    tree = [
        ["bench.op", 0.0, 10.0, None, 0],
        ["graph_core.a", 1.0, 6.0, 0, 0],
        ["valuation.b", 2.0, 3.0, 1, 0],
        ["valuation.b", 4.0, 5.0, 1, 0],
        ["graph_core.a", 7.0, 9.0, 0, 0],
        ["graph_core.a", 7.5, 8.0, 4, 0],
    ]
    stats = spans.aggregate(tree)
    assert stats["bench.op"].self_s == pytest.approx(10 - 5 - 2)
    assert stats["graph_core.a"].self_s == pytest.approx((5 - 2) + (2 - 0.5) + 0.5)
    assert stats["graph_core.a"].calls == 2  # the nested call is not counted again
    assert stats["graph_core.a"].total_s == pytest.approx(7)
    assert stats["valuation.b"].calls == 2
    assert stats["valuation.b"].total_s == pytest.approx(2)
    layers = spans.layer_self_times(stats)
    assert layers == pytest.approx({"bench": 3, "graph_core": 5, "valuation": 2})
    assert sum(layers.values()) == pytest.approx(10)


def test_install_wraps_definitions_and_imports_and_restore_puts_them_back():
    from graphcake import graph_core, protocols

    original = graph_core.induced_cake
    before = spans.snapshot()
    saved = spans.install(spans.Tracer())
    try:
        assert protocols.induced_cake is graph_core.induced_cake is not original
        assert "graphcake.protocols.induced_cake" in spans.changed(before, spans.snapshot())
    finally:
        spans.restore(saved)
    assert graph_core.induced_cake is original
    assert spans.changed(before, spans.snapshot()) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    for per_pass in (10, 25, 27, 63, 338, 1000):
        samples = run.MIN_PASSES * per_pass
        q = run.tail_percentile(per_pass)
        assert samples * (100 - q) >= 1000
        assert q == 50 or samples * (100 - (q + 1)) < 1000
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(corpora.WORKLOADS))
def test_smoke_run(workload, trace, monkeypatch, capsys, tmp_path):
    full = corpora.WORKLOADS[workload](1)
    tiny = corpora.Corpus(run.smallest_of_each_kind(full.ops), full.documents)
    monkeypatch.setitem(corpora.WORKLOADS, workload, lambda seed: tiny)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(tiny.ops) * (1 + trace)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace:
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 0
        assert list(tmp_path.glob("trace-*.jsonl"))
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_a_wrong_result_counts_as_a_failure():
    from fractions import Fraction

    certificate = next(op for op in corpora.WORKLOADS["oracle-certify"](1).ops if getattr(op, "label", "") == "three_bridge")
    wrong = corpora.GridSearch("three_bridge", certificate.inst, certificate.cfg, Fraction(1, 2))
    star = corpora._fixture("star_tight", n=2)
    unsupported = corpora.CliCall(["solve", "--instance", "-", "--protocol", "prop2"], json.dumps(star.to_json()), 3, 2)
    result = run.run_pass([certificate, wrong, unsupported])
    assert result.outcomes[0] is not None
    assert result.outcomes[1:] == [None, None]
    assert len(result.failures) == 2


def test_scaled_times_use_the_median_reference_loop_around_each_operation(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_WINDOW", 1)
    loop = run.REFERENCE_LOOP_S
    timed = run.Pass(times=[0.1, 0.2, 0.3, 0.4], reference=[loop * k for k in (1, 3, 2, 8, 4)])
    # op 0 sees loops 0-2, op 1 loops 0-3, op 2 loops 1-4, op 3 loops 2-4
    assert timed.scaled() == pytest.approx([0.1 / 2, 0.2 / 2.5, 0.3 / 3.5, 0.4 / 4])
