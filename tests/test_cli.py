import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcake.cli import main
from graphcake.errors import CakeError, MalformedInput
from graphcake.fixtures import FAMILIES, FixtureSpec, build_fixture, random_instance
from graphcake.protocols import PROTOCOL_NAMES
from graphcake.valuation import Instance, Segment, Valuation

F = Fraction
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, stdin_text=None):
    # the child imports graphcake from this checkout, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphcake.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


@pytest.fixture()
def star2_file(tmp_path):
    inst = build_fixture(FixtureSpec("star_tight", {"n": 2}))
    path = tmp_path / "star2.json"
    path.write_text(json.dumps(inst.to_json()))
    return str(path)


def test_fixture_list():
    proc = run_cli(["fixture", "list"])
    assert proc.returncode == 0
    assert "star_tight" in json.loads(proc.stdout)["fixtures"]


def test_fixture_build_then_solve_pipe():
    built = run_cli(["fixture", "build", "star_tight", "-p", "n=2"])
    assert built.returncode == 0
    solved = run_cli(
        ["solve", "--instance", "-", "--protocol", "egal"], stdin_text=built.stdout
    )
    assert solved.returncode == 0
    payload = json.loads(solved.stdout)
    assert payload["report"]["egalitarian"] == "1/3"
    assert payload["report"]["complete"] is True
    assert payload["queries"]["cut"] >= 1


def test_solve_output_is_byte_identical(star2_file):
    a = run_cli(["solve", "--instance", star2_file, "--protocol", "egal"])
    b = run_cli(["solve", "--instance", star2_file, "--protocol", "egal"])
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_solve_with_params(star2_file):
    proc = run_cli(
        ["solve", "--instance", star2_file, "--protocol", "flex2", "-p", "alpha=1/4"]
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "alpha_agent" in payload


def test_solve_then_verify_round_trip(star2_file, tmp_path):
    solved = run_cli(["solve", "--instance", star2_file, "--protocol", "fixed2"])
    allocation = json.loads(solved.stdout)["allocation"]
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps(allocation))
    verified = run_cli(
        ["verify", "--instance", star2_file, "--allocation", str(alloc_path)]
    )
    assert verified.returncode == 0
    report = json.loads(verified.stdout)
    assert report == json.loads(solved.stdout)["report"]


def test_classify_and_dot(star2_file, tmp_path):
    dot_path = tmp_path / "g.dot"
    proc = run_cli(["classify", "--instance", star2_file, "--dot", str(dot_path)])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["almost_bridgeless"] is False
    assert payload["obstruction_bridges"] == ["e0", "e1", "e2"]
    text = dot_path.read_text()
    assert "style=dashed" in text and '"c" -- "l0"' in text


def test_classify_writes_no_json_when_the_dot_path_cannot_be_opened(capsys, star2_file, tmp_path):
    dot_path = tmp_path / "missing" / "g.dot"
    assert main(["classify", "--instance", star2_file, "--dot", str(dot_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not dot_path.parent.exists()


def test_label_refusal_is_structured(star2_file):
    proc = run_cli(["label", "--instance", star2_file])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["labeling"] is None


def test_label_on_cycle():
    gen = run_cli(["gen", "--seed", "5", "-p", "family=cycle-augmented", "-p", "edges=5"])
    lab = run_cli(["label", "--instance", "-"], stdin_text=gen.stdout)
    assert lab.returncode == 0
    assert json.loads(lab.stdout)["labeling"] is not None


def test_gen_deterministic():
    a = run_cli(["gen", "--seed", "9", "-p", "n=3", "-p", "edges=6"])
    b = run_cli(["gen", "--seed", "9", "-p", "n=3", "-p", "edges=6"])
    assert a.stdout == b.stdout


def test_oracle_command(star2_file):
    proc = run_cli(
        ["oracle", "--instance", star2_file, "--grid", "6", "--objective", "egal"]
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["optimum"] == "1/3"


def test_oracle_pair_command(star2_file):
    proc = run_cli(
        [
            "oracle",
            "--instance",
            star2_file,
            "--grid",
            "6",
            "--pair",
            "1/2,1/2",
            "--strict-first",
        ]
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["feasible"] is False


def test_lemma_command():
    proc = run_cli(["lemma", "powers3", "-t", "2", "--window=-3:1"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["holds"] is True and payload["min_gap"] == "1/18"


def test_bipolar_command(star2_file, tmp_path):
    proc = run_cli(["bipolar", "--instance", star2_file])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"numbering": None}
    cycle = tmp_path / "cycle.json"
    cycle.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["e0", "a", "b"], ["e1", "b", "c"], ["e2", "c", "a"]],
            }
        )
    )
    proc = run_cli(["bipolar", "--instance", str(cycle)])
    assert json.loads(proc.stdout) == {"numbering": {"a": 1, "b": 3, "c": 2}}
    proc = run_cli(["classify", "--instance", str(cycle)])
    payload = json.loads(proc.stdout)
    assert payload["almost_bridgeless"] is True and len(payload["add_edge_between"]) == 2


def test_usage_errors_exit_one(star2_file, tmp_path):
    assert run_cli(["solve", "--instance", star2_file]).returncode == 1
    assert run_cli(["nope"]).returncode == 1
    missing = str(tmp_path / "missing.json")
    assert run_cli(["classify", "--instance", missing]).returncode == 1
    # protocol precondition errors, malformed -p values and a missing fixture
    # name also exit 1, with an "error:" line rather than a traceback
    for args in (
        ["solve", "--instance", star2_file, "--protocol", "chore2"],
        ["solve", "--instance", star2_file, "--protocol", "flex2", "-p", "alpha=1/0"],
        ["solve", "--instance", star2_file, "--protocol", "flex2", "-p", "alpha"],
        ["fixture", "build", "frontier_edge", "-p", "alpha=1/0"],
        ["fixture", "build"],
    ):
        proc = run_cli(args)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: "), (args, proc.stderr)


def test_solve_rejects_parameters_outside_the_protocols_schema(capsys, star2_file):
    assert main(["solve", "--instance", star2_file, "--protocol", "egal", "-p", "bogus=1"]) == 1
    assert capsys.readouterr().err == "error: egal got unknown parameters: bogus\n"
    assert main(["solve", "--instance", star2_file, "--protocol", "height2", "-p", "root=c"]) == 0


def test_solve_reads_an_empty_height2_root_as_a_vertex_name(capsys, star2_file):
    # the star has no vertex named "", so that root is refused, not replaced
    assert main(["solve", "--instance", star2_file, "--protocol", "height2", "-p", "root="]) == 1
    assert capsys.readouterr().err == "error: graph is not a tree of height at most two from ''\n"


def test_oracle_rejects_negative_budgets(capsys, star2_file):
    oracle = ["oracle", "--instance", star2_file, "--grid", "2"]
    for extra, message in (
        (["--budget", "-5"], "state budget must be nonnegative, got -5"),
        (["--pieces", "-1"], "piece budget must be nonnegative, got -1"),
        (["--pair", "1/2,1/4", "--budget", "-5"], "state budget must be nonnegative, got -5"),
    ):
        assert main(oracle + extra) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    # a budget of zero is a budget: the search stops at its first state
    assert main(oracle + ["--budget", "0"]) == 1
    assert capsys.readouterr().err == "error: search exceeded the state budget of 0\n"


def test_gen_rejects_unknown_parameters(capsys):
    assert main(["gen", "--seed", "1", "-p", "bogus=3"]) == 1
    assert capsys.readouterr().err == "error: gen got unknown parameters: bogus\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--seed", "1", "-p", "n=2.5"], "gen parameter n='2.5' is not a valid value"),
        (["gen", "--seed", "1", "-p", "edges=True"], "gen parameter edges='True' is not a valid value"),
        (
            ["fixture", "build", "star_tight", "-p", "n=2.5"],
            "fixture 'star_tight' parameter n='2.5' is not a valid value",
        ),
        (
            ["fixture", "build", "frontier_edge", "-p", "alpha=6e-1"],
            "fixture 'frontier_edge' parameter alpha='6e-1' is not a valid value",
        ),
    ],
    ids=["gen-fractional-n", "gen-boolean-edges", "fixture-fractional-n", "fixture-exponent-alpha"],
)
def test_parameter_errors_name_the_parameter(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_entry_in_process(capsys, star2_file):
    code = main(["classify", "--instance", star2_file])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["almost_bridgeless"] is False


def _edge_instance(**overrides):
    doc = {
        "graph": {"vertices": ["a", "b"], "edges": [["e0", "a", "b"]]},
        "mode": "cake",
        "agents": [{"e0": [["0", "1"]]}],
    }
    doc.update(overrides)
    return doc


_STAR2 = build_fixture(FixtureSpec("star_tight", {"n": 2})).to_json()


class _Raw(str):
    """A document written as it is, not through ``json.dumps``."""


# deeper than the JSON decoder's recursion limit; json.dumps cannot build it
_DEEP = _Raw("[" * 100_000 + "]" * 100_000)


# the third field is the allocation document for verify and the arguments for oracle;
# classify, label and bipolar read a bare graph or an instance document
@pytest.mark.parametrize(
    "command, instance, extra",
    [
        ("solve", _edge_instance(agents=[{"e0": [["0", "1/0"]]}]), None),
        ("solve", {"mode": "cake", "agents": []}, None),
        ("solve", _edge_instance(graph={"vertices": ["a", "b"]}), None),
        (
            "solve",
            _edge_instance(
                graph={"vertices": ["a", "b", "c"], "edges": [[0, "a", "b"], ["e1", "b", "c"]]},
                agents=[{"e1": [["0", "1"]]}],
            ),
            None,
        ),
        (
            "solve",
            _edge_instance(
                graph={"vertices": ["a", 1], "edges": [["e0", "a", 1]]},
                agents=[{"e0": [["0", "1"]]}] * 2,
            ),
            None,
        ),
        ("solve", _edge_instance(graph={"vertices": "ab", "edges": [["e0", "a", "b"]]}), None),
        ("solve", _edge_instance(graph={"vertices": ["a", "b"], "edges": ["e0ab"]}), None),
        ("solve", _edge_instance(agents=[[["0", "1"]]]), None),
        ("solve", _edge_instance(agents=[{"e0": ["01"]}]), None),
        ("solve", [], None),
        ("solve", _edge_instance(agents=[]), None),
        ("verify", _edge_instance(), [5]),
        ("verify", _edge_instance(), [[5]]),
        ("verify", _edge_instance(), [[["e0", 0.5, "1"]]]),
        ("verify", _edge_instance(), [[["e0", True, "1"]]]),
        ("verify", _edge_instance(), [[[1, "0", "1"], ["e0", "0", "1"]]]),
        ("verify", _edge_instance(), [[[[1], "0", "1"]]]),
        ("verify", _edge_instance(), 5),
        (
            "verify",
            _edge_instance(graph={"vertices": ["a", "b"], "edges": [["e", "a", "b"]]}, agents=[{"e": [["0", "1"]]}]),
            [["e01"]],
        ),
        ("oracle", _STAR2, ["--grid", "0", "--pair", "1/2,1/4"]),
        ("oracle", _STAR2, ["--grid", "0"]),
        ("oracle", _STAR2, ["--grid", "4", "--pair", "1/2"]),
        ("oracle", _STAR2, ["--grid", "4", "--pair", "1/2,1/4,1/8"]),
        ("solve", _DEEP, None),
        ("verify", _edge_instance(), _DEEP),
        ("classify", 7, None),
        ("classify", None, None),
        ("label", None, None),
        ("bipolar", 7, None),
    ],
    ids=[
        "zero-denominator",
        "no-graph",
        "no-edges",
        "graph-edge-id-a-number",
        "graph-vertex-id-a-number",
        "graph-vertices-a-string",
        "graph-edge-a-string",
        "valuation-not-a-map",
        "valuation-pair-a-string",
        "instance-not-a-map",
        "no-agents",
        "allocation-of-a-number",
        "piece-of-a-number",
        "float-position",
        "bool-position",
        "edge-id-a-number",
        "edge-id-a-list",
        "allocation-not-a-list",
        "piece-triple-a-string",
        "pair-search-on-grid-zero",
        "grid-search-on-grid-zero",
        "pair-of-one-threshold",
        "pair-of-three-thresholds",
        "instance-nested-too-deeply",
        "allocation-nested-too-deeply",
        "classify-a-number",
        "classify-null",
        "label-null",
        "bipolar-a-number",
    ],
)
def test_malformed_input_exits_one_without_traceback(tmp_path, capsys, command, instance, extra):
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(instance if isinstance(instance, _Raw) else json.dumps(instance))
    argv = [command, "--instance", str(inst_path)]
    if command == "solve":
        argv += ["--protocol", "egal"]
    elif command == "oracle":
        argv += extra
    elif command == "verify":
        alloc_path = tmp_path / "allocation.json"
        alloc_path.write_text(extra if isinstance(extra, _Raw) else json.dumps(extra))
        argv += ["--allocation", str(alloc_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--grid", "0", "--pair", "1/2,1/4"], "error: grid denominator must be at least 1"),
        (["--grid", "4", "--pair", "1/2"], "error: --pair needs two thresholds 'a,b'"),
        (["--grid", "4", "--pair", "1/2,1/4,1/8"], "error: --pair needs two thresholds 'a,b'"),
    ],
    ids=["grid-zero", "one-threshold", "three-thresholds"],
)
def test_oracle_argument_errors_name_the_problem(star2_file, capsys, args, message):
    assert main(["oracle", "--instance", star2_file, *args]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("window", ["3", "1:2:3", "a:b"])
def test_lemma_window_errors_name_the_problem(capsys, window):
    assert main(["lemma", "powers3", "-t", "2", f"--window={window}"]) == 1
    assert capsys.readouterr().err == "error: --window needs 'lo:hi' integers\n"


def test_lemma_over_the_budget_fails_before_it_searches(capsys):
    # C(15, 6) * 4^6 assignments, over the default budget of ten million
    start = time.perf_counter()
    assert main(["lemma", "powers3", "-t", "6", "--window=-5:4"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: 20500480 assignments exceed the state budget of 10000000\n"
    )


def test_multi2_over_its_piece_budget_bound_fails_at_once(star2_file, capsys):
    # each round triples the denominators, so this k would run for hours
    start = time.perf_counter()
    argv = ["solve", "--instance", star2_file, "--protocol", "multi2", "-p", "k=99999999999999999999"]
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: piece budget k must be at most 100: each extra piece triples the exact denominators\n"
    )


def test_oracle_over_its_atom_cap_fails_at_once(star2_file, capsys):
    start = time.perf_counter()
    assert main(["oracle", "--instance", star2_file, "--grid", "1000000"]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a grid of 1000000 on 3 edges has 3000000 atoms; the oracle takes at most 4096")


def test_param_lists_do_not_leak_between_main_calls(capsys):
    # main reuses one parser, so each call must start from an empty -p list
    assert main(["gen", "--seed", "1", "-p", "n=3", "-p", "edges=5"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["gen", "--seed", "1"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert (len(first["agents"]), len(first["graph"]["edges"])) == (3, 5)
    assert (len(second["agents"]), len(second["graph"]["edges"])) == (2, 4)


# -- corrupted documents -----------------------------------------------------------

CORRUPTIONS = ["drop", "wrong-type", "bad-fraction", "negative-density", "unknown-edge"]
WRONG_TYPES = [None, 7, -1, 1.5, True, "x", [], {}, [[]], {"k": 1}]
BAD_FRACTIONS = ["1/0", "abc", "", "1//2", "1/2/3", "0.5", "-", "inf", " 1 / 2 "]


def _positions(node, prefix=()):
    """Every position below the root of a JSON document, as a key/index path."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _positions(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def corrupted_instances(draw):
    """A seeded instance document (m <= 12) with one corruption."""
    doc = random_instance(
        draw(st.integers(0, 30)),
        n=draw(st.integers(1, 3)),
        family=draw(st.sampled_from(FAMILIES)),
        edges=draw(st.integers(1, 12)),
        mode=draw(st.sampled_from(["cake", "chore"])),
    ).to_json()
    kind = draw(st.sampled_from(CORRUPTIONS))
    fractions = [p for p in _positions(doc) if p[0] == "agents" and len(p) == 5]
    if kind in ("drop", "wrong-type"):
        path = draw(st.sampled_from(list(_positions(doc))))
        if kind == "drop":
            del _parent(doc, path)[path[-1]]
        else:
            _parent(doc, path)[path[-1]] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "bad-fraction":
        path = draw(st.sampled_from(fractions))
        _parent(doc, path)[path[-1]] = draw(st.sampled_from(BAD_FRACTIONS))
    elif kind == "negative-density":
        path = draw(st.sampled_from([p for p in fractions if p[-1] == 1]))
        _parent(doc, path)[path[-1]] = "-1/3"
    else:
        agent = draw(st.sampled_from(doc["agents"]))
        agent["zz"] = agent.pop(draw(st.sampled_from(sorted(agent))))
    return doc


@settings(max_examples=200, deadline=None)
@given(corrupted_instances(), st.sampled_from(PROTOCOL_NAMES))
def test_corrupted_instances_exit_zero_or_one(doc, protocol):
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", "--instance", "-", "--protocol", protocol])
    finally:
        sys.stdin = stdin
    assert code in (0, 1)
    assert (code == 1) == err.getvalue().startswith("error: ")


def test_a_deeply_nested_document_on_stdin_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(_DEEP))
    assert main(["solve", "--instance", "-", "--protocol", "egal"]) == 1
    assert capsys.readouterr().err == "error: stdin: JSON nested too deeply to read\n"


# -- the integer document reader against the Fraction one ---------------------------


def reference_parse_fraction(text):
    """The Fraction number reader the document path used before it read integer pairs."""
    try:
        if isinstance(text, bool):
            raise ValueError("a bool is not a number")
        if isinstance(text, int):
            return Fraction(text)
        num, slash, den = text.strip().partition("/")
        return Fraction(int(num), int(den) if slash else 1)
    except (AttributeError, ValueError, ZeroDivisionError):
        raise MalformedInput(f"{text!r} is not a rational number p/q") from None


def reference_normalize_segments(segments):
    segs = [Segment(a, b, d) for a, b, d in segments]
    if not segs or segs[0].lo != 0 or segs[-1].hi != 1:
        raise MalformedInput("segments must partition [0, 1]")
    for prev, cur in zip(segs, segs[1:]):
        if prev.hi != cur.lo:
            raise MalformedInput("segments must be contiguous")
    for seg in segs:
        if seg.lo >= seg.hi:
            raise MalformedInput("segment breakpoints must be strictly increasing")
        if seg.density < 0:
            raise MalformedInput("densities must be nonnegative")
    return tuple(segs)


def reference_valuation_from_json(data):
    """``Valuation.from_json`` as it was when it parsed and checked Fractions."""
    shape = "a valuation maps edge ids to [start, density] pairs"
    try:
        if not all(isinstance(pair, list) for pairs in data.values() for pair in pairs):
            raise MalformedInput(shape)
        per_edge = [(e, [(lo, d) for lo, d in pairs]) for e, pairs in data.items()]
    except (AttributeError, TypeError, ValueError):
        raise MalformedInput(shape) from None
    densities = {}
    for e, pairs in per_edge:
        los = [reference_parse_fraction(lo) for lo, _ in pairs]
        ds = [reference_parse_fraction(d) for _, d in pairs]
        if not los or los[0] != 0:
            raise MalformedInput(f"edge {e!r}: segment list must start at 0")
        densities[e] = reference_normalize_segments(zip(los, los[1:] + [Fraction(1)], ds))
    return Valuation(densities)


def _read_outcome(read, doc):
    """What reading a document gives: each valuation's densities and totals, or
    the error's class and message."""
    try:
        got = read(doc)
    except CakeError as exc:
        return type(exc), str(exc)
    vals = got.agents if isinstance(got, Instance) else (got,)
    return [(dict(v.densities), v.scale, dict(v.int_totals)) for v in vals]


def _assert_both_readers_agree(read, doc):
    integer = _read_outcome(read, doc)
    with mock.patch.object(Valuation, "from_json", staticmethod(reference_valuation_from_json)):
        assert _read_outcome(read, doc) == integer


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.sampled_from(FAMILIES),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from(["cake", "chore"]),
)
def test_instance_documents_read_as_the_fraction_reader_reads_them(
    seed, n, family, edges, segments, mode
):
    doc = random_instance(seed, n, family, edges, segments, mode).to_json()
    _assert_both_readers_agree(Instance.from_json, doc)


def _assert_handed_totals_are_summed_afresh(inst):
    for v in inst.agents:
        fresh = Valuation(v.densities)
        assert (fresh.scale, dict(fresh.int_totals)) == (v.scale, dict(v.int_totals))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.sampled_from(FAMILIES),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from(["cake", "chore"]),
)
def test_read_totals_equal_totals_summed_afresh(seed, n, family, edges, segments, mode):
    doc = random_instance(seed, n, family, edges, segments, mode).to_json()
    _assert_handed_totals_are_summed_afresh(Instance.from_json(doc))


@settings(max_examples=100, deadline=None)
@given(corrupted_instances())
def test_read_totals_of_corrupted_documents_equal_totals_summed_afresh(doc):
    try:
        inst = Instance.from_json(doc)
    except CakeError:
        return
    _assert_handed_totals_are_summed_afresh(inst)


@settings(max_examples=100, deadline=None)
@given(corrupted_instances())
def test_corrupted_documents_fail_as_under_the_fraction_reader(doc):
    _assert_both_readers_agree(Instance.from_json, doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"e0": [["0", "2/4"], ["1/2", "3/2"]]},
        {"e0": [["0", "1/-2"]]},
        {"e0": [["0", "1"], ["1/2", "1/-2"]]},
        {"e0": [["-0", "1"]]},
        {"e0": [["0", "1/2"], [" 1 / 2 ", "3/2"]]},
        {"e0": [["0", " -3 / -2 "], ["2/3", "0"]]},
        {"e0": [[0, 1]]},
        {"e0": [[0, "1"], ["1/2", 1]]},
        {"e0": [["0", "1"], ["3/2", "1"]]},
        {"e0": [["0", "1"], ["2", "0"], ["3", "1"]]},
        {"e0": [["0", "1"], ["1/2", "1"], ["1/2", "1"]]},
        {"e0": [["0", "1"], ["1/2", "1"], ["1/2", "-1"]]},
        {"e0": [["0", "1"], ["1/2", "-1"], ["1/2", "1"]]},
        {"e0": [["1/2", "x"]]},
        {"e0": [["0", "1"]], "e1": [["0", True]]},
        {"e0": [[0, 1]], "e1": [["0", True]]},
        {"e0": [["0", 1.0]]},
        {"e0": [[Fraction(0), "1"]]},
        {"e0": [["0", "1/0"]]},
        {"e0": [["0", []]]},
        {"e0": [["0", "x"], [None, "1"]]},
        {"e0": [["1/2", "-1"]]},
        {"e0": []},
        {"e0": [["0"]]},
    ],
)
def test_named_numbers_read_as_the_fraction_reader_reads_them(doc):
    # looked up at each call, so that the reference reader can stand in
    _assert_both_readers_agree(lambda d: Valuation.from_json(d), doc)


# Runs each argv list given as JSON through ``main`` in this one process and
# writes, for each, the argv, its exit code and everything it printed to stdout.
_RUN_IN_PROCESS = """
import contextlib, io, json, sys
from graphcake.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write(f"{argv} exit {code}\\n{out.getvalue()}")
"""


def test_output_is_byte_identical_under_any_hash_seed(tmp_path):
    # string hashing, and with it set and dict order over names, changes with
    # the hash seed; no output may
    docs = {
        "star3": build_fixture(FixtureSpec("star_tight", {"n": 3})),
        "star2": build_fixture(FixtureSpec("star_tight", {"n": 2})),
        "cycle": random_instance(5, n=2, family="cycle-augmented", edges=8),
        "mixed": random_instance(9, n=2, family="arbitrary", edges=9),
        "tree": random_instance(3, n=2, family="star", edges=5),
        "chore": random_instance(4, n=3, family="arbitrary", edges=7, mode="chore"),
    }
    path = {}
    for name, inst in docs.items():
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(json.dumps(inst.to_json()))
    solves = [
        ("star3", "egal"), ("star3", "star"), ("cycle", "prop2"), ("mixed", "best2"),
        ("mixed", "fixed2"), ("mixed", "flex2", "-p", "alpha=1/5"), ("mixed", "multi2", "-p", "k=2"),
        ("tree", "height2"), ("cycle", "equit2"), ("chore", "chore3"), ("chore", "chore5"),
    ]
    commands = [
        ["gen", "--seed", "7", "-p", "n=3", "-p", "family=cycle-augmented", "-p", "edges=6"],
        ["gen", "--seed", "8", "-p", "family=arbitrary", "-p", "edges=9", "-p", "mode=chore"],
        *(["classify", "--instance", path[name]] for name in ("cycle", "mixed", "tree")),
        *(["label", "--instance", path[name]] for name in ("cycle", "mixed")),
        *(["bipolar", "--instance", path[name]] for name in ("cycle", "mixed", "tree")),
        *(
            ["solve", "--instance", path[name], "--protocol", protocol, *params]
            for name, protocol, *params in solves
        ),
        ["oracle", "--instance", path["star2"], "--grid", "3"],
        ["oracle", "--instance", path["star2"], "--grid", "4", "--pair", "1/2,1/4"],
        ["oracle", "--instance", path["chore"], "--grid", "1", "--objective", "cost"],
    ]
    env_path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _RUN_IN_PROCESS, json.dumps(commands)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": env_path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0].count(b" exit 0\n") == len(commands)
    assert outputs[0] == outputs[1]
