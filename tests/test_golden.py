"""Golden outputs: ``solve`` on every catalog fixture and a few seeded random
instances, with each protocol that applies, must stay byte-identical, and so
must ``oracle`` and ``lemma`` on every certificate the test suite checks, and
``label`` on seeded ear graphs and a long cycle, well past the desk sizes.

``solve`` must exit 0 exactly when the protocol applies to the instance (see
``graphcake.protocols.applies``) and 1 otherwise; only the outputs of the
protocols that apply are in the file.  After a deliberate change of output,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py`` and say
in CHANGES.md which outputs changed and why.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from conftest import cycle_graph, ear_graph
from graphcake.cli import main
from graphcake.fixtures import FixtureSpec, build_fixture, random_instance
from graphcake.protocols import PROTOCOL_NAMES, applies

GOLDEN = Path(__file__).with_name("golden_solve.json")
GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.json")
GOLDEN_LABEL = Path(__file__).with_name("golden_label.json")

FIXTURES = (
    ("star_tight", {"n": 2}),
    ("star_tight", {"n": 3}),
    ("star_fnk_tight", {"n": 2, "k": 3}),
    ("star_fnk_tight", {"n": 3, "k": 4}),
    ("three_bridge", {}),
    ("frontier_edge", {"alpha": "2/3"}),
    ("four_edge_star", {}),
    ("fig2", {}),
    ("fig1_flowers", {"side": "left"}),
    ("fig1_flowers", {"side": "right"}),
    ("ternary_tree", {"k": 1}),
    ("ternary_tree", {"k": 2}),
    ("equit_star3", {}),
    ("chore_star", {"n": 2}),
    ("chore_star", {"n": 3}),
    ("chore_star", {"n": 5}),
)

# (seed, agents, family, edges, mode)
RANDOM = (
    (1, 2, "cycle-augmented", 12, "cake"),
    (2, 2, "tree", 7, "cake"),
    (3, 3, "arbitrary", 9, "cake"),
    (4, 4, "tree", 12, "cake"),
    (5, 5, "star", 6, "cake"),
    (6, 6, "cycle-augmented", 10, "cake"),
    (7, 2, "arbitrary", 8, "chore"),
    (8, 3, "cycle-augmented", 11, "chore"),
    (9, 4, "tree", 12, "chore"),
    (10, 5, "arbitrary", 10, "chore"),
)

PARAMS = {"flex2": ["-p", "alpha=1/4"], "multi2": ["-p", "k=2"]}

# (fixture, params, oracle arguments): the grid certificates and pair
# searches of the test suite, plus a feasible pair search for its witness
ORACLE = (
    ("star_tight", {"n": 2}, ["--grid", "6"]),
    ("star_tight", {"n": 2}, ["--grid", "6", "--pair", "1/2,1/2", "--strict-first"]),
    ("star_tight", {"n": 2}, ["--grid", "6", "--pair", "1/3,1/3", "--complete"]),
    ("star_fnk_tight", {"n": 2, "k": 3}, ["--grid", "6"]),
    ("star_fnk_tight", {"n": 3, "k": 4}, ["--grid", "8", "--complete"]),
    ("three_bridge", {}, ["--grid", "6"]),
    ("equit_star3", {}, ["--grid", "6", "--objective", "inequity", "--complete"]),
    ("ternary_tree", {"k": 1}, ["--grid", "3", "--pieces", "2", "--complete"]),
    ("chore_star", {"n": 2}, ["--grid", "6", "--objective", "cost", "--complete"]),
    ("chore_star", {"n": 3}, ["--grid", "8", "--objective", "cost", "--complete"]),
    ("four_edge_star", {}, ["--grid", "8", "--pair", "1/2,1/4", "--strict-first", "--strict-second"]),
    ("fig2", {}, ["--grid", "8", "--pair", "1/4,13/25", "--strict-second"]),
    ("frontier_edge", {"alpha": "3/4"}, ["--grid", "8", "--pair", "7/8,1/8"]),
    ("frontier_edge", {"alpha": "3/4"}, ["--grid", "8", "--pair", "7/8,1/8", "--ordered"]),
)

# (t, exponent window) for the powers-of-three lemma
LEMMA = ((1, "-3:1"), (2, "-3:1"), (3, "-4:1"), (1, "-6:2"), (2, "-6:2"), (3, "-6:2"), (4, "-3:1"), (2, "0:3"))

# (seed, edges) of the ear graphs for ``label``, and the length of the cycle
EAR_GRAPHS = ((1, 40), (2, 120), (3, 200))
CYCLE = 800


def _instances():
    for name, params in FIXTURES:
        label = ",".join(f"{k}={v}" for k, v in params.items())
        yield f"{name}({label})", build_fixture(FixtureSpec(name, params))
    for seed, n, family, edges, mode in RANDOM:
        inst = random_instance(seed, n=n, family=family, edges=edges, mode=mode)
        yield f"random({seed},{n},{family},{edges},{mode})", inst


def _run(argv: list[str], document: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def solve_outputs() -> dict[str, str]:
    """``solve`` stdout for every (instance, protocol) pair where the protocol applies."""
    outputs = {}
    for label, inst in _instances():
        document = json.dumps(inst.to_json())
        for protocol in PROTOCOL_NAMES:
            code, stdout = _run(["solve", "--instance", "-", "--protocol", protocol, *PARAMS.get(protocol, [])], document)
            expected = 0 if applies(protocol, inst) else 1
            assert code == expected, f"{protocol} on {label} exited {code}, expected {expected}"
            if code == 0:
                outputs[f"{label} {protocol}"] = stdout
    return outputs


def oracle_outputs() -> dict[str, str]:
    """``oracle`` stdout for every case of ORACLE and ``lemma`` stdout for every case of LEMMA."""
    outputs = {}
    for name, params, args in ORACLE:
        label = ",".join(f"{k}={v}" for k, v in params.items())
        document = json.dumps(build_fixture(FixtureSpec(name, params)).to_json())
        code, stdout = _run(["oracle", "--instance", "-", *args], document)
        assert code == 0, f"oracle {args} on {name}({label}) exited {code}"
        outputs[f"{name}({label}) {' '.join(args)}"] = stdout
    for t, window in LEMMA:
        code, stdout = _run(["lemma", "powers3", "-t", str(t), f"--window={window}"])
        assert code == 0, f"lemma t={t} on {window} exited {code}"
        outputs[f"powers3 t={t} window={window}"] = stdout
    return outputs


def label_outputs() -> dict[str, str]:
    """``label`` stdout for every ear graph of EAR_GRAPHS and the cycle of length CYCLE."""
    graphs = {f"ear_graph(seed={seed},m={m})": ear_graph(random.Random(seed), m) for seed, m in EAR_GRAPHS}
    graphs[f"cycle_graph(m={CYCLE})"] = cycle_graph(CYCLE)
    outputs = {}
    for label, g in graphs.items():
        code, stdout = _run(["label", "--instance", "-"], json.dumps(g.to_json()))
        assert code == 0 and json.loads(stdout)["labeling"] is not None, f"label on {label} failed"
        outputs[label] = stdout
    return outputs


def _assert_matches(golden: Path, actual: dict[str, str]) -> None:
    expected = json.loads(golden.read_text())
    assert sorted(actual) == sorted(expected)
    changed = [case for case in expected if actual[case] != json.dumps(expected[case], sort_keys=True) + "\n"]
    assert not changed, f"output changed for {changed}"


def test_solve_outputs_match_the_golden_file():
    _assert_matches(GOLDEN, solve_outputs())


def test_oracle_outputs_match_the_golden_file():
    _assert_matches(GOLDEN_ORACLE, oracle_outputs())


def test_label_outputs_match_the_golden_file():
    _assert_matches(GOLDEN_LABEL, label_outputs())


if __name__ == "__main__":
    for path, outputs in ((GOLDEN, solve_outputs()), (GOLDEN_ORACLE, oracle_outputs())):
        golden = {case: json.loads(stdout) for case, stdout in outputs.items()}
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(golden)} outputs to {path}")
    # a labeling holds one [edge, tail, head] triple per edge: one line per graph
    labels = label_outputs()
    lines = [f" {json.dumps(case)}: {json.dumps(json.loads(labels[case]))}" for case in sorted(labels)]
    GOLDEN_LABEL.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(labels)} outputs to {GOLDEN_LABEL}")
