"""Golden outputs: ``solve`` on every catalog fixture and a few seeded random
instances, with each protocol that applies, must stay byte-identical, and so
must ``oracle`` and ``lemma`` on every certificate the test suite checks, and
``label`` on seeded ear graphs and a long cycle, well past the desk sizes.
The two-agent protocols on one seeded 200-edge graph per family of the
road-network benchmark keep the sha256 of their ``solve`` output
(``NETWORK_DIGESTS``) rather than the outputs themselves, about 80 KB.

``solve`` must exit 0 exactly when the protocol applies to the instance (see
``graphcake.protocols.applies``) and 1 otherwise; only the outputs of the
protocols that apply are in the file.  Every ``solve`` output, the network
ones too, must pass ``independent.check``.  After a deliberate change of
output, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``,
which also prints fresh network digests, and say in CHANGES.md which outputs
changed and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import independent
from conftest import cycle_graph, ear_graph, mixed_graph, tree_graph
from graphcake.cli import main
from graphcake.fixtures import FixtureSpec, build_fixture, random_instance, random_valuations
from graphcake.protocols import PROTOCOL_NAMES, applies
from graphcake.valuation import Instance

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

PARAMS = {"flex2": {"alpha": "1/4"}, "multi2": {"k": "2"}}

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

# one seeded 200-edge graph per family of the road-network benchmark, and the
# two-agent protocols run on it (prop2 where the graph is almost bridgeless)
NETWORK_GRAPHS = (("cycle-augmented", ear_graph), ("arbitrary", mixed_graph), ("tree", tree_graph))
NETWORK_EDGES = 200
TWO_AGENT = ("best2", "prop2", "fixed2", "flex2", "equit2", "multi2", "chore2")
NETWORK_PARAMS = {"flex2": {"alpha": "1/4"}, "multi2": {"k": "3"}}

# sha256 of each ``solve`` stdout on the network graphs
NETWORK_DIGESTS = {
    "cycle-augmented best2": "e9dd84e5e1ab559b267e7d47a8c723ec60150acc7cf7cf4700e80ec5ee9e4613",
    "cycle-augmented prop2": "ccb35d76b47ff5ff914e0ac3e5ebe987c875a12dbe5b57087759e6abcfdaa1c4",
    "cycle-augmented fixed2": "76decb388f4a3b3aff50784eaadeb8da1dd47c8ef7f17f123161122c8143a64b",
    "cycle-augmented flex2": "af161afbbe061f7c424c0238f8641efc37a820f13b5b95968762a2e087c53eb1",
    "cycle-augmented equit2": "fef6a4afb73a5d245fb1cd9e8f5a4b40596d70e3e834df64dd2d8d124ff8afcd",
    "cycle-augmented multi2": "b20a6ba7e103171f8fee8eb3ee3193b1e5e065e0f39594643cad1e4e7f1ae2ad",
    "cycle-augmented chore2": "46875efd94c3150598132abcf0994a67efa28770231ba44e0e816719ce1c336b",
    "arbitrary best2": "d64409fd9351be7797420f91162de7bbe37cffd859dbdfdc09c38ce72556fc02",
    "arbitrary fixed2": "8c43fe5b6dbb5f0a50493467f8cf50287f61871034e9f07d2e86e79e0b576dd5",
    "arbitrary flex2": "202b570de5319b5df125e35ca628865e2b7df86da938330aa41b4dc8f933d99e",
    "arbitrary equit2": "fe44bf3044e90f1e0220d1a1c2fa335846c1590f02b62292408dc18509754081",
    "arbitrary multi2": "65799cc3b5b587699689c794082fde004ca64c2781a9c837a5ad7d94932603b4",
    "arbitrary chore2": "8a51a63406affc47ff4534337ac4a79f0b62bff4e205a430409a34869eeeb0f6",
    "tree best2": "68d62f2e304e1f027339d6414c26af053f91e59b483c65a28ea918679cbd9c5b",
    "tree fixed2": "b8f672c5cecf9a6d484b0071df90cb233a7bd2f85c1a98a1c883191cb9b1cb20",
    "tree flex2": "a9091dc5ff317842094e21a3fe79c8cc2cd916e81bdd230020a0bc18feda5d3a",
    "tree equit2": "b23a1ec77c06c43d4fa38d86816bc2927220fdbb567392060150d76c154ae86e",
    "tree multi2": "bae490ac6aa68ed043205e8b0df7058fcd2c3dceefcf5b54bc777e4a06b0032c",
    "tree chore2": "24a53e7d8fdf1552327f058c6a1043e2bc3307a742e675ec248cccf7513f18a4",
}


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


def _solve(document: dict, protocol: str, params: dict) -> tuple[int, str]:
    """``solve``'s exit code and stdout; an output must pass ``independent.check``."""
    argv = ["solve", "--instance", "-", "--protocol", protocol]
    for key, value in params.items():
        argv += ["-p", f"{key}={value}"]
    code, stdout = _run(argv, json.dumps(document))
    if code == 0:
        assert independent.check(document, json.loads(stdout), params) == [], protocol
    return code, stdout


def solve_outputs() -> dict[str, str]:
    """``solve`` stdout for every (instance, protocol) pair where the protocol applies."""
    outputs = {}
    for label, inst in _instances():
        document = inst.to_json()
        for protocol in PROTOCOL_NAMES:
            code, stdout = _solve(document, protocol, PARAMS.get(protocol, {}))
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


def network_solve_outputs() -> dict[str, str]:
    """``solve`` stdout for every two-agent protocol that applies to the
    network graphs, on seeded cake and chore valuations."""
    outputs = {}
    for family, build in NETWORK_GRAPHS:
        g = build(random.Random(f"network/{family}"), NETWORK_EDGES)
        rng = random.Random(f"network/{family}/valuations")
        for mode in ("cake", "chore"):
            inst = Instance(g, random_valuations(rng, g, 2), mode)
            document = inst.to_json()
            for protocol in TWO_AGENT:
                if applies(protocol, inst):
                    code, stdout = _solve(document, protocol, NETWORK_PARAMS.get(protocol, {}))
                    assert code == 0, f"{protocol} on {family} exited {code}"
                    outputs[f"{family} {protocol}"] = stdout
    return outputs


def network_digests() -> dict[str, str]:
    return {case: hashlib.sha256(stdout.encode()).hexdigest() for case, stdout in network_solve_outputs().items()}


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


def test_solve_outputs_on_200_edge_graphs_keep_their_digests():
    assert network_digests() == NETWORK_DIGESTS


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
    print("NETWORK_DIGESTS = " + json.dumps(network_digests(), indent=4))
