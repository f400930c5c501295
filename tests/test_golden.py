"""Golden outputs: ``solve`` on every catalog fixture and a few seeded random
instances, with each protocol that applies, must stay byte-identical.

A protocol applies when ``solve`` exits 0; the ones that refuse an instance
are left out of the file, so a protocol that starts or stops accepting an
instance shows up as well.  After a deliberate change of output, rewrite the
file with ``PYTHONPATH=src python tests/test_golden.py`` and say in
CHANGES.md which outputs changed and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from graphcake.cli import main
from graphcake.fixtures import FixtureSpec, build_fixture, random_instance
from graphcake.protocols import PROTOCOL_NAMES

GOLDEN = Path(__file__).with_name("golden_solve.json")

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


def _instances():
    for name, params in FIXTURES:
        label = ",".join(f"{k}={v}" for k, v in params.items())
        yield f"{name}({label})", build_fixture(FixtureSpec(name, params))
    for seed, n, family, edges, mode in RANDOM:
        inst = random_instance(seed, n=n, family=family, edges=edges, mode=mode)
        yield f"random({seed},{n},{family},{edges},{mode})", inst


def _solve(document: str, protocol: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(document)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--instance", "-", "--protocol", protocol, *PARAMS.get(protocol, [])])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def solve_outputs() -> dict[str, str]:
    """``solve`` stdout for every (instance, protocol) pair that exits 0."""
    outputs = {}
    for label, inst in _instances():
        document = json.dumps(inst.to_json())
        for protocol in PROTOCOL_NAMES:
            code, stdout = _solve(document, protocol)
            assert code in (0, 1), f"{protocol} on {label} exited {code}"
            if code == 0:
                outputs[f"{label} {protocol}"] = stdout
    return outputs


def test_solve_outputs_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = solve_outputs()
    assert sorted(actual) == sorted(expected)
    changed = [case for case in expected if actual[case] != json.dumps(expected[case], sort_keys=True) + "\n"]
    assert not changed, f"solve output changed for {changed}"


if __name__ == "__main__":
    golden = {case: json.loads(stdout) for case, stdout in solve_outputs().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} outputs to {GOLDEN}")
