"""Command-line front end.

All machine output is JSON with rationals serialized as "p/q" strings and
sorted keys, so identical inputs produce byte-identical output.  Exit codes:
0 on success, 1 on usage or input errors, 2 when a protocol's self-verified
guarantee fails (a defect signal, never expected).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Mapping
from fractions import Fraction

from . import fixtures as fixtures_mod
from .allocation import Allocation, verify_allocation
from .errors import CakeError, MalformedInput, NotAlmostBridgeless
from .graph_core import (
    CakeGraph,
    classify_almost_bridgeless,
    compute_contiguous_labeling,
    find_bipolar_numbering,
    find_bridges,
    format_fraction,
    parse_fraction,
    read_params,
)
from .oracle import (
    DEFAULT_STATE_BUDGET,
    MAX_ATOMS,
    OBJECTIVES,
    GridSearchConfig,
    check_powers_of_three,
    grid_search_best,
    pair_feasible,
)
from .protocols import (
    PROTOCOL_NAMES,
    EntitlementResult,
    guarantee_violations,
    run_protocol,
)
from .valuation import Instance


def _emit(payload, pretty: bool = False) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True))


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        source = "stdin" if path == "-" else path
        raise MalformedInput(f"{source}: JSON nested too deeply to read") from None


def _load_graph(path: str) -> CakeGraph:
    data = _read_json(path)
    if isinstance(data, Mapping) and "graph" in data:
        data = data["graph"]
    return CakeGraph.from_json(data)


def _load_instance(path: str) -> Instance:
    return Instance.from_json(_read_json(path))


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise MalformedInput(f"parameter {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        out[key] = value
    return out


def _cmd_classify(args) -> int:
    g = _load_graph(args.instance)
    witness = classify_almost_bridgeless(g)
    bridges = find_bridges(g)
    payload = {
        "almost_bridgeless": witness.is_almost_bridgeless,
        "bridges": sorted(bridges),
    }
    if witness.is_almost_bridgeless:
        payload["add_edge_between"] = list(witness.endpoints)
    else:
        payload["obstruction_bridges"] = list(witness.obstruction)
    # the DOT file first, so a path that cannot be written leaves stdout empty
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(g.to_dot(dashed_edges=bridges))
            fh.write("\n")
    _emit(payload, args.pretty)
    return 0


def _cmd_label(args) -> int:
    g = _load_graph(args.instance)
    try:
        lab = compute_contiguous_labeling(g)
    except NotAlmostBridgeless:
        _emit(
            {
                "labeling": None,
                "reason": "graph is not almost bridgeless",
                "obstruction_bridges": list(classify_almost_bridgeless(g).obstruction),
            },
            args.pretty,
        )
        return 0
    _emit({"labeling": lab.to_json(g)}, args.pretty)
    return 0


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    params = _parse_params(args.param)
    result = run_protocol(args.protocol, inst, params)
    report = verify_allocation(inst, result.allocation)
    problems = guarantee_violations(args.protocol, inst, report, params, result)
    payload = {
        "protocol": args.protocol,
        "allocation": result.allocation.to_json(),
        "report": report.to_json(),
        "queries": result.queries.to_json(),
    }
    if isinstance(result, EntitlementResult):
        payload["alpha_agent"] = result.alpha_agent
        payload["beta_agent"] = result.beta_agent
    if problems:
        payload["guarantee_violations"] = problems
    _emit(payload, args.pretty)
    if problems:
        print("guarantee violated: " + "; ".join(problems), file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    alloc = Allocation.from_json(_read_json(args.allocation))
    report = verify_allocation(inst, alloc)
    _emit(report.to_json(), args.pretty)
    return 0


def _cmd_fixture(args) -> int:
    if args.action == "list":
        _emit({"fixtures": list(fixtures_mod.FIXTURE_NAMES)}, args.pretty)
        return 0
    if not args.name:
        raise MalformedInput("fixture build needs a name")
    spec = fixtures_mod.FixtureSpec(args.name, _parse_params(args.param))
    inst = fixtures_mod.build_fixture(spec)
    _emit(inst.to_json(), args.pretty)
    return 0


def _cmd_gen(args) -> int:
    params = read_params("gen", fixtures_mod.RANDOM_PARAMS, _parse_params(args.param))
    _emit(fixtures_mod.random_instance(args.seed, **params).to_json(), args.pretty)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.instance)
    if args.pair:
        thresholds = args.pair.split(",")
        if len(thresholds) != 2:
            raise MalformedInput("--pair needs two thresholds 'a,b'")
        first, second = (parse_fraction(x) for x in thresholds)
        found, witness = pair_feasible(
            inst,
            args.grid,
            first,
            second,
            first_strict=args.strict_first,
            second_strict=args.strict_second,
            flexible=not args.ordered,
            require_complete=args.complete,
            state_budget=args.budget,
        )
        payload = {"feasible": found}
        if witness is not None:
            payload["witness"] = witness.to_json()
        _emit(payload, args.pretty)
        return 0
    cfg = GridSearchConfig(
        denominator=args.grid,
        objective=args.objective,
        piece_budget=args.pieces,
        require_complete=args.complete,
        state_budget=args.budget,
    )
    optimum, witness = grid_search_best(inst, cfg)
    _emit(
        {
            "objective": args.objective,
            "grid": args.grid,
            "optimum": format_fraction(optimum),
            "witness": witness.to_json(),
            "note": "optimum is over grid-aligned cuts only",
        },
        args.pretty,
    )
    return 0


def _cmd_lemma(args) -> int:
    try:
        lo, hi = (int(x) for x in args.window.split(":"))
    except ValueError:
        raise MalformedInput("--window needs 'lo:hi' integers") from None
    holds, (exps, coefs), gap = check_powers_of_three(args.t, lo, hi)
    _emit(
        {
            "holds": holds,
            "min_gap": format_fraction(gap),
            "bound": format_fraction(Fraction(1, 2 * 3**args.t)),
            "minimizer": {"exponents": list(exps), "coefficients": list(coefs)},
        },
        args.pretty,
    )
    return 0


def _cmd_bipolar(args) -> int:
    g = _load_graph(args.instance)
    numbering = find_bipolar_numbering(g)
    _emit({"numbering": None if numbering is None else dict(numbering.labels)}, args.pretty)
    return 0


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for guarantee violations; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphcake",
        description="Divide a graphical cake fairly, verify the result, or certify bounds.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="almost-bridgeless classification")
    p.add_argument("--instance", required=True, help="instance or graph JSON ('-' for stdin)")
    p.add_argument("--dot", help="write a DOT rendering (bridges dashed) to this file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("label", help="compute a contiguous oriented labeling")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("bipolar", help="find a bipolar vertex numbering, or null when none exists")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_bipolar)

    p = sub.add_parser("solve", help="run a protocol and self-verify its guarantee")
    p.add_argument("--instance", required=True)
    p.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
    p.add_argument("-p", "--param", action="append", default=[], help="key=value")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="re-check an allocation file")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fixture", help="list or build catalog instances")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("name", nargs="?")
    p.add_argument("-p", "--param", action="append", default=[])
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("gen", help="seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-p", "--param", action="append", default=[])
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="exhaustive grid search")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--grid",
        type=int,
        required=True,
        help=f"grid denominator d: each edge is cut into d atoms, at most {MAX_ATOMS} atoms in all",
    )
    p.add_argument(
        "--objective",
        choices=OBJECTIVES,
        default="egal",
        help="inequity without --complete always finds 0: every piece may stay empty",
    )
    p.add_argument("--pieces", type=int, help="total connected piece budget")
    p.add_argument("--complete", action="store_true")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_STATE_BUDGET,
        help="most search states to visit: pieces or, with --pieces, assignments, "
        "counted after bounding and symmetry",
    )
    p.add_argument("--pair", help="two thresholds 'a,b' for pair feasibility")
    p.add_argument("--strict-first", action="store_true")
    p.add_argument("--strict-second", action="store_true")
    p.add_argument("--ordered", action="store_true", help="do not try the swapped order")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("lemma", help="brute-force lemma checks")
    p.add_argument("which", choices=("powers3",))
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--window", required=True, help="exponent window 'lo:hi'")
    p.set_defaults(func=_cmd_lemma)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process.  Parsing leaves it unchanged: the ``append``
    actions copy their shared ``[]`` default before appending to it."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CakeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
