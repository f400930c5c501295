"""A shared-nothing check of ``solve`` outputs, in the standard library only.

``check`` reads an instance document and a ``solve`` output, every number a
plain ``Fraction``, recomputes the report from the definitions and checks each
protocol's guarantee as the paper states it.  No code of graphcake's is used,
so a fault in a helper that the protocols and the verifier share cannot hide.
The tests also use these functions as the reference for the fast paths.
"""

from collections import Counter
from fractions import Fraction as F


def graph(doc):
    """(vertices, {edge id: (u, v)}) of a graph document."""
    return doc["vertices"], {e: (u, v) for e, u, v in doc["edges"]}


def valuation(doc):
    """{edge id: [(lo, hi, density), ...]} of a valuation document of
    [start, density] pairs, each segment ending where the next starts."""
    out = {}
    for e, pairs in doc.items():
        starts = [F(lo) for lo, _ in pairs] + [F(1)]
        out[e] = [(lo, hi, F(d)) for lo, hi, (_, d) in zip(starts, starts[1:], pairs)]
    return out


def canonical(piece):
    """A piece's (edge, lo, hi) intervals sorted, with those that overlap or
    touch on an edge merged and empty ones dropped.  ValueError unless
    0 <= lo <= hi <= 1."""
    out = []
    for e, lo, hi in sorted((e, F(lo), F(hi)) for e, lo, hi in piece):
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"interval [{lo}, {hi}] on edge {e!r}")
        if out and out[-1][0] == e and lo <= out[-1][2]:
            out[-1] = (e, out[-1][1], max(out[-1][2], hi))
        elif lo < hi:
            out.append((e, lo, hi))
    return out


def value(val, piece):
    """The value of a piece to a valuation read by ``valuation``: the overlap
    of each interval with each density segment, times the density."""
    overlaps = ((lo, hi, a, b, d) for e, lo, hi in canonical(piece) for a, b, d in val.get(e, ()))
    return sum((d * (min(b, hi) - max(a, lo)) for lo, hi, a, b, d in overlaps if a < hi and lo < b), F(0))


def _parts(nodes, links):
    """Each node's part under a union-find over the (a, b) links."""
    part = {x: x for x in nodes}

    def find(x):
        while part[x] != x:
            x = part[x]
        return x

    for a, b in links:
        part[find(a)] = find(b)
    return {x: find(x) for x in nodes}


def piece_count(edges, piece):
    """The components of a piece: interval i reaches its edge's u end when it
    starts at 0 and its v end when it ends at 1, and is joined to what it reaches."""
    ivs = canonical(piece)
    links = [(i, end) for i, (e, lo, hi) in enumerate(ivs) for end, at in zip(edges[e], (lo == 0, hi == 1)) if at]
    part = _parts([*range(len(ivs)), *(end for _, end in links)], links)
    return len({part[i] for i in range(len(ivs))})


def coverage(edges, pieces):
    """(disjoint, complete): no two pieces share more than a point of an edge,
    and every edge of ``edges`` is held from 0 to 1 without a gap."""
    held = {e: [] for e in edges}
    for p in pieces:
        for e, lo, hi in canonical(p):
            held[e].append((lo, hi))
    disjoint = complete = True
    for spans in held.values():
        reach = F(0)
        for lo, hi in sorted(spans):
            disjoint &= lo >= reach
            complete &= lo <= reach
            reach = max(reach, hi)
        complete &= reach == 1
    return disjoint, complete


def bridges(vertices, edges):
    """The edges whose deletion disconnects the graph."""
    return {e for e in edges if len(set(_parts(vertices, [edges[x] for x in edges if x != e]).values())) > 1}


def almost_bridgeless(vertices, edges):
    """Whether the bridge tree is a path: its nodes, the parts that are left
    joined without the bridges, meet at most two bridges each."""
    cut = bridges(vertices, edges)
    part = _parts(vertices, [edges[e] for e in edges if e not in cut])
    return max(Counter(part[x] for e in cut for x in edges[e]).values(), default=0) <= 2


def _bounds(protocol, values, counts, vertices, edges, params, output):
    """(holds, what) for each bound of the guarantee beyond a complete,
    disjoint allocation (of connected pieces, but for multi2 and height2)."""
    n, k, low, high, half, third = len(values), len(edges), min(values), max(values), F(1, 2), F(1, 3)
    if protocol == "egal":
        return [(low >= F(1, 2 * n - 1), "1/(2n-1) each")]
    if protocol == "star":  # f(n, k) on a star of k edges
        return [(low >= F(1, n + (k + 1) // 2 - 1 if k < 2 * n - 1 else 2 * n - 1), "f(n, k) each")]
    if protocol == "prop2":
        return [(low >= half, "1/2 each")]
    if protocol == "height2":
        return [(low >= half, "1/2 each"), (max(counts) <= 2, "two pieces each")]
    if protocol == "best2":  # 1/2 on almost bridgeless graphs, else 1/3
        share = half if almost_bridgeless(vertices, edges) else third
        return [(values[0] >= half, "1/2 to agent 1"), (low >= share, "1/2 or 1/3 each")]
    if protocol == "fixed2":
        return [(values[0] >= half, "1/2 to agent 1"), (values[1] >= third, "1/3 to agent 2")]
    if protocol == "flex2":
        alpha = F(params["alpha"])
        return [
            (values[output["alpha_agent"]] >= alpha, "alpha to one agent"),
            (values[output["beta_agent"]] >= 1 - 2 * alpha, "1 - 2 alpha to the other"),
        ]
    if protocol == "multi2":
        k = int(params["k"])
        return [(low >= half - F(1, 2 * 3**k), "1/2 - 1/(2 3^k) each"), (sum(counts) <= k + 1, "k + 1 pieces")]
    if protocol == "equit2":
        return [(high - low <= third, "values within 1/3")]
    if protocol == "chore2":
        return [(values[0] <= half, "1/2 to agent 1"), (values[1] <= F(2, 3), "2/3 to agent 2")]
    if protocol == "chore3":
        return [(high <= half, "1/2 each")]
    if protocol == "chore5":
        return [(high <= F(2, n + 1), "2/(n+1) each")]
    raise ValueError(f"no guarantee known for {protocol!r}")


def check(instance, output, params=None):
    """Each way the output's report differs from the recomputed one and each
    bound of the guarantee it misses; empty when all holds.  ``params`` are
    the protocol's parameters as given to ``solve``."""
    (vertices, edges), mode = graph(instance["graph"]), instance.get("mode", "cake")
    pieces, protocol = output["allocation"], output["protocol"]
    values = [value(valuation(a), p) for a, p in zip(instance["agents"], pieces, strict=True)]
    counts = [piece_count(edges, p) for p in pieces]
    disjoint, complete = coverage(edges, pieces)
    report = {
        "agents": [{"value": str(x), "connected": c <= 1, "pieces": c} for x, c in zip(values, counts)],
        "disjoint": disjoint,
        "complete": complete,
        "mode": mode,
        "egalitarian": str(min(values) if mode == "cake" else max(values)),
        "inequity": str(max(values) - min(values)),
        "total_pieces": sum(counts),
    }
    given = output["report"]
    problems = [f"{key} is {report[key]}, reported {given.get(key)}" for key in report if report[key] != given.get(key)]
    holds = [(disjoint, "disjoint"), (complete, "complete")]
    if protocol not in ("multi2", "height2"):
        holds.append((max(counts) <= 1, "connected pieces"))
    holds += _bounds(protocol, values, counts, vertices, edges, params or {}, output)
    return problems + [f"{protocol} misses: {what}" for ok, what in holds if not ok]
