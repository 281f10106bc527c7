"""Deterministic builders for the named extremal graph families.

Labelling convention: clique / universal vertices come first, then the
rest, so graph6 outputs are stable across runs.  Every integer parameter
passes graphs.check_shape, and every builder rejects parameters whose
graph would exceed the vertex cap.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

from .graphs import (Graph, GraphCapError, VERTEX_CAP, check_power, check_shape,
                     disjoint_union, join)
from .patterns import (ForestPattern, LinearForestPattern, PathPattern,
                       StarForestPattern, StarPattern, unalias)


def _check_cap(n: int, what: str) -> None:
    if n > VERTEX_CAP:
        raise GraphCapError(f"{what} needs {n} vertices, cap is {VERTEX_CAP}")


# ---------------------------------------------------------------------
# basic families
# ---------------------------------------------------------------------

def complete_graph(t: int) -> Graph:
    check_shape("t", 0, t)
    _check_cap(t, "complete graph")
    full = (1 << t) - 1
    return Graph(t, tuple(full ^ (1 << v) for v in range(t)))


def empty_graph(t: int) -> Graph:
    check_shape("t", 0, t)
    _check_cap(t, "empty graph")
    return Graph.empty(t)


def path_graph(t: int) -> Graph:
    check_shape("t", 0, t)
    _check_cap(t, "path")
    return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])


def star_graph(r: int) -> Graph:
    """Star S_r: centre of degree r plus r leaves (r+1 vertices)."""
    check_shape("r", 0, r)
    _check_cap(r + 1, "star")
    return Graph.from_edges(r + 1, [(0, i) for i in range(1, r + 1)])


def matching_graph(t: int) -> Graph:
    """M_t: t vertices carrying a maximum matching (floor(t/2) edges)."""
    check_shape("t", 0, t)
    _check_cap(t, "matching graph")
    return Graph.from_edges(t, [(2 * i, 2 * i + 1) for i in range(t // 2)])


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph with part sizes as equal as possible."""
    check_shape("n", 0, n)
    check_shape("r", 1, r)
    _check_cap(n, "Turan graph")
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    rows = [0] * n
    full = (1 << n) - 1
    start = 0
    for size in sizes:
        part = ((1 << size) - 1) << start
        for v in range(start, start + size):
            rows[v] = full & ~part
        start += size
    return Graph(n, tuple(rows))


def friendship_graph(n: int) -> Graph:
    """F_n: star on n vertices plus a maximum matching on its leaves."""
    check_shape("n", 3, n)
    if n % 2 == 0:
        raise ValueError(f"friendship graph needs odd n (got n={n})")
    return k_join_matching(n, 2)


def broom_graph(ell: int, s: int) -> Graph:
    """B_{ell,s}: path on ell vertices with s extra leaves at a penultimate
    vertex (the one adjacent to the highest-indexed end)."""
    check_shape("ell", 4, ell)
    check_shape("s", 0, s)
    _check_cap(ell + s, "broom")
    edges = [(i, i + 1) for i in range(ell - 1)]
    edges += [(ell - 2, ell + i) for i in range(s)]
    return Graph.from_edges(ell + s, edges)


# ---------------------------------------------------------------------
# near-regular graphs (Havel-Hakimi realization)
# ---------------------------------------------------------------------

def near_regular(n: int, d: int) -> Graph:
    """Graph on n vertices with every degree d, except one vertex of
    degree d-1 when d*n is odd.  Realized greedily (Havel-Hakimi), which
    always succeeds on these sequences and is deterministic."""
    check_shape("n", 0, n)
    check_shape("d", 0, d)
    _check_cap(n, "near-regular graph")
    if n == 0:
        if d != 0:
            raise ValueError("near-regular on 0 vertices needs d = 0")
        return Graph.empty(0)
    if d >= n:
        raise ValueError(f"near-regular needs d < n (got n={n}, d={d})")
    residual = [d] * n
    if n and d * n % 2 == 1:
        residual[-1] = d - 1
    target = sorted(residual, reverse=True)
    rows = [0] * n
    while True:
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        v = order[0]
        if residual[v] == 0:
            break
        need = residual[v]
        residual[v] = 0
        for w in order[1 : need + 1]:
            if residual[w] == 0 or rows[v] >> w & 1:
                raise ValueError(f"sequence for n={n}, d={d} not realizable")
            rows[v] |= 1 << w
            rows[w] |= 1 << v
            residual[w] -= 1
    g = Graph(n, tuple(rows))
    assert sorted(g.degrees(), reverse=True) == target
    return g


# ---------------------------------------------------------------------
# extremal constructions
# ---------------------------------------------------------------------

def h_path(n: int, ell: int) -> Graph:
    """H(n,ell): K_b joined to E_{n-b} with b = floor(ell/2)-1, plus one
    edge inside the independent part iff ell is odd."""
    check_shape("n", 0, n)
    check_shape("ell", 4, ell)
    if n < ell:
        raise ValueError(f"h_path needs n >= ell (got n={n}, ell={ell})")
    return h_linear_forest(n, [ell])


def h_linear_forest(n: int, lengths: list[int]) -> Graph:
    """H(n,F) for the linear forest F with the given path orders:
    K_b + E_{n-b} with b = sum(floor(l_i/2)) - 1, plus one edge in the
    independent part iff every l_i is odd."""
    check_shape("n", 0, n)
    check_shape("k", 1, len(lengths))
    check_shape("path order", 2, *lengths)
    total = sum(lengths)
    if n < total:
        raise ValueError(f"need n >= {total} (got n={n})")
    _check_cap(n, "H(n,F)")
    b = sum(l // 2 for l in lengths) - 1
    g = join(complete_graph(b), empty_graph(n - b))
    if all(l % 2 == 1 for l in lengths):
        g = g.with_edge(b, b + 1)
    return g


def g_star_join(n: int, i: int, r: int) -> Graph:
    """G(n,i,r): K_{i-1} joined to a near (r-1)-regular graph on n-i+1
    vertices."""
    check_shape("n", 0, n)
    check_shape("i", 1, i)
    check_shape("r", 1, r)
    if n - i + 1 <= r - 1:
        raise ValueError(f"g_star_join needs n-i+1 > r-1 (got n={n}, i={i}, r={r})")
    _check_cap(n, "G(n,i,r)")
    return join(complete_graph(i - 1), near_regular(n - i + 1, r - 1))


def k_join_matching(n: int, k: int) -> Graph:
    """K_{k-1} joined to M_{n-k+1}."""
    check_shape("n", 0, n)
    check_shape("k", 1, k)
    if n < k:
        raise ValueError(f"k_join_matching needs k <= n (got n={n}, k={k})")
    _check_cap(n, "K_{k-1}+M_{n-k+1}")
    return join(complete_graph(k - 1), matching_graph(n - k + 1))


def unbalanced_bipartite(n: int) -> Graph:
    """Complete bipartite graph with part sizes floor(n/2)-1 and
    ceil(n/2)+1 (the e_4 counterexample to Turan-graph optimality)."""
    check_shape("n", 6, n)
    _check_cap(n, "unbalanced bipartite graph")
    small = n // 2 - 1
    return join(empty_graph(small), empty_graph(n - small))


def extremal_host(pattern: ForestPattern, n: int, p: int) -> Graph | None:
    """The graph on n vertices whose e_p formulas.formula_for_pattern gives
    for the pattern at the power p, or None where no closed form is known;
    at p = 1 (ex_1 = 2 ex) paths, star forests and brooms have their
    classical one.  Below the host's order its builder raises ValueError."""
    check_power(p)
    pattern = unalias(pattern)
    if isinstance(pattern, PathPattern) and pattern.ell <= 3:
        pattern = StarPattern(pattern.ell - 1)  # P_2 = S_1 and P_3 = S_2
    if isinstance(pattern, StarPattern):
        d = pattern.r - 1
        return complete_graph(n) if n <= d else near_regular(n, d)
    if isinstance(pattern, LinearForestPattern):
        if set(pattern.lengths) == {3}:
            return k_join_matching(n, len(pattern.lengths))
        return h_linear_forest(n, list(pattern.lengths))
    if p == 1:
        return _classical_host(pattern, n)
    if isinstance(pattern, PathPattern):
        return h_path(n, pattern.ell)
    if isinstance(pattern, StarForestPattern):
        return g_star_join(n, len(pattern.degrees), pattern.degrees[-1])
    if pattern.ell == 4:  # a broom with s >= 1
        return star_graph(n - 1)
    if pattern.ell == 5:
        return k_join_matching(n, 2)
    return h_path(n, pattern.ell) if pattern.ell in (6, 7) else None


def _classical_host(pattern: ForestPattern, n: int) -> Graph | None:
    """The extremal graph of ex(n, F), from n and F alone: cliques K_{ell-1}
    for P_ell, the densest G(n,i,r_i) for star forests, and for B_{ell,s}
    cliques K_{ell+s-1} and K_b (n = a(ell+s-1)+b), at ell = 4 the denser of
    those and the graph with a near (s+1)-regular part for one K_{ell+s-1}
    and K_b.  None for ell >= 6 and for B_{5,s} where 1 <= b <= s."""
    if isinstance(pattern, PathPattern):
        return clique_union(n // (pattern.ell - 1), pattern.ell - 1, n % (pattern.ell - 1))
    if isinstance(pattern, StarForestPattern):
        return max((g_star_join(n, i, r) for i, r in enumerate(pattern.degrees, 1)),
                   key=Graph.edge_count)
    ell, s = pattern.ell, pattern.s
    if ell > 5:
        return None
    size = ell + s - 1
    if n <= size:
        raise ValueError(f"B_{{{ell},{s}}} host needs n > {size} (got n={n})")
    a, b = divmod(n, size)
    if ell == 5:
        return None if 1 <= b <= s else clique_union(a, size, b)
    near = disjoint_union(clique_union(a - 1, size, 0), near_regular(size + b, s + 1))
    return max(clique_union(a, size, b), near, key=Graph.edge_count)


# ---------------------------------------------------------------------
# family spec grammar (CLI surface)
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: dict[str, object]

    def __str__(self) -> str:
        items = ",".join(
            f"{k}={'+'.join(map(str, v)) if isinstance(v, list) else v}"
            for k, v in self.params.items()
        )
        return f"{self.tag}:{items}"


# each builder's parameters are the family's parameters, in order
_FAMILIES = {
    "complete": complete_graph,
    "empty": empty_graph,
    "path": path_graph,
    "star": star_graph,
    "matching": matching_graph,
    "turan": turan_graph,
    "friendship": friendship_graph,
    "broom": broom_graph,
    "near-regular": near_regular,
    "h-path": h_path,
    "h-forest": h_linear_forest,
    "g-star": g_star_join,
    "k-matching": k_join_matching,
    "unbalanced": unbalanced_bipartite,
}


def parse_family(text: str) -> FamilySpec:
    """Parse the family grammar, e.g. ``h-path:n=10,ell=6`` or
    ``h-forest:n=12,lengths=5+3``."""
    tag, sep, rest = text.partition(":")
    tag = tag.strip()
    if tag not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {tag!r} (known: {known})")
    wanted = inspect.signature(_FAMILIES[tag]).parameters
    params: dict[str, object] = {}
    if sep and rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or key not in wanted:
                raise ValueError(f"family {tag!r}: bad parameter {item!r}")
            if key in params:
                raise ValueError(f"family {tag!r}: repeated parameter {key!r}")
            try:
                if key == "lengths":
                    params[key] = [int(x) for x in val.split("+")]
                else:
                    params[key] = int(val)
            except ValueError as exc:
                raise ValueError(f"family {tag!r}: bad value {val!r} for {key}") from exc
    missing = [k for k in wanted if k not in params]
    if missing:
        raise ValueError(f"family {tag!r}: missing parameters {missing}")
    return FamilySpec(tag, params)


def build_family(spec: FamilySpec | str) -> Graph:
    if isinstance(spec, str):
        spec = parse_family(spec)
    return _FAMILIES[spec.tag](**spec.params)


def clique_union(a: int, clique: int, b: int) -> Graph:
    """a disjoint copies of K_clique plus one K_b (classical extremal shape)."""
    check_shape("a", 0, a)
    check_shape("clique", 1, clique)
    check_shape("b", 0, b)
    g = empty_graph(0)
    for _ in range(a):
        g = disjoint_union(g, complete_graph(clique))
    return disjoint_union(g, complete_graph(b))
