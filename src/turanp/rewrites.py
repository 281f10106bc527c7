"""Degree-power-increasing rewrites of pendent structures.

A connected host C with a reference vertex v of maximum degree at least
ell+s-1 can have five kinds of pendent structures hanging off an anchor
x != v: a pendent edge, triangle, diamond, spindle (t >= 2 shared leaves
between x and a hub z), or spindle+ (same plus the xz edge).  Peripheral
vertices have no neighbours outside the structure.  Rewiring the
structure's vertices onto v preserves broom-freeness, keeps v of maximum
degree, and strictly increases e_p for every p >= 2 (p = 1 can decrease:
the triangle rewrite deletes a net edge).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, iter_bits

KINDS = ("edge", "triangle", "diamond", "spindle", "spindle_plus")
# peripherals per kind; a spindle has its hub and any t >= 2 leaves
_SIZE = {"edge": 1, "triangle": 2, "diamond": 3}


class SiteError(ValueError):
    """Site is stale or violates its structural conditions."""


@dataclass(frozen=True)
class PendentSite:
    """A pendent structure at anchor x, relative to reference vertex v.

    vertices holds the peripherals: (y,) for edge; (y, y') for triangle;
    (z, y, y') for diamond; (z, y_1, ..., y_t) for spindle/spindle+."""

    kind: str
    x: int
    vertices: tuple[int, ...]
    v: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown site kind {self.kind!r}")

    def all_vertices(self) -> tuple[int, ...]:
        return (self.x,) + self.vertices

    def to_json(self) -> dict:
        return {"kind": self.kind, "x": self.x, "v": self.v,
                "vertices": list(self.vertices)}


def find_sites(g: Graph, v: int) -> list[PendentSite]:
    """All pendent sites of the connected graph g relative to v, in a
    deterministic order.  Complete: every structure matching one of the
    five definitions is listed.

    Peripherals have no neighbours outside their structure, so a site's
    peripherals are exactly one component C of G - x that does not hold
    v; and in a diamond, spindle or spindle+ the hub z is adjacent to
    every other peripheral.  So each such C is tried as an edge (|C| = 1),
    a triangle (|C| = 2), or else as each of the other kinds with vertices
    (z, *rest ascending) for every z adjacent to all of C - z; a candidate
    is kept when _validate_site, and so the shape's one edge list, accepts
    it."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not g.is_connected():
        raise ValueError("host graph must be connected")
    sites: list[PendentSite] = []
    for x in range(g.n):
        if x == v:
            continue
        cut = ~(1 << x)
        rows = tuple(row & cut if u != x else 0 for u, row in enumerate(g.rows))
        for comp in Graph(g.n, rows).components():
            if comp & (1 << v | 1 << x):
                continue
            c = tuple(iter_bits(comp))
            if len(c) < 3:
                candidates = [PendentSite("edge" if len(c) == 1 else "triangle", x, c, v)]
            else:
                candidates = [PendentSite(kind, x, (z, *(u for u in c if u != z)), v)
                              for z in c if rows[z] | 1 << z == comp
                              for kind in ("diamond", "spindle", "spindle_plus")]
            for site in candidates:
                try:
                    _validate_site(g, v, site)
                except SiteError:
                    continue
                sites.append(site)
    rank = {k: i for i, k in enumerate(KINDS)}
    sites.sort(key=lambda s: (rank[s.kind], s.x, s.vertices))
    return sites


def _structure_edges(site: PendentSite) -> list[tuple[int, int]]:
    """The edges of the structure a site names.  Each leaf is joined to
    the anchor x and, for a diamond or spindle, to the hub z; a triangle
    or diamond adds the rim edge between its two leaves, a spindle+ the
    edge xz."""
    kind = site.kind
    if kind in ("edge", "triangle"):
        ends, leaves = (site.x,), site.vertices
    else:
        ends, leaves = (site.x, site.vertices[0]), site.vertices[1:]
    edges = [(a, y) for a in ends for y in leaves]
    if kind in ("triangle", "diamond"):
        edges.append(leaves)
    if kind == "spindle_plus":
        edges.append(ends)
    return edges


def _validate_site(g: Graph, v: int, site: PendentSite) -> None:
    verts = site.all_vertices()
    if v in verts or len(set(verts)) != len(verts):
        raise SiteError("site vertices must be distinct and exclude v")
    if any(not 0 <= u < g.n for u in verts):
        raise SiteError("site vertex out of range")
    invalid = SiteError(f"stale or invalid {site.kind} site at x={site.x}")
    size = len(site.vertices)
    if (size != _SIZE[site.kind] if site.kind in _SIZE else size < 3):
        raise invalid
    # each peripheral's neighbours are exactly its structure neighbours;
    # every structure edge has a peripheral end, so all of them are present
    inside = dict.fromkeys(site.vertices, 0)
    for a, b in _structure_edges(site):
        if a in inside:
            inside[a] |= 1 << b
        if b in inside:
            inside[b] |= 1 << a
    if any(g.rows[u] != mask for u, mask in inside.items()):
        raise invalid


def apply_rewrite(g: Graph, v: int, site: PendentSite, ell: int, s: int) -> Graph:
    """Rewire the site onto v: delete the structure's edges and connect
    its peripherals (and hub, where present) to v.  Requires v to have
    maximum degree at least ell+s-1; the result then stays B_{ell,s}-free
    whenever g was, keeps v at maximum degree, and has strictly larger
    e_p for every p >= 2."""
    if not g.is_connected():
        raise SiteError("host graph must be connected")
    _validate_site(g, v, site)
    dv = g.degree(v)
    if dv != g.max_degree():
        raise SiteError("v must have maximum degree")
    if dv < ell + s - 1:
        raise SiteError(f"need d(v) >= ell+s-1 = {ell + s - 1}, have {dv}")
    rows = list(g.rows)
    for a, b in _structure_edges(site):
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
    for u in site.vertices:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def demo_instance(kind: str, ell: int, s: int,
                  rng: random.Random) -> tuple[Graph, int, PendentSite]:
    """Random host in the shape the rewrites are used on: a large star at
    v (guaranteeing the maximum-degree condition), one planted pendent
    structure at a neighbour x of v, and a few extra star leaves."""
    if kind not in KINDS:
        raise ValueError(f"unknown site kind {kind!r}")
    if ell < 5 or s < 0:
        raise ValueError("need ell >= 5 and s >= 0")
    base = max(ell + s - 1, 7) + rng.randint(0, 1)
    v = 0
    edges = [(v, i) for i in range(1, base + 1)]
    x = rng.randint(1, base)
    size = _SIZE[kind] if kind in _SIZE else 1 + rng.randint(2, 3)
    site = PendentSite(kind, x, tuple(range(base + 1, base + 1 + size)), v)
    edges += _structure_edges(site)
    nxt = base + 1 + size
    for _ in range(rng.randint(0, 2)):
        edges.append((v, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges), v, site
