"""Pendent sites: discovery, rewiring, and the increase/freeness lemma."""
import itertools
import random

import pytest

from turanp.families import complete_graph, h_path, k_join_matching
from turanp.graphs import Graph, ep_value
from turanp.oracle import nonisomorphic_graphs
from turanp.patterns import BroomPattern, is_free
from turanp.rewrites import (
    KINDS,
    PendentSite,
    SiteError,
    _validate_site,
    apply_rewrite,
    demo_instance,
    find_sites,
)


def star_host(extra_edges, leaves=6, n_extra=0):
    """Star at vertex 0 with `leaves` leaves, plus extra structure."""
    n = leaves + 1 + n_extra
    edges = [(0, i) for i in range(1, leaves + 1)] + extra_edges
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------
# site discovery
# ---------------------------------------------------------------------

def test_pendant_path_edge_site():
    # v plus star leaves, one leaf x = 1 extended by a pendant y = 7
    g = star_host([(1, 7)], leaves=6, n_extra=1)
    sites = find_sites(g, 0)
    assert sites == [PendentSite("edge", 1, (7,), 0)]


def test_triangle_site():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    sites = find_sites(g, 0)
    assert sites == [PendentSite("triangle", 1, (2, 3), 0)]


def test_k4_has_no_sites():
    assert find_sites(complete_graph(4), 0) == []


def test_diamond_site_and_strict_xz_reading():
    g = Graph.from_edges(5, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert find_sites(g, 0) == [PendentSite("diamond", 1, (2, 3, 4), 0)]
    # with the xz chord present this is no pendent structure at all
    g2 = g.with_edge(1, 2)
    assert find_sites(g2, 0) == []


def test_spindle_sites():
    g = Graph.from_edges(5, [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert find_sites(g, 0) == [PendentSite("spindle", 1, (2, 3, 4), 0)]
    g2 = g.with_edge(1, 2)
    assert find_sites(g2, 0) == [PendentSite("spindle_plus", 1, (2, 3, 4), 0)]


def test_spindle_takes_all_hub_leaves():
    # hub z=2 with three shared leaves: only the t=3 spindle is a site
    g = Graph.from_edges(6, [(0, 1), (1, 3), (1, 4), (1, 5),
                             (2, 3), (2, 4), (2, 5)])
    sites = find_sites(g, 0)
    assert sites == [PendentSite("spindle", 1, (2, 3, 4, 5), 0)]


def test_find_sites_requires_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        find_sites(g, 0)


def test_find_sites_rejects_v_out_of_range():
    g = star_host([(1, 7)], leaves=6, n_extra=1)
    for v in (g.n, -1):
        with pytest.raises(ValueError, match="out of range"):
            find_sites(g, v)


def _every_valid_site(g, v):
    """Every site _validate_site accepts among all vertex tuples in the
    canonical form (an edge or triangle in ascending order, otherwise a
    hub followed by at least two more in ascending order), in
    find_sites's order."""
    sites = []
    for kind in KINDS:
        for x in range(g.n):
            others = [u for u in range(g.n) if u not in (x, v)]
            if kind in ("edge", "triangle"):
                tuples = itertools.combinations(others, 1 if kind == "edge" else 2)
            else:
                tuples = sorted((z, *(u for u in subset if u != z))
                                for size in range(3, len(others) + 1)
                                for subset in itertools.combinations(others, size)
                                for z in subset)
            for vertices in tuples:
                site = PendentSite(kind, x, vertices, v)
                try:
                    _validate_site(g, v, site)
                except SiteError:
                    continue
                sites.append(site)
    return sites


def test_find_sites_is_complete_on_small_graphs():
    pairs = 0
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            if not g.is_connected():
                continue
            for v in range(n):
                assert find_sites(g, v) == _every_valid_site(g, v), (g, v)
                pairs += 1
    assert pairs == 810


def test_find_sites_on_dense_extremal_hosts():
    for g in (complete_graph(64), h_path(64, 7), k_join_matching(64, 2)):
        assert find_sites(g, 0) == []  # v = 0 is universal, so G - x is connected
    # away from the universal vertex 0, each matching edge of K_1 + M_63 is a
    # triangle at x = 0 and the unmatched vertex 63 a pendent edge
    expected = [PendentSite("edge", 0, (63,), 1)] + [
        PendentSite("triangle", 0, (y, y + 1), 1) for y in range(3, 63, 2)]
    assert find_sites(k_join_matching(64, 2), 1) == expected


# ---------------------------------------------------------------------
# rewiring
# ---------------------------------------------------------------------

def test_apply_edge_rewrite_degrees():
    g = star_host([(1, 7)], leaves=6, n_extra=1)
    (site,) = find_sites(g, 0)
    out = apply_rewrite(g, 0, site, 5, 1)
    assert out.degree(0) == g.degree(0) + 1
    assert out.degree(1) == g.degree(1) - 1
    assert out.degree(7) == 1
    assert out.has_edge(0, 7) and not out.has_edge(1, 7)
    for p in (2, 3, 4):
        assert ep_value(out, p) > ep_value(g, p)


def test_apply_triangle_rewrite_degrees():
    g = star_host([(1, 7), (1, 8), (7, 8)], leaves=6, n_extra=2)
    (site,) = find_sites(g, 0)
    assert site.kind == "triangle"
    out = apply_rewrite(g, 0, site, 6, 1)
    assert out.degree(0) == g.degree(0) + 2
    assert out.degree(1) == g.degree(1) - 2
    assert out.degree(7) == 1 and out.degree(8) == 1  # dropped from 2 to 1


def test_apply_spindle_plus_hub_degree_drop():
    g = star_host([(1, 8), (1, 9), (10, 8), (10, 9), (1, 10)], leaves=7, n_extra=3)
    (site,) = find_sites(g, 0)
    assert site.kind == "spindle_plus" and site.vertices == (10, 8, 9)
    assert g.degree(10) == 3  # t+1 with t=2
    out = apply_rewrite(g, 0, site, 7, 1)
    assert out.degree(10) == 1
    assert out.degree(0) == g.degree(0) + 3


def test_apply_rejects_stale_or_small_degree():
    g = star_host([(1, 7)], leaves=6, n_extra=1)
    (site,) = find_sites(g, 0)
    with pytest.raises(SiteError):
        apply_rewrite(g, 0, site, 7, 2)  # needs d(v) >= 8, have 7
    out = apply_rewrite(g, 0, site, 5, 1)
    with pytest.raises(SiteError):
        apply_rewrite(out, 0, site, 5, 1)  # site gone after rewiring
    small = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(SiteError):
        apply_rewrite(small, 0, PendentSite("edge", 2, (3,), 0), 5, 0)
    with pytest.raises(SiteError, match="site vertex out of range"):
        apply_rewrite(g, 0, PendentSite("edge", 1, (g.n,), 0), 5, 1)


def test_every_kind_rejects_a_wrong_site():
    sites = {}
    for kind in KINDS:
        g, v, site = demo_instance(kind, 7, 1, random.Random(9))
        apply_rewrite(g, v, site, 7, 1)
        sites[kind] = g, v, site
    wrong = []
    g, v, site = sites["diamond"]
    z = site.vertices[0]
    wrong.append((g.with_edge(site.x, z), v, site))  # the chord xz added
    for kind, other in (("spindle", "spindle_plus"), ("spindle_plus", "spindle")):
        g, v, site = sites[kind]
        wrong.append((g, v, PendentSite(other, site.x, site.vertices, v)))
    g, v, site = sites["spindle"]
    hub_and_one_leaf = site.vertices[:2]
    wrong.append((g, v, PendentSite("spindle", site.x, hub_and_one_leaf, v)))
    g, v, site = sites["triangle"]
    wrong.append((g, v, PendentSite("edge", site.x, site.vertices[:1], v)))
    for g, v, site in wrong:
        with pytest.raises(SiteError, match="stale or invalid"):
            apply_rewrite(g, v, site, 7, 1)


def test_wrong_vertex_count_is_a_site_error():
    # each kind has a fixed number of peripherals (a spindle at least 3)
    for kind in ("edge", "triangle", "diamond"):
        g, v, site = demo_instance(kind, 7, 1, random.Random(9))
        spare = next(u for u in range(g.n) if u != v and u not in site.all_vertices())
        for vertices in (site.vertices[:-1], site.vertices + (spare,)):
            with pytest.raises(SiteError, match="stale or invalid"):
                apply_rewrite(g, v, PendentSite(kind, site.x, vertices, v), 7, 1)
    g, v, site = demo_instance("triangle", 7, 1, random.Random(9))
    with pytest.raises(SiteError, match="stale or invalid"):
        apply_rewrite(g, v, PendentSite("edge", site.x, site.vertices, v), 7, 1)


def test_only_v_gains_degree():
    rng = random.Random(2)
    for kind in KINDS:
        g, v, site = demo_instance(kind, 7, 1, rng)
        out = apply_rewrite(g, v, site, 7, 1)
        for u in range(g.n):
            if u != v:
                assert out.degree(u) <= g.degree(u)
        assert out.degree(v) > g.degree(v)
        assert out.is_connected()


def test_generated_instances_properties():
    kind_ell = {"edge": 5, "triangle": 6, "diamond": 7,
                "spindle": 7, "spindle_plus": 7}
    for kind in KINDS:
        for i in range(20):
            rng = random.Random(1000 * KINDS.index(kind) + i)
            ell = kind_ell[kind]
            s = i % 3
            g, v, site = demo_instance(kind, ell, s, rng)
            assert site in find_sites(g, v)
            out = apply_rewrite(g, v, site, ell, s)
            for p in (2, 3, 4):
                assert ep_value(out, p) > ep_value(g, p)
            assert out.degree(v) == out.max_degree() >= ell + s - 1
            # freeness preservation across the broom grid, wherever the
            # degree precondition holds and the host is free
            for ell2 in (5, 6, 7):
                for s2 in (0, 1, 2):
                    if g.degree(v) < ell2 + s2 - 1:
                        continue
                    if is_free(g, BroomPattern(ell2, s2)) is True:
                        assert is_free(out, BroomPattern(ell2, s2)) is True, (
                            f"{kind}#{i} lost B_({ell2},{s2})-freeness")


def test_demo_instance_nonvacuous_freeness():
    # the default (kind, ell) pairings give hosts that really are free,
    # so the preservation property bites
    kind_ell = {"edge": 5, "triangle": 6, "diamond": 7,
                "spindle": 7, "spindle_plus": 7}
    for kind, ell in kind_ell.items():
        g, v, site = demo_instance(kind, ell, 1, random.Random(9))
        assert is_free(g, BroomPattern(ell, 1)) is True
