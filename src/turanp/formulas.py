"""Closed-form Turan and degree-power Turan evaluators.

Every evaluator returns a FormulaResult carrying the exact value, the
validity window of the underlying theorem, and whether the requested n
meets it.  Out-of-window inputs still get the formula value (flagged
in_window=False) so the oracle can compare brute-force truth against
formula extrapolations below threshold.  When a theorem's threshold is
only "n sufficiently large" with no explicit constant, in_window is
False for every n and the window text says so; we never invent one.

All division is integer floor division, matching the floor notation of
the source results; decompositions like n = a(ell-1)+b are recomputed
per call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .patterns import (
    BroomPattern,
    ForestPattern,
    LinearForestPattern,
    PathPattern,
    StarForestPattern,
    StarPattern,
)


@dataclass(frozen=True)
class FormulaResult:
    value: int
    in_window: bool
    window: str
    source: str
    meta: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        out = {
            "value": str(self.value),
            "in_window": self.in_window,
            "window": self.window,
            "source": self.source,
        }
        if self.meta:
            out["meta"] = {k: str(v) for k, v in self.meta.items()}
        return out


@dataclass(frozen=True)
class UnspecifiedBase:
    """Structured outcome for the B_{5,s} reduction branch 1 <= b <= s:
    value = known_part + ex(base_n, B_{5,s}) with the base term not given
    in closed form.  Small bases can be resolved by the oracle."""

    known_part: int
    base_n: int
    s: int
    window: str
    source: str

    def total_given(self, base_value: int) -> int:
        return self.known_part + base_value

    def to_json(self) -> dict:
        return {
            "value": None,
            "in_window": True,
            "window": self.window,
            "source": self.source,
            "meta": {
                "known_part": str(self.known_part),
                "base_n": str(self.base_n),
                "base_pattern": f"broom:5,{self.s}",
            },
        }


_UNSPECIFIED = "threshold unspecified (holds for all sufficiently large n)"


# ---------------------------------------------------------------------
# classical Turan numbers
# ---------------------------------------------------------------------

def ex_path(n: int, ell: int) -> FormulaResult:
    """ex(n, P_ell) = a*C(ell-1,2) + C(b,2) with n = a(ell-1)+b,
    0 <= b < ell-1.  Exact for every n."""
    if ell < 2 or n < 0:
        raise ValueError("need ell >= 2 and n >= 0")
    a, b = divmod(n, ell - 1)
    value = a * comb(ell - 1, 2) + comb(b, 2)
    return FormulaResult(value, True, "all n", "faudree-schelp-1975",
                         {"a": a, "b": b})


def eg_bound(n: int, ell: int) -> int:
    """Upper bound ex(n, P_ell) <= (ell/2 - 1) n, floored."""
    if ell < 2 or n < 0:
        raise ValueError("need ell >= 2 and n >= 0")
    return n * (ell - 2) // 2


def ex_linear_forest(n: int, lengths) -> FormulaResult:
    """ex(n, F) = C(b,2) + b(n-b) + c for the linear forest F, where
    b = sum(floor(l_i/2)) - 1 and c = 1 iff every l_i is odd.  Not
    applicable to kP_3 with k >= 2 (use ex_kP3)."""
    lengths = sorted(lengths, reverse=True)
    if not lengths or any(l < 2 for l in lengths):
        raise ValueError("path orders must all be >= 2")
    if len(lengths) == 1:
        return ex_path(n, lengths[0])
    if all(l == 3 for l in lengths):
        raise ValueError("all components are P_3: use ex_kP3")
    k = len(lengths)
    b = sum(l // 2 for l in lengths) - 1
    c = 1 if all(l % 2 == 1 for l in lengths) else 0
    value = comb(b, 2) + b * (n - b) + c
    if all(l == 2 for l in lengths):
        window = f"n > 5k/2 - 1 = {(5 * k - 2) / 2:g}"
        in_window = 2 * n > 5 * k - 2
        source = "erdos-gallai-1959"
    elif len(set(lengths)) == 1:
        ell = lengths[0]
        n0 = 2 * ell + 2 * k * ell * (-(-ell // 2) + 1) * comb(ell, ell // 2)
        window = f"n >= {n0}"
        in_window = n >= n0
        source = "bushaw-kettle-2011"
    else:
        window = _UNSPECIFIED
        in_window = False
        source = "lidicky-liu-palmer-2013"
    return FormulaResult(value, in_window, window, source, {"b": b, "c": c})


def ex_kP3(n: int, k: int) -> FormulaResult:
    """ex(n, kP_3) = C(k-1,2) + (k-1)(n-k+1) + floor((n-k+1)/2)."""
    if k < 1:
        raise ValueError("need k >= 1")
    value = comb(k - 1, 2) + (k - 1) * (n - k + 1) + (n - k + 1) // 2
    if k == 1:
        return FormulaResult(value, True, "all n", "faudree-schelp-1975")
    return FormulaResult(value, n > 5 * k - 1, f"n > 5k - 1 = {5 * k - 1}",
                         "yuan-zhang-2017")


def ex_star_forest(n: int, degrees) -> FormulaResult:
    """ex(n, union of stars S_{r_1..r_k}) = max over 1 <= i <= k of
    (i-1)(n-i+1) + C(i-1,2) + floor((r_i-1)(n-i+1)/2)."""
    degrees = sorted(degrees, reverse=True)
    if not degrees or any(r < 1 for r in degrees):
        raise ValueError("star degrees must all be >= 1")
    vals = []
    for i in range(1, len(degrees) + 1):
        r = degrees[i - 1]
        vals.append((i - 1) * (n - i + 1) + comb(i - 1, 2)
                    + (r - 1) * (n - i + 1) // 2)
    value = max(vals)
    argmax = tuple(i + 1 for i, v in enumerate(vals) if v == value)
    return FormulaResult(value, False, _UNSPECIFIED, "lidicky-liu-palmer-2013",
                         {"argmax": argmax})


def ex_broom4(n: int, s: int) -> FormulaResult:
    """ex(n, B_{4,s}) for s >= 1, n >= s+4 (exact in that range)."""
    if s < 1:
        raise ValueError("need s >= 1 (B_{4,0} is P_4: use ex_path)")
    if n < s + 4:
        raise ValueError(f"need n >= s+4 = {s + 4}")
    a, b = divmod(n, s + 3)
    if s >= 3 and 2 <= b <= s:
        value = (a - 1) * comb(s + 3, 2) + (s + 1) * (s + 3 + b) // 2
        case = "near-regular"
    else:
        value = a * comb(s + 3, 2) + comb(b, 2)
        case = "cliques"
    return FormulaResult(value, True, f"n >= s+4 = {s + 4}", "sun-wang-2011",
                         {"a": a, "b": b, "case": case})


def ex_broom5_partial(n: int, s: int) -> FormulaResult | UnspecifiedBase:
    """ex(n, B_{5,s}) for s >= 1, n >= s+5.  Closed for
    b in {0, s+1, s+2, s+3}; for 1 <= b <= s only the reduction
    (a-1)*C(s+4,2) + ex(s+4+b, B_{5,s}) is known, returned structurally."""
    if s < 1:
        raise ValueError("need s >= 1 (B_{5,0} is P_5: use ex_path)")
    if n < s + 5:
        raise ValueError(f"need n >= s+5 = {s + 5}")
    a, b = divmod(n, s + 4)
    window = f"n >= s+5 = {s + 5}"
    if 1 <= b <= s:
        return UnspecifiedBase((a - 1) * comb(s + 4, 2), s + 4 + b, s,
                               window, "sun-wang-2011")
    value = a * comb(s + 4, 2) + comb(b, 2)
    return FormulaResult(value, True, window, "sun-wang-2011", {"a": a, "b": b})


# ---------------------------------------------------------------------
# degree-power construction values (evaluated from degree multisets, so
# closed forms cannot drift from the constructions they describe)
# ---------------------------------------------------------------------

def ep_h_linear_forest_value(n: int, lengths, p: int) -> int:
    """e_p(H(n,F)) straight from the degree multiset of H(n,F)."""
    b = sum(l // 2 for l in lengths) - 1
    if all(l % 2 == 1 for l in lengths):
        return b * (n - 1) ** p + (n - b - 2) * b ** p + 2 * (b + 1) ** p
    return b * (n - 1) ** p + (n - b) * b ** p


def ep_k_join_matching_value(n: int, k: int, p: int) -> int:
    """e_p(K_{k-1} + M_{n-k+1}) from its degree multiset."""
    m = n - k + 1
    return ((k - 1) * (n - 1) ** p + 2 * (m // 2) * k ** p
            + (m % 2) * (k - 1) ** p)


def exp_path(n: int, ell: int, p: int) -> FormulaResult:
    """ex_p(n, P_ell): exact classic values for ell in {2,3} (all n);
    e_p(H(n,ell)) for ell >= 4 and sufficiently large n."""
    if ell < 2:
        raise ValueError("need ell >= 2")
    if ell <= 3:
        if p < 1:
            raise ValueError("need p >= 1")
        if ell == 2:
            value = 0
        else:
            value = n - 1 if n % 2 == 1 else n
        return FormulaResult(value, True, "all n", "caro-yuster-2000")
    if p < 2:
        raise ValueError("need p >= 2 for ell >= 4")
    value = ep_h_linear_forest_value(n, [ell], p)
    return FormulaResult(value, False, _UNSPECIFIED, "caro-yuster-2000",
                         {"b": ell // 2 - 1})


def exp_star(n: int, r: int, p: int) -> FormulaResult:
    """ex_p(n, S_r), exact for every n and p >= 1."""
    if r < 1 or p < 1:
        raise ValueError("need r >= 1 and p >= 1")
    if n <= r - 1:
        value = n * (n - 1) ** p
        case = "complete"
    elif (r - 1) * n % 2 == 1:
        value = (n - 1) * (r - 1) ** p + (r - 2) ** p
        case = "near-regular odd"
    else:
        value = n * (r - 1) ** p
        case = "near-regular even"
    return FormulaResult(value, True, "all n", "caro-yuster-2000", {"case": case})


def exp_star_forest(n: int, degrees, p: int) -> FormulaResult:
    """ex_p(n, union of k >= 2 stars) = e_p(G(n,k,r_k)) for sufficiently
    large n.  "One of r_k-1 and n-k+1 is even" reads inclusively (both
    even included); the formula below is exactly the degree multiset of
    K_{k-1} + near-(r_k - 1)-regular."""
    degrees = sorted(degrees, reverse=True)
    if len(degrees) < 2:
        raise ValueError("need k >= 2 stars (use exp_star for one star)")
    if any(r < 1 for r in degrees) or p < 2:
        raise ValueError("need star degrees >= 1 and p >= 2")
    k = len(degrees)
    rk = degrees[-1]
    if (rk - 1) % 2 == 0 or (n - k + 1) % 2 == 0:
        value = (k - 1) * (n - 1) ** p + (n - k + 1) * (rk + k - 2) ** p
    else:
        value = ((k - 1) * (n - 1) ** p + (n - k) * (rk + k - 2) ** p
                 + (rk + k - 3) ** p)
    return FormulaResult(value, False, _UNSPECIFIED,
                         "star-forest-degree-power-theorem", {"r_k": rk})


def exp_linear_forest(n: int, lengths, p: int) -> FormulaResult:
    """ex_p(n, F) = e_p(H(n,F)) for a linear forest F with k >= 2
    components, not all P_3, and sufficiently large n."""
    lengths = sorted(lengths, reverse=True)
    if len(lengths) < 2:
        raise ValueError("need k >= 2 paths (use exp_path for one path)")
    if any(l < 2 for l in lengths) or p < 2:
        raise ValueError("need path orders >= 2 and p >= 2")
    if all(l == 3 for l in lengths):
        raise ValueError("all components are P_3: use exp_kP3")
    value = ep_h_linear_forest_value(n, lengths, p)
    b = sum(l // 2 for l in lengths) - 1
    return FormulaResult(value, False, _UNSPECIFIED,
                         "linear-forest-degree-power-theorem", {"b": b})


def exp_kP3(n: int, k: int, p: int) -> FormulaResult:
    """ex_p(n, kP_3) = e_p(K_{k-1} + M_{n-k+1}) for sufficiently large n."""
    if k < 2 or p < 2:
        raise ValueError("need k >= 2 and p >= 2 (use exp_path for P_3)")
    if n < k:
        raise ValueError("need n >= k")
    value = ep_k_join_matching_value(n, k, p)
    return FormulaResult(value, False, _UNSPECIFIED, "kp3-degree-power-corollary")


def exp_broom(n: int, ell: int, s: int, p: int) -> FormulaResult:
    """ex_p(n, B_{ell,s}) for ell in {4,5,6,7}.

    ell=4, s>=1: e_p(S_{n-1}), window n > 2(s+4).
    ell=5, s>=1: e_p(K_1 + M_{n-1}), window n > (2s+10)^2.
    ell=5, s=0:  e_p(H(n,5)), same window.
    ell=6: e_p(H(n,6)), window n > (2s+12)^2.
    ell=7: e_p(H(n,7)), window n > (3s+31)^2.
    B_{ell,0} = P_ell, so s=0 values coincide with exp_path."""
    if ell not in (4, 5, 6, 7):
        raise ValueError("broom closed forms cover ell in {4,5,6,7}")
    if s < 0 or p < 2:
        raise ValueError("need s >= 0 and p >= 2")
    if ell == 4:
        if s == 0:
            return exp_path(n, 4, p)
        value = (n - 1) ** p + (n - 1)
        return FormulaResult(value, n > 2 * (s + 4), f"n > 2(s+4) = {2 * (s + 4)}",
                             "caro-yuster-2000")
    if ell == 5:
        thr = (2 * s + 10) ** 2
        if s == 0:
            value = ep_h_linear_forest_value(n, [5], p)
        else:
            value = ep_k_join_matching_value(n, 2, p)
        return FormulaResult(value, n > thr, f"n > (2s+10)^2 = {thr}",
                             "broom5-degree-power-theorem")
    if ell == 6:
        thr = (2 * s + 12) ** 2
        value = ep_h_linear_forest_value(n, [6], p)
        return FormulaResult(value, n > thr, f"n > (2s+12)^2 = {thr}",
                             "broom6-degree-power-theorem")
    thr = (3 * s + 31) ** 2
    value = ep_h_linear_forest_value(n, [7], p)
    return FormulaResult(value, n > thr, f"n > (3s+31)^2 = {thr}",
                         "broom7-degree-power-theorem")


def exp_turan_clique(n: int, r: int, p: int) -> FormulaResult:
    """e_p(T_r(n)); equals ex_p(n, K_{r+1}) for p in {1,2,3} (for p >= 4
    unbalanced complete bipartite graphs can beat the Turan graph)."""
    if r < 1 or p < 1 or n < 0:
        raise ValueError("need r >= 1, p >= 1, n >= 0")
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    value = sum(size * (n - size) ** p for size in sizes)
    return FormulaResult(value, p in (1, 2, 3), "p in {1,2,3} (any n)",
                         "caro-yuster-2000")


# ---------------------------------------------------------------------
# lemma instance checks
# ---------------------------------------------------------------------

def _ep_extremal(ell: int, n: int, p: int, variant: str) -> int:
    if variant == "a":
        return ep_k_join_matching_value(n, 2, p)
    return ep_h_linear_forest_value(n, [ell], p)


def lemma_superadd_check(ell: int, n1: int, n2: int, p: int,
                         variant: str = "b") -> bool:
    """Strict superadditivity of the broom extremal values:
    e_p(X(n1)) + e_p(X(n2)) < e_p(X(n1+n2)) where X is K_1+M_{n-1}
    (variant "a", ell=5) or H(n,ell) (variant "b", ell >= 5)."""
    if variant not in ("a", "b"):
        raise ValueError("variant must be 'a' or 'b'")
    if variant == "a" and ell != 5:
        raise ValueError("variant 'a' is the ell=5 (K_1+M) case")
    if p < 2 or ell < 5 or min(n1, n2) < ell:
        raise ValueError("need p >= 2 and n1, n2 >= ell >= 5")
    lhs = _ep_extremal(ell, n1, p, variant) + _ep_extremal(ell, n2, p, variant)
    rhs = _ep_extremal(ell, n1 + n2, p, variant)
    return lhs < rhs


def lemma_absorb_check(ell: int, s: int, h: int, hstar: int, d: int, p: int,
                       variant: str = "b") -> bool:
    """Absorption of a bounded-degree remainder: with n = h + hstar >
    (ell+s+d)^2, h >= ell, and any graph G* on hstar vertices with
    max degree <= d (so e_p(G*) <= hstar * d**p, the worst case checked
    here), e_p(X(h)) + e_p(G*) < e_p(X(n))."""
    if variant not in ("a", "b"):
        raise ValueError("variant must be 'a' or 'b'")
    if variant == "a" and ell != 5:
        raise ValueError("variant 'a' is the ell=5 (K_1+M) case")
    if p < 2 or ell < 5 or s < 0 or d < 0:
        raise ValueError("need p >= 2, ell >= 5, s >= 0, d >= 0")
    n = h + hstar
    if hstar <= 0 or h < ell:
        raise ValueError("need hstar > 0 and h >= ell")
    if n <= (ell + s + d) ** 2:
        raise ValueError(f"need n = h+hstar > (ell+s+d)^2 = {(ell + s + d) ** 2}")
    lhs = _ep_extremal(ell, h, p, variant) + hstar * d ** p
    rhs = _ep_extremal(ell, n, p, variant)
    return lhs < rhs


# ---------------------------------------------------------------------
# pattern -> formula dispatch (oracle comparisons)
# ---------------------------------------------------------------------

def _double(res: FormulaResult) -> FormulaResult:
    return FormulaResult(2 * res.value, res.in_window, res.window, res.source,
                         dict(res.meta, doubled="ex_1 = 2 ex"))


def formula_for_pattern(pattern: ForestPattern, n: int, p: int) -> FormulaResult | None:
    """Best matching closed form for max e_p over pattern-free graphs on n
    vertices (p = 1 routes to twice the classical Turan number).  Returns
    None where no closed form applies, including n below the range of the
    B_{4,s}, B_{5,s} (n >= ell+s) and kP_3 (n >= k) results; a ValueError
    from an evaluator is a bug, not "no formula"."""
    if isinstance(pattern, PathPattern):
        if p == 1 and pattern.ell >= 4:
            return _double(ex_path(n, pattern.ell))
        return exp_path(n, pattern.ell, p)
    if isinstance(pattern, StarPattern):
        return exp_star(n, pattern.r, p)
    if isinstance(pattern, StarForestPattern):
        if len(pattern.degrees) == 1:
            return exp_star(n, pattern.degrees[0], p)
        if p == 1:
            return _double(ex_star_forest(n, pattern.degrees))
        return exp_star_forest(n, pattern.degrees, p)
    if isinstance(pattern, LinearForestPattern):
        lengths = pattern.lengths
        if len(lengths) == 1:
            return formula_for_pattern(PathPattern(lengths[0]), n, p)
        if all(l == 3 for l in lengths):
            k = len(lengths)
            if p == 1:
                return _double(ex_kP3(n, k))
            return exp_kP3(n, k, p) if n >= k else None
        if p == 1:
            return _double(ex_linear_forest(n, lengths))
        return exp_linear_forest(n, lengths, p)
    if isinstance(pattern, BroomPattern):
        ell, s = pattern.ell, pattern.s
        if s == 0:
            return formula_for_pattern(PathPattern(ell), n, p)
        if ell not in (4, 5, 6, 7):
            return None
        if p == 1:
            if n < ell + s:
                return None
            if ell == 4:
                return _double(ex_broom4(n, s))
            if ell == 5:
                res = ex_broom5_partial(n, s)
                return _double(res) if isinstance(res, FormulaResult) else None
            return None
        return exp_broom(n, ell, s, p)
    raise TypeError(f"not a ForestPattern: {pattern!r}")
