"""Duality for free structures: dual connections, semidirect products,
and the compatibility condition tying a bracket to a cobracket.

A pair (L, D) of equal-rank structures in Kronecker duality is
compatible when the differential induced by D acts as a degree-one
derivation of the bracket of L.  The condition has two equivalent
readings, one in degree one on L and one in all degrees on the exterior
algebra of D; both are computed on every call and must agree, on broken
input as well as on good input.  Both readings run the derivation
checker of ``gerst`` with the transported differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .calgebra import AElem, Derivation
from .gerst import Multivector, _derivation_witness, schouten_bracket
from .lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    ce_differential,
    dual_module,
    lr_violations,
    trivial_coefficients,
)
from .reporting import Violation
from .twilled import AlmostTwilled, dg_gerstenhaber_check, is_twilled


class DualPair:
    """Equal-rank structures identified by the Kronecker pairing: basis
    vector i of d is the coordinate form of basis vector i of l.  The
    compatibility report of each degree cap is kept once computed."""

    __slots__ = ("l", "d", "_reports")

    def __init__(self, l: LieRinehart, d: LieRinehart) -> None:
        if l.rank != d.rank:
            raise ValueError("rank mismatch")
        if l.alg != d.alg:
            raise ValueError("base algebra mismatch")
        self.l = l
        self.d = d
        self._reports: Dict[int, "BialgebraReport"] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualPair):
            return NotImplemented
        return self.l == other.l and self.d == other.d

    def __repr__(self) -> str:
        return f"DualPair(rank={self.l.rank})"


@dataclass(frozen=True)
class BialgebraReport:
    holds: bool
    witness: Optional[Tuple] = None

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise ValueError("witness only accompanies a failure")
        if not self.holds and self.witness is None:
            raise ValueError("failure requires a witness")


def dual_module_action(lr: LieRinehart, m: LRModule) -> LRModule:
    """The action on coordinate forms, (x . phi)(v) = x(phi(v)) - phi(x . v),
    of a flat action only.

    The table is ``lrcore.dual_module``.  The result of a flat input is
    flat again, and the defining identity is re-checked on all basis
    triples rather than trusted.
    """
    if m.lr != lr:
        raise ValueError("module parent mismatch")
    if not m.is_flat():
        raise ValueError("dual of a non-flat action is not defined here")
    r = m.rank
    dual = dual_module(m)
    for i in range(lr.rank):
        for j in range(r):
            for k in range(r):
                # <e_i . f*_k, f_j> + <f*_k, e_i . f_j> must vanish
                total = dual.action[i][k][j] + m.action[i][j][k]
                if not total.is_zero():
                    raise RuntimeError(f"pairing compatibility broken at {(i, j, k)}")
    if not dual.is_flat():
        raise RuntimeError("dual of a flat action came out non-flat")
    return dual


def semidirect_product(lr: LieRinehart, m: LRModule) -> LieRinehart:
    """Adjoin the module as an abelian ideal: [(x, u), (y, v)] =
    ([x, y], x.v - y.u), anchor through the first component only."""
    if m.lr != lr:
        raise ValueError("module parent mismatch")
    if not m.is_flat():
        raise ValueError("semidirect product needs a flat action")
    n, r = lr.rank, m.rank
    alg = lr.alg
    z = alg.zero()
    total = n + r
    table = [[None] * total for _ in range(total)]
    for i in range(n):
        for j in range(n):
            table[i][j] = tuple(lr.bracket[i][j]) + (z,) * r
    for i in range(n):
        for j in range(r):
            table[i][n + j] = (z,) * n + tuple(m.action[i][j])
            table[n + j][i] = (z,) * n + tuple(-c for c in m.action[i][j])
    for i in range(r):
        for j in range(r):
            table[n + i][n + j] = (z,) * total
    anchors = list(lr.anchor) + [Derivation.zero(alg)] * r
    out = LieRinehart(alg, total, table, anchors)
    bad = lr_violations(out)
    if bad:
        raise RuntimeError(f"semidirect product failed validation: {bad[0]}")
    return out


def _transport_differential(
    source: LieRinehart, triv: LRModule, target: LieRinehart, w: Multivector
) -> Multivector:
    """Apply the differential of `source` to a multivector over `target`,
    reading wedges over the target as forms on the source through the
    Kronecker pairing, degree by degree; `triv` is the trivial module of
    `source`, built once by the caller."""
    by_degree: Dict[int, Dict] = {}
    for key, c in w.values.items():
        by_degree.setdefault(len(key), {})[key] = (c,)
    out = Multivector.zero(target)
    for q, vals in by_degree.items():
        form = AltForm(source, triv, q, vals)
        df = ce_differential(source, triv, form)
        out = out.add(Multivector(target, {k: v[0] for k, v in df.values.items()}))
    return out


def bialgebra_check(p: DualPair, max_degree: int) -> BialgebraReport:
    """Compatibility of the pair, computed in both equivalent forms.

    Degree-one form, on basis pairs of l: the transported differential of
    d applied to a bracket equals the sum of brackets with differentiated
    slots.  All-degrees form, on basis wedges of d up to max_degree, with
    the sign (-1)^degree on the second slot.  The two verdicts must
    coincide; a disagreement is an internal error, not a report.  The
    report is computed once per pair and degree cap.
    """
    report = p._reports.get(max_degree)
    if report is None:
        report = p._reports[max_degree] = _compatibility(p, max_degree)
    return report


def _compatibility(p: DualPair, max_degree: int) -> BialgebraReport:
    l, d = p.l, p.d
    on_l = partial(_transport_differential, d, trivial_coefficients(d), l)
    vectors = [(i, Multivector.basis(l, i), 1) for i in range(l.rank)]
    found = _derivation_witness(vectors, schouten_bracket, on_l)
    on_d = partial(_transport_differential, l, trivial_coefficients(l), d)
    top = min(max_degree, d.rank)
    wedges = [
        (s, Multivector(d, {s: d.alg.one()}), q)
        for q in range(top + 1)
        for s in combinations(range(d.rank), q)
    ]
    holds1 = found is None
    holds2 = _derivation_witness(wedges, schouten_bracket, on_d) is None
    if holds1 != holds2:
        raise RuntimeError(
            f"the two forms of the compatibility condition disagree: {holds1} vs {holds2}"
        )
    if holds1:
        return BialgebraReport(True)
    i, j, diff = found
    key = sorted(diff.values)[0]
    return BialgebraReport(False, (1, (i, j), key, diff.values[key]))


def _permute_lr(lr: LieRinehart, perm: Sequence[int]) -> LieRinehart:
    """Relabel the basis: new index i is old index perm[i]."""
    n = lr.rank
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    table = [
        [
            tuple(lr.bracket[perm[i]][perm[j]][perm[k]] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    anchors = [lr.anchor[perm[i]] for i in range(n)]
    return LieRinehart(lr.alg, n, table, anchors)


def semidirect_dual_pair(t: AlmostTwilled) -> DualPair:
    """L := L' acting on the dual of its action on L'', extended as a
    semidirect product; D likewise with the roles swapped, then
    relabeled so the Kronecker pairing lines up with L.  Built once per
    pair and kept on it."""
    if t._dual_pair is None:
        t._dual_pair = _build_semidirect_dual_pair(t)
    return t._dual_pair


def _build_semidirect_dual_pair(t: AlmostTwilled) -> DualPair:
    l = semidirect_product(t.lprime, dual_module_action(t.lprime, t.module_on_second()))
    d_raw = semidirect_product(t.lsecond, dual_module_action(t.lsecond, t.module_on_prime()))
    np_, ns = t.lprime.rank, t.lsecond.rank
    # d_raw basis order: (f''_0..f''_{ns-1}, e'*_0..e'*_{np-1}); the dual
    # order of l's basis (e'_0.., f''*_0..) is (e'*_0.., f''_0..)
    perm = list(range(ns, ns + np_)) + list(range(ns))
    return DualPair(l, _permute_lr(d_raw, perm))


def semidirect_duality_check(t: AlmostTwilled, max_degree: int = 3) -> Dict:
    """Compatibility of the semidirect dual pair against the derivation
    property of the outer differential on the crossed bracket; the two
    sides are computed independently and compared."""
    pair = semidirect_dual_pair(t)
    bial = bialgebra_check(pair, max_degree)
    dg = dg_gerstenhaber_check(t)
    dg_ok = dg["square"] and dg["derivation"]
    report = {
        "bialgebra": bial.holds,
        "dg": dg_ok,
        "equivalent": bial.holds == dg_ok,
        "witnesses": {},
    }
    if not bial.holds:
        report["witnesses"]["bialgebra"] = bial.witness
    if not dg_ok:
        report["witnesses"]["dg"] = dg["witnesses"]
    return report


def twilled_vs_bialgebra_check(t: AlmostTwilled, max_degree: int = 3) -> Dict:
    """Twilledness of the pair against compatibility of its semidirect
    dual pair; both verdicts reported with witnesses."""
    bad = is_twilled(t)
    pair = semidirect_dual_pair(t)
    bial = bialgebra_check(pair, max_degree)
    report = {
        "twilled": not bad,
        "bialgebra": bial.holds,
        "equivalent": (not bad) == bial.holds,
        "witnesses": {},
    }
    if bad:
        report["witnesses"]["twilled"] = (bad[0].axiom, bad[0].witness)
    if not bial.holds:
        report["witnesses"]["bialgebra"] = bial.witness
    return report


def matched_pair_from_bialgebra(g: LieRinehart, cobracket: Sequence) -> AlmostTwilled:
    """Pair a structure over the rationals with a cobracket given as the
    structure constants of a bracket on the dual basis.

    The dual table must define a valid structure itself, and the
    resulting pair of coadjoint-type actions must satisfy the combined
    compatibility; either failure rejects the input with the witness.
    """
    if g.alg.dim != 1:
        raise ValueError("only the rational base is supported here")
    n = g.rank
    dual = LieRinehart(g.alg, n, cobracket, [Derivation.zero(g.alg)] * n)
    bad = lr_violations(dual)
    if bad:
        raise ValueError(f"cobracket is not a valid bracket on the dual: {bad[0]}")
    act_p_on_s = [
        [
            tuple(-g.bracket[i][m][j] for m in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    act_s_on_p = [
        [
            tuple(-dual.bracket[j][m][i] for m in range(n))
            for i in range(n)
        ]
        for j in range(n)
    ]
    t = AlmostTwilled(g, dual, act_p_on_s, act_s_on_p)
    r = twilled_vs_bialgebra_check(t, max_degree=2)
    if not (r["twilled"] and r["bialgebra"]):
        raise ValueError(f"bracket and cobracket are not compatible: {r['witnesses']}")
    return t
