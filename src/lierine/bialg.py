"""Duality for free structures: dual connections, semidirect products,
and the compatibility condition tying a bracket to a cobracket.

A pair (L, D) of equal-rank structures in Kronecker duality is
compatible when the differential induced by D acts as a degree-one
derivation of the bracket of L.  ``bialgebra_check`` computes the
condition in its two equivalent readings, one in degree one on L and one
in all degrees on the exterior algebra of D; both are computed on every
call and must agree, on broken input as well as on good input.  With
both sides valid the residual of the second is a biderivation (see
``gerst``), so it runs on the unit wedges of degree at most 1 whatever the
cap.  Both readings run the derivation checker of ``gerst`` on label
tables built for each call: the Schouten bracket of each side memoised per
label pair, each atom x atom entry ``schouten_bracket`` on the two label
elements, and the transported differential as sparse label columns read
off the columns that ``lrcore.ce_columns`` keeps for the other side with
trivial coefficients, shared with the flatness check of that module.

``matched_pair_from_bialgebra`` takes a Lie algebra over Q and a
cobracket and builds no dual pair: there compatibility is Drinfeld's
cocycle condition, one ``ce_differential`` of the cobracket in degree one
with values in Lambda^2 of the adjoint module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Sequence, Tuple

from .calgebra import Derivation
from .gerst import GeneratorOp, _basis_multivectors, _derivation_witness, _flat_tables, _vector
from .lrcore import (
    AltForm,
    LieRinehart,
    LRModule,
    ce_columns,
    ce_differential,
    dual_module,
    exterior_power,
    lr_violations,
    require_valid,
    trivial_coefficients,
)
from .twilled import AlmostTwilled, dg_gerstenhaber_check, is_twilled, twilled_sum


class DualPair:
    """Equal-rank structures identified by the Kronecker pairing: basis
    vector i of d is the coordinate form of basis vector i of l.  The
    compatibility report, one for every cap, is kept once computed."""

    __slots__ = ("l", "d", "_report")

    def __init__(self, l: LieRinehart, d: LieRinehart) -> None:
        if l.rank != d.rank:
            raise ValueError("rank mismatch")
        if l.alg != d.alg:
            raise ValueError("base algebra mismatch")
        self.l = l
        self.d = d
        self._report: Optional["BialgebraReport"] = None

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
    ([x, y], x.v - y.u), anchor through the first component only.  It is
    the combined structure (``twilled_sum``) of lr and an abelian structure
    on the module's basis, lr acting by the module's table and nothing
    acting back."""
    return _semidirect(lr, m, False)


def _semidirect(lr: LieRinehart, m: LRModule, ideal_first: bool) -> LieRinehart:
    """``semidirect_product``, the ideal's block first when ideal_first."""
    if m.lr != lr:
        raise ValueError("module parent mismatch")
    if not m.is_flat():
        raise ValueError("semidirect product needs a flat action")
    z, n = lr.alg.zero(), m.rank
    ideal = LieRinehart(lr.alg, n, [[(z,) * n] * n] * n, [Derivation.zero(lr.alg)] * n)
    zero = [[(z,) * lr.rank] * lr.rank] * n
    sides = (ideal, lr, zero, m.action) if ideal_first else (lr, ideal, m.action, zero)
    out = twilled_sum(AlmostTwilled(*sides))
    bad = lr_violations(out)
    if bad:
        raise RuntimeError(f"semidirect product failed validation: {bad[0]}")
    return out


def _transported(source: LieRinehart, target: LieRinehart) -> GeneratorOp:
    """The differential of `source` on the multivectors of its dual partner
    `target`, read as forms on `source` through the Kronecker pairing: the
    column of a label (t, (), S) is the kept column (S, 0, t) of
    ``ce_columns`` of `source` with trivial coefficients, read on first
    use, its rows (S', 0, t') read as labels (t', (), S'); it raises the
    degree by one."""

    def read(label: Tuple) -> Dict:
        t, _, key = label
        column = ce_columns(source, trivial_coefficients(source), len(key)).get((key, 0, t), ())
        return {(s, (), row): x for (row, _, s), x in column}

    return GeneratorOp._of(target, {}, read, (0, 1))


def bialgebra_check(p: DualPair, max_degree: int) -> BialgebraReport:
    """Compatibility of the pair, computed in both equivalent forms.

    Degree-one form, on basis pairs of l: the transported differential of
    d applied to a bracket equals the sum of brackets with differentiated
    slots.  All-degrees form, on the unit wedges of d, with the sign
    (-1)^degree on the second slot, decided on those of degree at most 1
    (see the module docstring), so the report does not depend on the cap.
    The two verdicts must coincide; a disagreement is an internal error,
    not a report.  The report is computed once per pair.  A cap below 1
    or an invalid l or d is rejected.
    """
    if max_degree < 1:
        raise ValueError(f"the degree cap must be at least 1, got {max_degree}")
    require_valid(p.l)
    require_valid(p.d)
    if p._report is None:
        p._report = _compatibility(p)
    return p._report


def _compatibility(p: DualPair) -> BialgebraReport:
    """Both readings, the second on the unit wedges of degree at most 1."""
    l, d = p.l, p.d
    vectors = [(i, _vector({((), (i,)): l.alg.one()}), 1) for i in range(l.rank)]
    found = _derivation_witness(vectors, _flat_tables(l), _transported(d, l))
    wedges = [(s, _vector({((), s): d.alg.one()}), len(s)) for t, s in _basis_multivectors(d, 1) if t == 0]
    holds1 = found is None
    holds2 = _derivation_witness(wedges, _flat_tables(d), _transported(l, d)) is None
    if holds1 != holds2:
        raise RuntimeError(
            f"the two forms of the compatibility condition disagree: {holds1} vs {holds2}"
        )
    if holds1:
        return BialgebraReport(True)
    i, j, diff = found
    key = sorted(diff.values)[0]
    return BialgebraReport(False, (1, (i, j), key, diff.values[key]))


def semidirect_dual_pair(t: AlmostTwilled) -> DualPair:
    """L := L' acting on the dual of its action on L'', extended as a
    semidirect product; D likewise with the roles swapped and the ideal's
    block first, so the Kronecker pairing lines up with L.  Built once per
    pair and kept on it; an invalid side is rejected first."""
    if t._dual_pair is None:
        require_valid(t.lprime)
        require_valid(t.lsecond)
        t._dual_pair = _build_semidirect_dual_pair(t)
    return t._dual_pair


def _build_semidirect_dual_pair(t: AlmostTwilled) -> DualPair:
    l = semidirect_product(t.lprime, dual_module_action(t.lprime, t.module_on_second()))
    # d's basis (e'*_0.., f''_0..) is the dual of l's (e'_0.., f''*_0..)
    d = _semidirect(t.lsecond, dual_module_action(t.lsecond, t.module_on_prime()), True)
    return DualPair(l, d)


def semidirect_duality_check(t: AlmostTwilled, max_degree: int = 3) -> Dict:
    """Compatibility of the semidirect dual pair against the derivation
    property of the outer differential on the crossed bracket; the two
    sides are computed independently and compared.  They are equivalent
    only where the combined bracket meets the anchor-morphism axiom: the
    semidirect reading does not see that axiom, and the dG side does."""
    pair = semidirect_dual_pair(t)
    bial = bialgebra_check(pair, max_degree)
    dg = dg_gerstenhaber_check(t)
    dg_ok = dg["square"] and dg["derivation"] and dg["flatness"]
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
    dual pair; both verdicts reported with witnesses.  They are equivalent
    only where the combined bracket meets the anchor-morphism axiom, which
    the semidirect reading does not see."""
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
    """Pair a Lie algebra over Q with a cobracket, given as the structure
    constants of a bracket on the dual basis, each side acting on the
    other by its coadjoint action.

    g and the dual table must each be valid, and the pair twilled.
    Compatibility is Drinfeld's cocycle condition: the cobracket, read as
    the degree-one form delta: e_k -> sum_{i<j} cobracket[i][j][k]
    e_i ^ e_j with values in Lambda^2 of the adjoint module, must have
    d(delta) = 0, that is delta[x, y] = x . delta(y) - y . delta(x).  Over
    Q this is what ``bialgebra_check`` decides on the semidirect dual
    pair, which is not built here.  Each failure rejects the input with
    its witness; that of the cocycle is the first nonzero (i, j) of
    d(delta), its first wedge and their coefficient.
    """
    if g.alg.dim != 1:
        raise ValueError("only the rational base is supported here")
    require_valid(g)
    n = g.rank
    dual = LieRinehart(g.alg, n, cobracket, [Derivation.zero(g.alg)] * n)
    bad = lr_violations(dual)
    if bad:
        raise ValueError(f"cobracket is not a valid bracket on the dual: {bad[0]}")
    adjoint = LRModule(g, n, g.bracket)
    t = AlmostTwilled(g, dual, dual_module(adjoint).action, dual_module(LRModule(dual, n, dual.bracket)).action)
    witnesses = {}
    bad = is_twilled(t)
    if bad:
        witnesses["twilled"] = (bad[0].axiom, bad[0].witness)
    # g is valid, so its adjoint module and Lambda^2 of it are flat
    wedges = list(combinations(range(n), 2))
    module = exterior_power(adjoint, 2)
    delta = AltForm(g, module, 1, {(k,): [dual.bracket[i][j][k] for i, j in wedges] for k in range(n)})
    residual = ce_differential(g, module, delta, formal=True).values
    if residual:
        pair = min(residual)
        pos = next(pos for pos, c in enumerate(residual[pair]) if not c.is_zero())
        witnesses["bialgebra"] = (1, pair, wedges[pos], residual[pair][pos])
    if witnesses:
        raise ValueError(f"bracket and cobracket are not compatible: {witnesses}")
    return t
