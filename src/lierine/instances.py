"""Concrete structures used by the test suite and the command line demos.

Everything here is small enough to verify by hand: truncated polynomial
bases, rank <= 4 brackets, and action tables with single-entry rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .calgebra import AElem, CommAlg, Derivation
from .lrcore import LieRinehart, LRModule
from .twilled import AlmostTwilled


def rationals() -> CommAlg:
    return CommAlg(1, [[[Fraction(1)]]], [Fraction(1)])


def truncated_poly(k: int) -> CommAlg:
    """Q[x]/(x^k), basis 1, x, .., x^(k-1)."""
    mult = [
        [
            [Fraction(1) if t == i + j else Fraction(0) for t in range(k)]
            for j in range(k)
        ]
        for i in range(k)
    ]
    unit = [Fraction(1)] + [Fraction(0)] * (k - 1)
    return CommAlg(k, mult, unit)


def _zero_table(alg: CommAlg, rank: int) -> List[List[tuple]]:
    z = alg.zero()
    return [[tuple(z for _ in range(rank)) for _ in range(rank)] for _ in range(rank)]


def abelian(alg: CommAlg, rank: int) -> LieRinehart:
    """Zero bracket, zero anchor."""
    return LieRinehart(alg, rank, _zero_table(alg, rank), [Derivation.zero(alg)] * rank)


def sl2() -> LieRinehart:
    """Basis h, e, f over Q with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    alg = rationals()

    def lelem(ch, ce, cf):
        return (alg.scalar(ch), alg.scalar(ce), alg.scalar(cf))

    table = _zero_table(alg, 3)
    table[0][1] = lelem(0, 2, 0)
    table[1][0] = lelem(0, -2, 0)
    table[0][2] = lelem(0, 0, -2)
    table[2][0] = lelem(0, 0, 2)
    table[1][2] = lelem(1, 0, 0)
    table[2][1] = lelem(-1, 0, 0)
    return LieRinehart(alg, 3, table, [Derivation.zero(alg)] * 3)


def gl_n(n: int) -> LieRinehart:
    """gl_n over Q: basis E_ij at index i*n + j, with
    [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    alg = rationals()
    rank = n * n
    table = _zero_table(alg, rank)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    coeffs = [0] * rank
                    if j == k:
                        coeffs[i * n + l] += 1
                    if l == i:
                        coeffs[k * n + j] -= 1
                    table[i * n + j][k * n + l] = tuple(alg.scalar(c) for c in coeffs)
    return LieRinehart(alg, rank, table, [Derivation.zero(alg)] * rank)


def heisenberg() -> LieRinehart:
    """The Heisenberg algebra h3 over Q: [x, y] = z, z central."""
    alg = rationals()
    table = _zero_table(alg, 3)
    table[0][1] = (alg.zero(), alg.zero(), alg.one())
    table[1][0] = (alg.zero(), alg.zero(), -alg.one())
    return LieRinehart(alg, 3, table, [Derivation.zero(alg)] * 3)


def x_del(alg: CommAlg) -> Derivation:
    """x d/dx on a truncated polynomial base: x^i -> i x^i."""
    images = [alg.basis(i) * Fraction(i) for i in range(alg.dim)]
    return Derivation.from_images(alg, images)


def x2_del(alg: CommAlg) -> Derivation:
    """x^2 d/dx: x^i -> i x^(i+1), truncated."""
    images = []
    for i in range(alg.dim):
        if 0 < i and i + 1 < alg.dim:
            images.append(alg.basis(i + 1) * Fraction(i))
        else:
            images.append(alg.zero())
    return Derivation.from_images(alg, images)


def derx2() -> LieRinehart:
    """Rank 1 over Q[x]/(x^2): single generator acting as x d/dx."""
    alg = truncated_poly(2)
    return LieRinehart(alg, 1, _zero_table(alg, 1), [x_del(alg)])


def derx3() -> LieRinehart:
    """Rank 2 over Q[x]/(x^3): u = x d/dx, v = x^2 d/dx, [u,v] = v."""
    alg = truncated_poly(3)
    table = _zero_table(alg, 2)
    table[0][1] = (alg.zero(), alg.one())
    table[1][0] = (alg.zero(), -alg.one())
    return LieRinehart(alg, 2, table, [x_del(alg), x2_del(alg)])


def line_with_connection(lr: LieRinehart, omega: Sequence[AElem]) -> LRModule:
    """Rank-1 action table e_i . f = omega(e_i) f; flat only when the
    connection has zero curvature."""
    action = [[(w,)] for w in omega]
    return LRModule(lr, 1, action)


def book() -> LieRinehart:
    """Rank 2 over Q with [e0, e1] = e1, zero anchor."""
    alg = rationals()
    table = _zero_table(alg, 2)
    table[0][1] = (alg.zero(), alg.one())
    table[1][0] = (alg.zero(), -alg.one())
    return LieRinehart(alg, 2, table, [Derivation.zero(alg)] * 2)


def book_dual() -> LieRinehart:
    """Rank 2 over Q with [f0, f1] = f0, zero anchor."""
    alg = rationals()
    table = _zero_table(alg, 2)
    table[0][1] = (alg.one(), alg.zero())
    table[1][0] = (-alg.one(), alg.zero())
    return LieRinehart(alg, 2, table, [Derivation.zero(alg)] * 2)


def _scalar_rows(alg: CommAlg, rows: Sequence[Sequence[Sequence[int]]]):
    return [
        [tuple(alg.scalar(c) for c in vec) for vec in row]
        for row in rows
    ]


def direct_sum_pair(alg: CommAlg, rank1: int, rank2: int):
    """Two abelian factors ignoring each other."""
    zero1 = [[(alg.zero(),) * rank2] * rank2] * rank1
    zero2 = [[(alg.zero(),) * rank1] * rank1] * rank2
    return AlmostTwilled(abelian(alg, rank1), abelian(alg, rank2), zero1, zero2)


def desk_pair():
    """Two rank-1 abelian factors with e.f = f and f.e = e; the combined
    bracket is [e, f] = f - e."""
    alg = rationals()
    return AlmostTwilled(
        abelian(alg, 1),
        abelian(alg, 1),
        _scalar_rows(alg, [[[1]]]),
        _scalar_rows(alg, [[[1]]]),
    )


def book_double():
    """The book algebra paired with its dual through the two coadjoint
    actions; the combined rank-4 bracket satisfies every axiom."""
    alg = rationals()
    act_p_on_s = _scalar_rows(alg, [[[0, 0], [0, -1]], [[0, 0], [1, 0]]])
    act_s_on_p = _scalar_rows(alg, [[[0, -1], [0, 0]], [[1, 0], [0, 0]]])
    return AlmostTwilled(book(), book_dual(), act_p_on_s, act_s_on_p)


def book_double_flipped():
    """Same tables with one sign flipped (e0 . f1 = +f1); the combined
    bracket fails the Jacobi identity."""
    alg = rationals()
    act_p_on_s = _scalar_rows(alg, [[[0, 0], [0, 1]], [[0, 0], [1, 0]]])
    act_s_on_p = _scalar_rows(alg, [[[0, -1], [0, 0]], [[1, 0], [0, 0]]])
    return AlmostTwilled(book(), book_dual(), act_p_on_s, act_s_on_p)


def flat_broken():
    """Abelian 2 + 1 with x0 . y = y and y . x1 = x0: both action tables
    are flat, yet the combined bracket fails Jacobi on (x0, x1, y)."""
    alg = rationals()
    act_p_on_s = _scalar_rows(alg, [[[1]], [[0]]])
    act_s_on_p = _scalar_rows(alg, [[[0, 0], [1, 0]]])
    return AlmostTwilled(abelian(alg, 2), abelian(alg, 1), act_p_on_s, act_s_on_p)
