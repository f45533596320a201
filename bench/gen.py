"""Seeded generators for the benchmark's input files.

Each generator writes the documented `.lri` text format.  The seed only
relabels the L-basis (a permutation drawn from `random.Random(seed)`);
the structure, and so the amount of work, is the same for every seed.

* `gl_n`: the general linear Lie algebra over Q, basis E_ij with
  [E_ij, E_kl] = d_jk E_il - d_li E_kj.
* `witt`: the action algebroid A (x) g for A = Q[x]/(x^k) and the
  truncated Witt algebra g = span{L_m : m < k}, [L_a, L_b] = (b-a) L_{a+b}
  (zero once a+b >= k), anchored by rho(L_m) = x^(m+1) d/dx.
* `sl2_double`: sl2 and its standard dual [h*, e*] = -e*, [h*, f*] = -f*
  tied together by the two coadjoint actions, as a `twilled` block.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Table = Dict[Tuple[int, int], Dict[int, List[Fraction]]]


def relabelling(rank: int, seed: int) -> List[int]:
    """perm[old] = new label of old basis index old."""
    perm = list(range(rank))
    random.Random(seed).shuffle(perm)
    return perm


def _vec(dim: int, pos: int = 0, c=1) -> List[Fraction]:
    v = [Fraction(0)] * dim
    v[pos] = Fraction(c)
    return v


def _fmt(vec: Sequence[Fraction]) -> str:
    return " ".join(str(c) for c in vec)


def _add(table: Table, i: int, j: int, k: int, vec: Sequence[Fraction]) -> None:
    """Add vec * e_k to [e_i, e_j], storing only the i < j half."""
    if i == j:
        raise ValueError("bracket of a basis vector with itself")
    if i > j:
        i, j = j, i
        vec = [-c for c in vec]
    slot = table.setdefault((i, j), {}).setdefault(k, [Fraction(0)] * len(vec))
    for t, c in enumerate(vec):
        slot[t] += c


def _algebra_block(name: str, dim: int, mult: Dict[Tuple[int, int], List[Fraction]]) -> List[str]:
    out = [f"algebra {name}", f"  dim {dim}", f"  unit = {_fmt(_vec(dim))}"]
    for (i, j), vec in sorted(mult.items()):
        out.append(f"  mult {i} {j} = {_fmt(vec)}")
    return out + ["end", ""]


def _lr_block(name: str, alg: str, rank: int, table: Table,
              anchors: Optional[Dict[Tuple[int, int], List[Fraction]]] = None) -> List[str]:
    out = [f"lie_rinehart {name}", f"  algebra {alg}", f"  rank {rank}"]
    for (i, j), row in sorted(table.items()):
        for k, vec in sorted(row.items()):
            if any(vec):
                out.append(f"  bracket {i} {j} {k} = {_fmt(vec)}")
    for (i, j), vec in sorted((anchors or {}).items()):
        out.append(f"  anchor {i} {j} = {_fmt(vec)}")
    return out + ["end", ""]


def _rationals() -> List[str]:
    return _algebra_block("Q", 1, {(0, 0): [Fraction(1)]})


def gl_n(n: int, seed: int) -> str:
    """gl_n over Q as an `.lri` file with one structure named `gl<n>`."""
    perm = relabelling(n * n, seed)

    def e(i: int, j: int) -> int:
        return perm[i * n + j]

    table: Table = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if e(i, j) >= e(k, l):
                        continue
                    if j == k:
                        _add(table, e(i, j), e(k, l), e(i, l), [Fraction(1)])
                    if l == i:
                        _add(table, e(i, j), e(k, l), e(k, j), [Fraction(-1)])
    lines = [f"# gl_{n} over Q, basis E_ij relabelled by seed {seed}.", ""]
    lines += _rationals() + _lr_block(f"gl{n}", "Q", n * n, table)
    return "\n".join(lines)


def witt(k: int, seed: int) -> str:
    """Truncated Witt action algebroid over Q[x]/(x^k), named `witt<k>`."""
    perm = relabelling(k, seed)
    mult = {}
    for i in range(k):
        for j in range(i, k):
            if i + j < k:
                mult[(i, j)] = _vec(k, i + j)
    table: Table = {}
    for a in range(k):
        for b in range(a + 1, k):
            if a + b < k:
                _add(table, perm[a], perm[b], perm[a + b], _vec(k, 0, b - a))
    anchors = {}
    for m in range(k):
        for j in range(1, k):
            if j + m < k:
                anchors[(perm[m], j)] = _vec(k, j + m, j)
    lines = [f"# Truncated Witt action algebroid, k = {k}, L-basis relabelled by seed {seed}.", ""]
    lines += _algebra_block(f"Qx{k}", k, mult) + _lr_block(f"witt{k}", f"Qx{k}", k, table, anchors)
    return "\n".join(lines)


SL2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
SL2_STD_DUAL = {(0, 1): {1: -1}, (0, 2): {2: -1}}


def _constants(pairs: Dict[Tuple[int, int], Dict[int, int]], perm: Sequence[int]) -> Table:
    table: Table = {}
    for (i, j), row in pairs.items():
        for k, c in row.items():
            _add(table, perm[i], perm[j], perm[k], [Fraction(c)])
    return table


def _coefficient(table: Table, i: int, j: int, k: int) -> Fraction:
    """Coefficient of e_k in [e_i, e_j] from the i < j half."""
    if i == j:
        return Fraction(0)
    sign = 1 if i < j else -1
    vec = table.get((min(i, j), max(i, j)), {}).get(k)
    return sign * vec[0] if vec else Fraction(0)


def _coadjoint(name: str, src: str, tgt: str, table: Table, n: int) -> List[str]:
    """e_i . f_j = sum_m -c_{im}^j f_m, the coadjoint action on the dual basis."""
    out = [f"action {name}", f"  source {src}", f"  target {tgt}"]
    for i in range(n):
        for j in range(n):
            for m in range(n):
                c = -_coefficient(table, i, m, j)
                if c:
                    out.append(f"  entry {i} {j} {m} = {c}")
    return out + ["end", ""]


def sl2_double(seed: int) -> str:
    """sl2 with its standard dual and both coadjoint actions, twilled `double`.

    One relabelling is applied to both structures, so basis i of the dual
    stays the coordinate form of basis i of sl2."""
    perm = relabelling(3, seed)
    g = _constants(SL2, perm)
    d = _constants(SL2_STD_DUAL, perm)
    lines = [f"# sl2 standard double, basis relabelled by seed {seed}.", ""]
    lines += _rationals()
    lines += _lr_block("sl2", "Q", 3, g) + _lr_block("sl2_dual", "Q", 3, d)
    lines += _coadjoint("coadj_ps", "sl2", "sl2_dual", g, 3)
    lines += _coadjoint("coadj_sp", "sl2_dual", "sl2", d, 3)
    lines += [
        "twilled double",
        "  prime sl2",
        "  second sl2_dual",
        "  act_prime_on_second coadj_ps",
        "  act_second_on_prime coadj_sp",
        "end",
        "",
    ]
    return "\n".join(lines)
