"""Command line front end: parse instance files, run checkers, report.

The file format is line oriented and sparse.  A file is a sequence of
named blocks:

    algebra Q
      dim 1
      unit = 1
      mult 0 0 = 1
    end

    lie_rinehart sl2
      algebra Q
      rank 3
      bracket 0 1 1 = 2
      bracket 0 2 2 = -2
      bracket 1 2 0 = 1
    end

Bracket records give the coefficient of one basis vector in one bracket
(first index smaller, the other half filled by antisymmetry); anchor
records `anchor i j = ...` give the image of algebra basis j under the
anchor of basis vector i; omitted entries are zero.  Action blocks name
a source and target structure and list entries `entry i j k = ...`
(coefficient of target basis k in source_i . target_j); connection
blocks list `omega i = ...`; twilled blocks tie two structures and two
action tables together; bialgebra blocks name a structure and a
candidate dual of the same rank.  Rationals are integers or p/q.
Reports are plain text with a fixed field order, so identical inputs
produce identical bytes; exit status 0 means every verdict passed, 1 a
failed check, 2 a parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .calgebra import AElem, CommAlg, Derivation, alg_validate
from .bialg import (
    DualPair,
    bialgebra_check,
    semidirect_duality_check,
    twilled_vs_bialgebra_check,
)
from .gerst import (
    TopConnection,
    _connection_form,
    connection_curvature,
    generator_from_connection,
    generator_square,
    generator_validate,
)
from .lrcore import LieRinehart, cohomology_dims, lr_violations, trivial_coefficients
from .twilled import (
    AlmostTwilled,
    _dg_lie_and_gerstenhaber,
    bicomplex_square_check,
    is_twilled,
    total_complex_cohomology_check,
    twilled_sum,
)


class ParseError(Exception):
    def __init__(self, line: int, msg: str) -> None:
        super().__init__(f"line {line}: {msg}" if line > 0 else msg)
        self.line = line


_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _rational(tok: str, line: int) -> Fraction:
    if not _RATIONAL.match(tok):
        raise ParseError(line, f"not a rational: {tok!r}")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ParseError(line, f"zero denominator in {tok!r}") from None


def _ints(tokens: Sequence[str], n: int, line: int) -> List[int]:
    if len(tokens) != n:
        raise ParseError(line, f"expected {n} indices, got {len(tokens)}")
    out = []
    for t in tokens:
        if not t.isdigit():
            raise ParseError(line, f"not an index: {t!r}")
        out.append(int(t))
    return out


class InstanceSet:
    """Everything defined by one file, in definition order."""

    def __init__(self) -> None:
        self.algebras: Dict[str, CommAlg] = {}
        self.lrs: Dict[str, Tuple[str, LieRinehart]] = {}
        self.actions: Dict[str, Tuple[str, str, Tuple]] = {}
        self.connections: Dict[str, Tuple[str, Tuple[AElem, ...]]] = {}
        self.twilleds: Dict[str, Tuple[str, str, str, str]] = {}
        self.bialgebras: Dict[str, Tuple[str, str]] = {}
        self.order: List[Tuple[str, str]] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceSet):
            return NotImplemented
        return (
            self.algebras == other.algebras
            and self.lrs == other.lrs
            and self.actions == other.actions
            and self.connections == other.connections
            and self.twilleds == other.twilleds
            and self.bialgebras == other.bialgebras
            and self.order == other.order
        )

    def lr(self, name: str) -> LieRinehart:
        return self.lrs[name][1]

    def build_twilled(self, name: str) -> AlmostTwilled:
        pname, sname, aps, asp = self.twilleds[name]
        return AlmostTwilled(
            self.lr(pname),
            self.lr(sname),
            self.actions[aps][2],
            self.actions[asp][2],
        )

    def build_dual_pair(self, name: str) -> DualPair:
        lname, dname = self.bialgebras[name]
        return DualPair(self.lr(lname), self.lr(dname))

    def build_connection(self, name: str) -> Tuple[LieRinehart, TopConnection]:
        on, omega = self.connections[name]
        lr = self.lr(on)
        return lr, TopConnection(lr, omega)


def parse_instance(path: str) -> InstanceSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ParseError(0, f"cannot read {path}: {e.strerror}")
    inst = InstanceSet()
    block: Optional[Tuple[str, str, int]] = None
    fields: Dict = {}

    def fresh_name(name: str, line: int) -> None:
        if not _NAME.match(name):
            raise ParseError(line, f"bad name {name!r}")
        for d in (inst.algebras, inst.lrs, inst.actions, inst.connections, inst.twilleds, inst.bialgebras):
            if name in d:
                raise ParseError(line, f"duplicate name {name!r}")

    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if block is None:
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected a block header, got {text!r}")
            kind, name = tokens
            if kind not in ("algebra", "lie_rinehart", "action", "connection", "twilled", "bialgebra"):
                raise ParseError(lineno, f"unknown block kind {kind!r}")
            fresh_name(name, lineno)
            block = (kind, name, lineno)
            fields = {"records": []}
            continue
        if tokens == ["end"]:
            kind, name, start = block
            _finish_block(inst, kind, name, fields, start)
            inst.order.append((kind, name))
            block = None
            continue
        if "=" in text:
            left, _, right = text.partition("=")
            fields["records"].append((lineno, left.split(), right.split()))
        else:
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected 'key value', got {text!r}")
            key = tokens[0]
            if key in fields:
                raise ParseError(lineno, f"duplicate field {key!r}")
            fields[key] = (tokens[1], lineno)
    if block is not None:
        raise ParseError(block[2], f"unterminated block {block[1]!r}")
    return inst


def _field(fields: Dict, key: str, start: int) -> Tuple[str, int]:
    if key not in fields:
        raise ParseError(start, f"missing field {key!r}")
    return fields[key]


def _ref_lr(inst: InstanceSet, name: str, line: int) -> LieRinehart:
    if name not in inst.lrs:
        raise ParseError(line, f"unknown structure {name!r}")
    return inst.lr(name)


def _finish_block(inst: InstanceSet, kind: str, name: str, fields: Dict, start: int) -> None:
    records = fields.pop("records")
    if kind == "algebra":
        dim_tok, dim_line = _field(fields, "dim", start)
        if not dim_tok.isdigit() or int(dim_tok) < 1:
            raise ParseError(dim_line, "dim must be a positive integer")
        d = int(dim_tok)
        unit: Optional[List[Fraction]] = None
        mult = [[None] * d for _ in range(d)]
        for line, left, right in records:
            if left[0] == "unit" and len(left) == 1:
                if unit is not None:
                    raise ParseError(line, "duplicate unit")
                if len(right) != d:
                    raise ParseError(line, f"unit needs {d} coefficients")
                unit = [_rational(t, line) for t in right]
            elif left[0] == "mult":
                i, j = _ints(left[1:], 2, line)
                if i >= d or j >= d:
                    raise ParseError(line, "mult index out of range")
                if len(right) != d:
                    raise ParseError(line, f"mult needs {d} coefficients")
                vec = [_rational(t, line) for t in right]
                if mult[i][j] is not None and mult[i][j] != vec:
                    raise ParseError(line, f"conflicting mult entry ({i},{j})")
                mult[i][j] = vec
                if mult[j][i] is not None and mult[j][i] != vec:
                    raise ParseError(line, f"conflicting mult entry ({j},{i})")
                mult[j][i] = vec
            else:
                raise ParseError(line, f"unknown record {left[0]!r} in algebra block")
        if unit is None:
            raise ParseError(start, "missing unit record")
        table = [[mult[i][j] if mult[i][j] is not None else [Fraction(0)] * d for j in range(d)] for i in range(d)]
        inst.algebras[name] = CommAlg(d, table, unit)
    elif kind == "lie_rinehart":
        alg_name, alg_line = _field(fields, "algebra", start)
        if alg_name not in inst.algebras:
            raise ParseError(alg_line, f"unknown algebra {alg_name!r}")
        alg = inst.algebras[alg_name]
        rank_tok, rank_line = _field(fields, "rank", start)
        if not rank_tok.isdigit():
            raise ParseError(rank_line, "rank must be a nonnegative integer")
        n = int(rank_tok)
        d = alg.dim
        z = alg.zero()
        bracket = [[[z] * n for _ in range(n)] for _ in range(n)]
        anchors: List[List[Optional[AElem]]] = [[None] * d for _ in range(n)]
        for line, left, right in records:
            if left[0] == "bracket":
                i, j, k = _ints(left[1:], 3, line)
                if i >= j:
                    raise ParseError(line, "bracket records need first index smaller")
                if j >= n or k >= n:
                    raise ParseError(line, "bracket index out of range")
                if len(right) != d:
                    raise ParseError(line, f"bracket needs {d} coefficients")
                c = alg.elem([_rational(t, line) for t in right])
                bracket[i][j][k] = c
                bracket[j][i][k] = -c
            elif left[0] == "anchor":
                i, j = _ints(left[1:], 2, line)
                if i >= n or j >= d:
                    raise ParseError(line, "anchor index out of range")
                if len(right) != d:
                    raise ParseError(line, f"anchor needs {d} coefficients")
                if anchors[i][j] is not None:
                    raise ParseError(line, f"duplicate anchor entry ({i},{j})")
                anchors[i][j] = alg.elem([_rational(t, line) for t in right])
            else:
                raise ParseError(line, f"unknown record {left[0]!r} in lie_rinehart block")
        ders = []
        for i in range(n):
            images = [anchors[i][j] if anchors[i][j] is not None else z for j in range(d)]
            ders.append(Derivation.from_images(alg, images))
        table = [[tuple(bracket[i][j]) for j in range(n)] for i in range(n)]
        inst.lrs[name] = (alg_name, LieRinehart(alg, n, table, ders))
    elif kind == "action":
        src_name, src_line = _field(fields, "source", start)
        tgt_name, tgt_line = _field(fields, "target", start)
        src = _ref_lr(inst, src_name, src_line)
        tgt = _ref_lr(inst, tgt_name, tgt_line)
        if src.alg != tgt.alg:
            raise ParseError(start, "source and target base algebras differ")
        d = src.alg.dim
        z = src.alg.zero()
        table = [[[z] * tgt.rank for _ in range(tgt.rank)] for _ in range(src.rank)]
        for line, left, right in records:
            if left[0] != "entry":
                raise ParseError(line, f"unknown record {left[0]!r} in action block")
            i, j, k = _ints(left[1:], 3, line)
            if i >= src.rank or j >= tgt.rank or k >= tgt.rank:
                raise ParseError(line, "entry index out of range")
            if len(right) != d:
                raise ParseError(line, f"entry needs {d} coefficients")
            table[i][j][k] = src.alg.elem([_rational(t, line) for t in right])
        inst.actions[name] = (
            src_name,
            tgt_name,
            tuple(tuple(tuple(row) for row in rows) for rows in table),
        )
    elif kind == "connection":
        on_name, on_line = _field(fields, "on", start)
        lr = _ref_lr(inst, on_name, on_line)
        d = lr.alg.dim
        omega: List[Optional[AElem]] = [None] * lr.rank
        for line, left, right in records:
            if left[0] != "omega":
                raise ParseError(line, f"unknown record {left[0]!r} in connection block")
            (i,) = _ints(left[1:], 1, line)
            if i >= lr.rank:
                raise ParseError(line, "omega index out of range")
            if len(right) != d:
                raise ParseError(line, f"omega needs {d} coefficients")
            if omega[i] is not None:
                raise ParseError(line, f"duplicate omega entry {i}")
            omega[i] = lr.alg.elem([_rational(t, line) for t in right])
        inst.connections[name] = (
            on_name,
            tuple(w if w is not None else lr.alg.zero() for w in omega),
        )
    elif kind == "twilled":
        for line, left, right in records:
            raise ParseError(line, "twilled blocks take only reference fields")
        p_name, p_line = _field(fields, "prime", start)
        s_name, s_line = _field(fields, "second", start)
        aps_name, aps_line = _field(fields, "act_prime_on_second", start)
        asp_name, asp_line = _field(fields, "act_second_on_prime", start)
        prime = _ref_lr(inst, p_name, p_line)
        second = _ref_lr(inst, s_name, s_line)
        for aname, aline, want_src, want_tgt in (
            (aps_name, aps_line, p_name, s_name),
            (asp_name, asp_line, s_name, p_name),
        ):
            if aname not in inst.actions:
                raise ParseError(aline, f"unknown action {aname!r}")
            src, tgt, _ = inst.actions[aname]
            if (src, tgt) != (want_src, want_tgt):
                raise ParseError(aline, f"action {aname!r} maps {src}->{tgt}, expected {want_src}->{want_tgt}")
        if prime.alg != second.alg:
            raise ParseError(start, "constituents use different base algebras")
        inst.twilleds[name] = (p_name, s_name, aps_name, asp_name)
    elif kind == "bialgebra":
        for line, left, right in records:
            raise ParseError(line, "bialgebra blocks take only reference fields")
        l_name, l_line = _field(fields, "l", start)
        d_name, d_line = _field(fields, "d", start)
        l = _ref_lr(inst, l_name, l_line)
        dd = _ref_lr(inst, d_name, d_line)
        if l.rank != dd.rank:
            raise ParseError(start, f"ranks differ: {l.rank} vs {dd.rank}")
        if l.alg != dd.alg:
            raise ParseError(start, "base algebras differ")
        inst.bialgebras[name] = (l_name, d_name)


def _fmt_vec(coeffs: Sequence[Fraction]) -> str:
    return " ".join(str(c) for c in coeffs)


def serialize_instance(inst: InstanceSet) -> str:
    """Canonical sparse text form; parsing it back rebuilds an equal
    instance set."""
    out: List[str] = []
    for kind, name in inst.order:
        if kind == "algebra":
            alg = inst.algebras[name]
            out.append(f"algebra {name}")
            out.append(f"  dim {alg.dim}")
            out.append(f"  unit = {_fmt_vec(alg.unit)}")
            for i in range(alg.dim):
                for j in range(i, alg.dim):
                    vec = alg.mult[i][j]
                    if any(c != 0 for c in vec):
                        out.append(f"  mult {i} {j} = {_fmt_vec(vec)}")
        elif kind == "lie_rinehart":
            alg_name, lr = inst.lrs[name]
            out.append(f"lie_rinehart {name}")
            out.append(f"  algebra {alg_name}")
            out.append(f"  rank {lr.rank}")
            for i in range(lr.rank):
                for j in range(i + 1, lr.rank):
                    for k in range(lr.rank):
                        c = lr.bracket[i][j][k]
                        if not c.is_zero():
                            out.append(f"  bracket {i} {j} {k} = {_fmt_vec(c.coeffs)}")
            for i in range(lr.rank):
                m = lr.anchor[i].matrix
                for j in range(m.cols):
                    col = [m.entry(r, j) for r in range(m.rows)]
                    if any(c != 0 for c in col):
                        out.append(f"  anchor {i} {j} = {_fmt_vec(col)}")
        elif kind == "action":
            src, tgt, table = inst.actions[name]
            out.append(f"action {name}")
            out.append(f"  source {src}")
            out.append(f"  target {tgt}")
            for i, rows in enumerate(table):
                for j, vec in enumerate(rows):
                    for k, c in enumerate(vec):
                        if not c.is_zero():
                            out.append(f"  entry {i} {j} {k} = {_fmt_vec(c.coeffs)}")
        elif kind == "connection":
            on, omega = inst.connections[name]
            out.append(f"connection {name}")
            out.append(f"  on {on}")
            for i, w in enumerate(omega):
                if not w.is_zero():
                    out.append(f"  omega {i} = {_fmt_vec(w.coeffs)}")
        elif kind == "twilled":
            p, s, aps, asp = inst.twilleds[name]
            out.append(f"twilled {name}")
            out.append(f"  prime {p}")
            out.append(f"  second {s}")
            out.append(f"  act_prime_on_second {aps}")
            out.append(f"  act_second_on_prime {asp}")
        elif kind == "bialgebra":
            l, d = inst.bialgebras[name]
            out.append(f"bialgebra {name}")
            out.append(f"  l {l}")
            out.append(f"  d {d}")
        out.append("end")
        out.append("")
    return "\n".join(out)


class Report:
    """Accumulates verdict/info/dimension lines in emission order."""

    def __init__(self, command: str, path: str, name: Optional[str]) -> None:
        self.command = command
        self.path = path
        self.name = name
        self.verdicts: List[Tuple[str, bool, Optional[str]]] = []
        self.info: List[Tuple[str, str]] = []
        self.dims: List[Tuple[str, List[int]]] = []

    def verdict(self, check: str, ok: bool, witness=None) -> None:
        self.verdicts.append((check, ok, None if witness is None else repr(witness)))

    def note(self, key: str, value) -> None:
        self.info.append((key, str(value)))

    def dimensions(self, label: str, values: List[int]) -> None:
        self.dims.append((label, list(values)))

    @property
    def exit_code(self) -> int:
        return 0 if all(ok for _, ok, _ in self.verdicts) else 1

    def render_text(self) -> str:
        lines = [f"command: {self.command}", f"input: {self.path}"]
        if self.name is not None:
            lines.append(f"name: {self.name}")
        for key, value in self.info:
            lines.append(f"{key}: {value}")
        for label, values in self.dims:
            lines.append(f"{label}: " + " ".join(str(v) for v in values))
        for check, ok, witness in self.verdicts:
            tail = "pass" if ok else "fail"
            if witness is not None:
                tail += f" witness={witness}"
            lines.append(f"verdict {check}: {tail}")
        lines.append(f"exit: {self.exit_code}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        doc = {
            "command": self.command,
            "input": self.path,
            "name": self.name,
            "info": {k: v for k, v in self.info},
            "dims": {k: v for k, v in self.dims},
            "verdicts": [
                {"check": c, "ok": ok, "witness": w} for c, ok, w in self.verdicts
            ],
            "exit": self.exit_code,
        }
        return json.dumps(doc, indent=2) + "\n"


def _first_witness(violations) -> Optional[Tuple]:
    if not violations:
        return None
    v = violations[0]
    return (v.axiom, v.witness)


def _cmd_check_lr(inst: InstanceSet, name: str, report: Report) -> None:
    lr = inst.lr(name)
    alg_bad = alg_validate(lr.alg)
    report.verdict("algebra", not alg_bad, _first_witness(alg_bad))
    bad = lr_violations(lr)
    by_axiom: Dict[str, Tuple] = {}
    for v in bad:
        by_axiom.setdefault(v.axiom, v.witness)
    for axiom in ("antisymmetry", "anchor-derivation", "anchor-morphism", "jacobi"):
        if axiom in by_axiom:
            report.verdict(axiom, False, (axiom, by_axiom[axiom]))
        else:
            report.verdict(axiom, True)


def _cmd_check_twilled(inst: InstanceSet, name: str, report: Report) -> None:
    t = inst.build_twilled(name)
    bic = bicomplex_square_check(t)
    report.verdict("twilled", bic["twilled"], bic.get("twilled_witness"))
    squares_ok = bic["dprime_square"] and bic["dsecond_square"] and bic["anticommute"]
    wit = None
    for key in ("dprime_square", "dsecond_square", "anticommute"):
        if not bic[key]:
            wit = (key, bic["witnesses"][key])
            break
    report.verdict("bicomplex-squares", squares_ok, wit)
    report.verdict("bicomplex-equivalence", bic["equivalent"])
    lie, ger = _dg_lie_and_gerstenhaber(t)
    lie_ok = lie["square"] and lie["derivation"]
    report.verdict("dg-lie", lie_ok, None if lie_ok else _dg_witness(lie))
    report.verdict("dg-lie-equivalence", lie["equivalent"])
    ger_ok = ger["square"] and ger["derivation"]
    report.verdict("dg-gerstenhaber", ger_ok, None if ger_ok else _dg_witness(ger))
    report.verdict("dg-gerstenhaber-equivalence", ger["equivalent"])


def _dg_witness(r: Dict) -> Tuple:
    for key in ("square", "derivation"):
        if not r[key]:
            return (key, r["witnesses"][key])
    return ()


def _cmd_cohomology(inst: InstanceSet, name: str, max_degree: Optional[int], report: Report) -> None:
    if name in inst.twilleds:
        t = inst.build_twilled(name)
        top = max_degree if max_degree is not None else t.lprime.rank + t.lsecond.rank
        try:
            r = total_complex_cohomology_check(t, top)
        except ValueError:
            bad = is_twilled(t)
            report.verdict("twilled", False, _first_witness(bad))
            return
        report.dimensions("total_dims", r["total_dims"])
        report.dimensions("sum_dims", r["sum_dims"])
        report.verdict("total-vs-sum", r["equal"])
        return
    lr = inst.lr(name)
    bad = lr_violations(lr)
    if bad:
        report.verdict("lr-axioms", False, _first_witness(bad))
        return
    top = max_degree if max_degree is not None else lr.rank
    dims = cohomology_dims(lr, trivial_coefficients(lr), top)
    report.dimensions("dims", dims)


def _cmd_bracket(inst: InstanceSet, name: str, report: Report) -> None:
    if name in inst.twilleds:
        lr = twilled_sum(inst.build_twilled(name))
        report.note("structure", "combined sum")
    else:
        lr = inst.lr(name)
    report.note("rank", lr.rank)
    for i in range(lr.rank):
        for j in range(i + 1, lr.rank):
            for k in range(lr.rank):
                c = lr.bracket[i][j][k]
                if not c.is_zero():
                    report.note(f"bracket {i} {j} {k}", _fmt_vec(c.coeffs))


def _cmd_generator(inst: InstanceSet, name: str, report: Report) -> None:
    lr, conn = inst.build_connection(name)
    curv = connection_curvature(lr, conn)
    flat = curv.is_zero()
    g = generator_from_connection(lr, conn)
    bad = generator_validate(lr, g)
    report.verdict("generator-identity", not bad, _first_witness(bad))
    if bad:
        raise ValueError(f"not a generator: {bad[0]}")
    back = _connection_form(lr, g)
    report.verdict("connection-roundtrip", back.omega == conn.omega)
    square_zero, square_witness = generator_square(g)
    report.note("flat", "true" if flat else "false")
    report.note("exact", "true" if square_zero else "false")
    report.verdict(
        "square-iff-flat",
        square_zero == flat,
        None if square_zero == flat else (square_witness,),
    )


def _cmd_check_bialgebra(inst: InstanceSet, name: str, max_degree: Optional[int], report: Report) -> None:
    cap = max_degree if max_degree is not None else 3
    if name in inst.bialgebras:
        pair = inst.build_dual_pair(name)
        bad = lr_violations(pair.l) or lr_violations(pair.d)
        if bad:
            report.verdict("lr-axioms", False, _first_witness(bad))
            return
        r = bialgebra_check(pair, cap)
        report.verdict("bialgebra", r.holds, r.witness)
        return
    t = inst.build_twilled(name)
    dual = semidirect_duality_check(t, cap)
    report.verdict("bialgebra", dual["bialgebra"], dual["witnesses"].get("bialgebra"))
    dg_wit = dual["witnesses"].get("dg")
    if isinstance(dg_wit, dict):
        key = "square" if "square" in dg_wit else "derivation"
        dg_wit = (key, dg_wit[key])
    report.verdict("dg", dual["dg"], dg_wit)
    report.verdict("duality-equivalence", dual["equivalent"])
    tvb = twilled_vs_bialgebra_check(t, cap)
    report.verdict("twilled", tvb["twilled"], tvb["witnesses"].get("twilled"))
    report.verdict("twilled-vs-bialgebra-equivalence", tvb["equivalent"])


_COMMANDS = ("check-lr", "check-twilled", "cohomology", "bracket", "generator", "check-bialgebra")

_KINDS_FOR = {
    "check-lr": ("lie_rinehart",),
    "check-twilled": ("twilled",),
    "cohomology": ("twilled", "lie_rinehart"),
    "bracket": ("twilled", "lie_rinehart"),
    "generator": ("connection",),
    "check-bialgebra": ("bialgebra", "twilled"),
}


def _resolve_name(inst: InstanceSet, command: str, name: Optional[str]) -> str:
    kinds = _KINDS_FOR[command]
    pools = {
        "lie_rinehart": inst.lrs,
        "twilled": inst.twilleds,
        "connection": inst.connections,
        "bialgebra": inst.bialgebras,
    }
    if name is not None:
        if any(name in pools[k] for k in kinds):
            return name
        raise KeyError(f"no instance named {name!r} usable with {command}")
    for kind in kinds:
        candidates = [n for k, n in inst.order if k == kind]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise KeyError(
                f"several instances fit {command}; pick one with --name: " + ", ".join(candidates)
            )
    raise KeyError(f"the file defines nothing usable with {command}")


def _base_algebra(inst: InstanceSet, name: str) -> CommAlg:
    """The base algebra under a named instance of any kind."""
    for refs in (inst.twilleds, inst.connections, inst.bialgebras):
        if name in refs:
            name = refs[name][0]
    return inst.lr(name).alg


def run_command(command: str, inst: InstanceSet, path: str, name: Optional[str], max_degree: Optional[int]) -> Report:
    resolved = _resolve_name(inst, command, name)
    if command != "check-lr":  # check-lr reports the algebra axioms as a verdict
        bad = alg_validate(_base_algebra(inst, resolved))
        if bad:
            raise ValueError(f"base algebra fails validation: {bad[0]}")
    report = Report(command, path, resolved)
    if command == "check-lr":
        _cmd_check_lr(inst, resolved, report)
    elif command == "check-twilled":
        _cmd_check_twilled(inst, resolved, report)
    elif command == "cohomology":
        _cmd_cohomology(inst, resolved, max_degree, report)
    elif command == "bracket":
        _cmd_bracket(inst, resolved, report)
    elif command == "generator":
        _cmd_generator(inst, resolved, report)
    elif command == "check-bialgebra":
        _cmd_check_bialgebra(inst, resolved, max_degree, report)
    else:
        raise KeyError(f"unknown command {command!r}")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lierine",
        description="exact checks for structures of derivations and their pairings",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", required=True, help="instance file")
    parser.add_argument("--name", help="instance to operate on (default: the only fitting one)")
    parser.add_argument("--max-degree", type=int, dest="max_degree", help="degree cap where applicable")
    parser.add_argument("--format", choices=("text", "json-like"), default="text")
    try:
        args = parser.parse_args(argv)
        if args.max_degree is not None and args.max_degree < 0:
            parser.error(f"--max-degree must be nonnegative, got {args.max_degree}")
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        inst = parse_instance(args.input)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    try:
        report = run_command(args.command, inst, args.input, args.name, args.max_degree)
    except KeyError as e:
        print(f"usage error: {e.args[0]}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"input not usable: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render_text() if args.format == "text" else report.render_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
