"""Acceptance gate: ten criteria, one test each, exact arithmetic only.

Every expected value here is either forced by a definition, derived by
an independent computation inside the library's own foundations, or a
combinatorial identity; nothing is tuned to the implementation.  Run
with -v for one pass/fail line per criterion.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from itertools import combinations
from math import comb
from pathlib import Path

import lierine
from lierine.bialg import (
    bialgebra_check,
    matched_pair_from_bialgebra,
    semidirect_dual_pair,
    semidirect_duality_check,
    twilled_vs_bialgebra_check,
)
from lierine.cli import main, parse_instance, serialize_instance
from lierine.gerst import (
    Multivector,
    TopConnection,
    connection_curvature,
    generator_derivation_check,
    generator_from_connection,
    generator_square,
    generator_to_connection,
    generator_validate,
    gerstenhaber_validate,
    schouten_bracket,
)
from lierine.instances import (
    abelian,
    book,
    book_double,
    book_double_flipped,
    book_dual,
    derx2,
    derx3,
    direct_sum_pair,
    flat_broken,
    line_with_connection,
    rationals,
    sl2,
)
from lierine.lrcore import (
    AltForm,
    LieRinehart,
    ce_differential,
    cohomology_dims,
    lr_validate,
    trivial_coefficients,
)
from lierine.twilled import (
    bicomplex_square_check,
    dg_gerstenhaber_check,
    dg_lie_check,
    is_twilled,
    total_complex_cohomology_check,
)


def validated_fixtures():
    out = [(f"abelian{n}", abelian(rationals(), n)) for n in range(1, 5)]
    out += [("sl2", sl2()), ("derx2", derx2()), ("derx3", derx3())]
    return out


def perturb_bracket(lr: LieRinehart, i: int, j: int, k: int, t: int) -> LieRinehart:
    """Add one algebra basis vector to a single stored table entry,
    leaving the mirror entry alone."""
    table = [[list(vec) for vec in row] for row in lr.bracket]
    table[i][j][k] = table[i][j][k] + lr.alg.basis(t)
    return LieRinehart(lr.alg, lr.rank, [[tuple(vec) for vec in row] for row in table], lr.anchor)


def test_criterion_01_axiom_suite_accepts_fixtures_rejects_perturbations():
    for name, lr in validated_fixtures():
        assert lr_validate(lr) == [], name
        d = lr.alg.dim
        for i in range(lr.rank):
            for j in range(lr.rank):
                for k in range(lr.rank):
                    for t in range(d):
                        bad = lr_validate(perturb_bracket(lr, i, j, k, t))
                        assert bad, (name, i, j, k, t)
                        anti = [v for v in bad if v.axiom == "antisymmetry"]
                        assert anti, (name, i, j, k, t)
                        expected = (i, i) if i == j else (min(i, j), max(i, j))
                        assert anti[0].witness == expected, (name, i, j, k, t)


def basis_forms(lr, module, degree):
    unit = lr.alg.one()
    zero = lr.alg.zero()
    for key in combinations(range(lr.rank), degree):
        for slot in range(module.rank):
            vec = tuple(unit if s == slot else zero for s in range(module.rank))
            yield AltForm(lr, module, degree, {key: vec})


def test_criterion_02_differential_squares_to_zero_and_detects_curvature():
    for name, lr in validated_fixtures():
        module = trivial_coefficients(lr)
        for q in range(lr.rank + 1):
            for w in basis_forms(lr, module, q):
                ddw = ce_differential(lr, module, ce_differential(lr, module, w))
                assert ddw.is_zero(), (name, q, sorted(w.values))
    lr = derx3()
    curved = line_with_connection(lr, (lr.alg.zero(), lr.alg.one()))
    witnesses = []
    for w in basis_forms(lr, curved, 0):
        ddw = ce_differential(lr, curved, ce_differential(lr, curved, w, formal=True), formal=True)
        if not ddw.is_zero():
            witnesses.append((sorted(w.values), sorted(ddw.values)))
    assert witnesses, "curved coefficients must break d.d"
    assert witnesses[0][1] == [(0, 1)]


def test_criterion_03_cohomology_dimensions():
    for n in range(1, 5):
        lr = abelian(rationals(), n)
        dims = cohomology_dims(lr, trivial_coefficients(lr), n)
        assert dims == [comb(n, q) for q in range(n + 1)], n
    lr = sl2()
    assert cohomology_dims(lr, trivial_coefficients(lr), 3) == [1, 0, 0, 1]


def test_criterion_04_gerstenhaber_identities_and_degree_one_restriction():
    for name, lr in (("sl2", sl2()), ("derx3", derx3())):
        assert gerstenhaber_validate(lr, 3) == [], name
        for i in range(lr.rank):
            for j in range(lr.rank):
                got = schouten_bracket(Multivector.basis(lr, i), Multivector.basis(lr, j))
                want = Multivector.from_lelem(lr.bracket_elem(i, j))
                assert got == want, (name, i, j)


def fixture_connections():
    lr3 = derx3()
    alg3 = lr3.alg
    lr2 = derx2()
    out = [
        ("derx3-zero", lr3, TopConnection(lr3, (alg3.zero(), alg3.zero()))),
        ("derx3-flat", lr3, TopConnection(lr3, (alg3.one(), alg3.zero()))),
        ("derx3-curved", lr3, TopConnection(lr3, (alg3.zero(), alg3.one()))),
        ("derx2-flat", lr2, TopConnection(lr2, (lr2.alg.basis(1),))),
        ("sl2-zero", sl2(), TopConnection(sl2(), (rationals().zero(),) * 3)),
    ]
    return out


def test_criterion_05_generator_connection_correspondence():
    seen_flat = seen_curved = False
    for name, lr, conn in fixture_connections():
        g = generator_from_connection(lr, conn)
        assert generator_validate(lr, g) == [], name
        assert generator_to_connection(lr, g).omega == conn.omega, name
        square_zero, witness = generator_square(g)
        flat = connection_curvature(lr, conn).is_zero()
        assert square_zero == flat, (name, witness)
        seen_flat = seen_flat or flat
        seen_curved = seen_curved or not flat
    assert seen_flat and seen_curved


def test_criterion_06_exact_generators_derive_the_bracket():
    checked = 0
    for name, lr, conn in fixture_connections():
        if not connection_curvature(lr, conn).is_zero():
            continue
        g = generator_from_connection(lr, conn)
        assert generator_square(g)[0], name
        assert generator_derivation_check(lr, g) == [], name
        checked += 1
    assert checked >= 3


def test_criterion_07_bicomplex_and_dg_biconditionals():
    good = book_double()
    bad = book_double_flipped()
    for t, expect in ((good, True), (bad, False)):
        bic = bicomplex_square_check(t)
        assert bic["twilled"] is expect
        assert (bic["dprime_square"] and bic["dsecond_square"] and bic["anticommute"]) is expect
        assert bic["equivalent"] is True
        for checker in (dg_lie_check, dg_gerstenhaber_check):
            r = checker(t)
            assert (r["square"] and r["derivation"]) is expect
            assert r["twilled"] is expect
            assert r["equivalent"] is True


def test_criterion_08_total_complex_matches_sum_cohomology():
    dsum = direct_sum_pair(rationals(), 2, 2)
    r = total_complex_cohomology_check(dsum, 4)
    assert r["equal"] is True
    assert r["total_dims"] == [comb(4, q) for q in range(5)]
    r = total_complex_cohomology_check(book_double(), 4)
    assert r["equal"] is True
    assert r["total_dims"] == r["sum_dims"]


def test_criterion_09_duality_biconditionals_and_bialgebra_path():
    good = book_double()
    bad = flat_broken()
    for t, expect in ((good, True), (bad, False)):
        assert (not is_twilled(t)) is expect
        dual = semidirect_duality_check(t)
        assert dual["bialgebra"] is expect
        assert dual["dg"] is expect
        assert dual["equivalent"] is True
        tvb = twilled_vs_bialgebra_check(t)
        assert tvb["twilled"] is expect
        assert tvb["bialgebra"] is expect
        assert tvb["equivalent"] is True
    pair = semidirect_dual_pair(good)
    assert bialgebra_check(pair, 3).holds is True
    mp = matched_pair_from_bialgebra(book(), book_dual().bracket)
    assert mp == good
    assert twilled_vs_bialgebra_check(mp) == twilled_vs_bialgebra_check(good)


def test_criterion_10_cli_round_trip_exit_codes_determinism(tmp_path, capsys):
    names = (
        "abelian2.lri",
        "derx2.lri",
        "derx3.lri",
        "desk.lri",
        "direct_sum22.lri",
        "flat_broken.lri",
        "matched_pair.lri",
        "matched_pair_flipped.lri",
        "sl2.lri",
    )
    paths = {n: str(resources.files("lierine") / "fixtures" / n) for n in names}
    for n, p in paths.items():
        inst = parse_instance(p)
        out = tmp_path / n
        out.write_text(serialize_instance(inst))
        assert parse_instance(str(out)) == inst, n
    runs = (
        (["check-twilled", "--input", paths["matched_pair.lri"]], 0),
        (["check-twilled", "--input", paths["matched_pair_flipped.lri"]], 1),
        (["check-bialgebra", "--input", paths["flat_broken.lri"]], 1),
        (["cohomology", "--input", paths["sl2.lri"], "--name", "sl2"], 0),
        (["check-lr", "--input", paths["abelian2.lri"]], 0),
    )
    for argv, expected in runs:
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == expected, argv
        verdicts = [line for line in out.splitlines() if line.startswith("verdict ")]
        all_pass = all(": pass" in line for line in verdicts)
        assert (rc == 0) == all_pass, argv
        assert out.endswith(f"exit: {rc}\n"), argv
    argv = ["check-twilled", "--input", paths["matched_pair_flipped.lri"], "--format", "json-like"]
    # the child imports the same lierine as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(lierine.__file__).parent.parent)}
    first = subprocess.run([sys.executable, "-m", "lierine.cli", *argv], capture_output=True, env=env)
    second = subprocess.run([sys.executable, "-m", "lierine.cli", *argv], capture_output=True, env=env)
    assert first.stdout == second.stdout and first.stdout
    assert first.returncode == second.returncode == 1
    assert json.loads(first.stdout)["exit"] == 1
