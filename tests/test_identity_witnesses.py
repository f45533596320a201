"""Exact return values of the graded-identity checkers on failing input:
which identity fails, at which basis labels, and in which order the
witnesses are reported."""

from importlib import resources

from lierine.cli import parse_instance
from lierine.gerst import (
    GeneratorOp,
    Multivector,
    TopConnection,
    generator_derivation_check,
    generator_from_connection,
    generator_square,
    generator_validate,
)
from lierine.instances import abelian, book, book_double, book_dual, derx3, rationals, sl2
from lierine.reporting import Violation
from lierine.twilled import (
    AlmostTwilled,
    Bigraded,
    bicomplex_square_check,
    bigraded_generator_extend,
    bigraded_generator_validate,
    bigraded_labels,
    bv_commutator_check,
    dg_gerstenhaber_check,
    dg_lie_check,
)


def scalar_rows(rows):
    alg = rationals()
    return [[tuple(alg.scalar(c) for c in vec) for vec in row] for row in rows]


def curved_pair():
    """L'' = book_dual acting on L' = Q e by f0.e = e, f1.e = 0: the action
    has curvature -e on (f0, f1), so d'' on multivectors squares to -e."""
    return AlmostTwilled(
        abelian(rationals(), 1), book_dual(), scalar_rows([[[0, 0], [0, 0]]]), scalar_rows([[[1]], [[0]]])
    )


def tangled_pair():
    """book and book_dual with both action tables perturbed: every square
    and the derivation property fail, at different labels."""
    return AlmostTwilled(
        book(),
        book_dual(),
        scalar_rows([[[0, 0], [1, -1]], [[0, 0], [-1, 1]]]),
        scalar_rows([[[0, 0], [-1, -1]], [[-1, 0], [0, 0]]]),
    )


def test_dg_checks_on_curved_action():
    t = curved_pair()
    assert dg_lie_check(t) == {
        "square": False,
        "derivation": True,
        "twilled": False,
        "equivalent": True,
        "witnesses": {"square": (0, (), 0)},
    }
    assert dg_gerstenhaber_check(t) == {
        "square": False,
        "derivation": True,
        "twilled": False,
        "equivalent": True,
        "witnesses": {"square": (0, (), (0,))},
    }
    r = bicomplex_square_check(t)
    assert r["witnesses"] == {"dsecond_square": (0, (), (0,))}


def test_witness_order_when_every_identity_fails():
    t = tangled_pair()
    lie = dg_lie_check(t)
    assert list(lie["witnesses"].items()) == [("square", (0, (), 1)), ("derivation", (0, (), 0, 0, (), 1))]
    ger = dg_gerstenhaber_check(t)
    assert list(ger["witnesses"].items()) == [
        ("square", (0, (), (1,))),
        ("derivation", (0, (), (0,), 0, (), (1,))),
    ]
    bic = bicomplex_square_check(t)
    assert list(bic["witnesses"].items()) == [
        ("anticommute", (0, (), (0,))),
        ("dsecond_square", (0, (), (1,))),
        ("dprime_square", (0, (0,), ())),
    ]
    assert bic["twilled_witness"] == ("jacobi", (0, 1, 2))


def test_generator_validate_on_corrupted_table():
    lr = sl2()
    g = generator_from_connection(lr, TopConnection(lr, [lr.alg.zero()] * 3))
    table = dict(g.table)
    table[(0, (0, 1))] = table[(0, (0, 1))].add(Multivector.basis(lr, 0))
    assert generator_validate(lr, GeneratorOp(lr, table)) == [
        Violation("generator-identity", (0, (0,), 0, (1,)), "")
    ]


def test_curved_generators_square_and_derivation():
    curved = derx3()
    path = str(resources.files("lierine") / "fixtures" / "derx3.lri")
    for lr, c in (
        (curved, TopConnection(curved, [curved.alg.basis(1), curved.alg.zero()])),
        parse_instance(path).build_connection("curved_line"),
    ):
        g = generator_from_connection(lr, c)
        assert generator_square(g) == (False, (0, (0, 1)))
        assert generator_derivation_check(lr, g) == [
            Violation("generator-derivation", (0, (0,), 0, (1,)), "")
        ]


def test_naive_tensor_extension_witnesses():
    t = book_double()
    lp = t.lprime
    g = generator_from_connection(lp, TopConnection(lp, (lp.alg.scalar(-1), lp.alg.zero())))
    found = []
    for flip in (False, True):
        table = {}
        for ta, ss, sp in bigraded_labels(t):
            inner = g.apply(Multivector(lp, {sp: lp.alg.basis(ta)}))
            neg = flip and len(ss) % 2 == 1
            vals = {(ss, k): -c if neg else c for k, c in inner.values.items()}
            table[(ta, ss, sp)] = Bigraded(t, len(ss), max(len(sp) - 1, 0), vals)
        found.append(bigraded_generator_validate(t, GeneratorOp(t, table)))
    assert found == [
        [Violation("bigraded-generator-identity", (0, (), (0,), 0, (0,), ()), "")],
        [Violation("bigraded-generator-identity", (0, (), (0,), 0, (1,), ()), "")],
    ]


def test_bv_commutator_of_curved_connection():
    t = book_double()
    lp = t.lprime
    op = bigraded_generator_extend(
        t, generator_from_connection(lp, TopConnection(lp, (lp.alg.zero(), lp.alg.one())))
    )
    r = bv_commutator_check(t, op)
    assert r == {
        "commutes": False,
        "exact": False,
        "full_bv": False,
        "witnesses": {"commutator": (0, (), (0,)), "square": (0, (), (0, 1))},
    }
    assert list(r["witnesses"]) == ["commutator", "square"]
