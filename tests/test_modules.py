"""Module constructions: duals, exterior powers, line twists, and twisted
Poincare duality as an oracle that does not depend on the differential."""

from lierine.instances import book, derx3, line_with_connection, sl2
from lierine.lrcore import (
    LRModule,
    cohomology_dims,
    dual_module,
    exterior_power,
    tensor_line,
    trivial_coefficients,
)


def adjoint(lr):
    """e_i . e_j = [e_i, e_j]; a module when the anchor vanishes."""
    return LRModule(lr, lr.rank, lr.bracket)


def derx3_connection():
    """Rank 2 over Q[x]/(x^3) with every entry filled: only a connection."""
    lr = derx3()
    a = lr.alg
    action = [
        [(a.basis(1), a.one()), (a.scalar(2), a.basis(2))],
        [(a.zero(), a.scalar(-1)), (a.basis(1) + a.one(), a.zero())],
    ]
    return LRModule(lr, 2, action)


def derx3_flat_sum():
    """Trivial line plus the flat line omega = (1, 0) over derx3."""
    lr = derx3()
    a = lr.alg
    z = a.zero()
    action = [[(z, z), (z, a.one())], [(z, z), (z, z)]]
    return LRModule(lr, 2, action)


class TestDualModule:
    def test_involutive_on_a_connection(self):
        m = derx3_connection()
        assert not m.is_flat()
        assert dual_module(dual_module(m)).action == m.action

    def test_table_is_the_negated_transpose(self):
        """Entry (x, j, k) is -(x . f_k)_j, with the repr of the AElem negation
        also where the entry is zero and kept as it is."""
        for m in (derx3_connection(), adjoint(sl2()), derx3_flat_sum()):
            dual, r = dual_module(m), m.rank
            want = [[tuple(-row[k][j] for k in range(r)) for j in range(r)] for row in m.action]
            assert repr(dual.action) == repr(tuple(tuple(map(tuple, rows)) for rows in want))

    def test_dual_of_flat_is_flat(self):
        assert dual_module(adjoint(sl2())).is_flat()
        assert dual_module(derx3_flat_sum()).is_flat()


class TestExteriorPower:
    def test_first_power_is_the_module(self):
        for m in (derx3_connection(), adjoint(sl2())):
            assert exterior_power(m, 1) == m

    def test_zeroth_power_is_trivial(self):
        m = derx3_connection()
        assert exterior_power(m, 0) == trivial_coefficients(m.lr)

    def test_powers_of_flat_modules_are_flat(self):
        adj = adjoint(sl2())
        assert adj.is_flat()
        for p in range(4):
            assert exterior_power(adj, p).is_flat()
        flat = derx3_flat_sum()
        assert flat.is_flat()
        assert exterior_power(flat, 2).is_flat()

    def test_top_power_of_adjoint_is_the_trace_line(self):
        # ad e0 has trace 1 and ad e1 trace 0 on the book algebra
        lr = book()
        a = lr.alg
        assert exterior_power(adjoint(lr), 2) == line_with_connection(lr, (a.one(), a.zero()))

    def test_top_power_of_flat_sum_is_the_twisting_line(self):
        lr = derx3()
        a = lr.alg
        assert exterior_power(derx3_flat_sum(), 2) == line_with_connection(lr, (a.one(), a.zero()))


class TestTensorLine:
    def test_zero_connection_is_identity(self):
        m = derx3_connection()
        assert tensor_line(m, (m.lr.alg.zero(),) * m.lr.rank) == m

    def test_trivial_twisted_is_the_line(self):
        lr = derx3()
        omega = (lr.alg.basis(1), lr.alg.scalar(3))
        assert tensor_line(trivial_coefficients(lr), omega) == line_with_connection(lr, omega)


class TestTwistedPoincareDuality:
    def test_book_algebra(self):
        # H^k(L, A) and H^(2-k)(L, Lambda^2 L) are dual for the rank-2 book
        # algebra, whose top exterior power carries omega = (1, 0)
        lr = book()
        a = lr.alg
        trivial = cohomology_dims(lr, trivial_coefficients(lr), 2)
        twisted = cohomology_dims(lr, line_with_connection(lr, (a.one(), a.zero())), 2)
        assert trivial == [1, 1, 0]
        assert twisted == [0, 1, 1]
        assert twisted == trivial[::-1]
