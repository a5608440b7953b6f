"""Exact linear algebra: RREF, rank, kernels and Fourier-Motzkin."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masure.linalg import combination_system, fm_feasible, kernel_basis, rank, rref

try:  # imported here, not inside the properties, whose examples have a 200 ms deadline
    import sympy
except ImportError:
    sympy = None

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonneg = st.fractions(min_value=0, max_value=3, max_denominator=3)


def vectors(n: int):
    return st.lists(fracs, min_size=n, max_size=n).map(tuple)


# nonempty matrices of at most 4x4, rows of equal length
matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=1, max_size=4))


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), start=Fraction(0))


def test_rref_example():
    m, pivots = rref([[0, 2, 4], [1, 1, 1], [1, 2, 3]])
    assert m == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
    assert pivots == [0, 1]


@given(matrices)
def test_kernel_vectors_are_annihilated(a):
    for v in kernel_basis(a):
        assert all(dot(row, v) == 0 for row in a)


@given(matrices)
def test_rank_plus_nullity(a):
    assert rank(a) + len(kernel_basis(a)) == len(a[0])


@given(matrices)
def test_rank_of_transpose(a):
    assert rank(a) == rank([list(col) for col in zip(*a)])


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(matrices)
def test_rank_matches_sympy(a):
    assert rank(a) == sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                    for row in a]).rank()


@given(st.data())
def test_system_around_a_point_is_feasible(data):
    n = data.draw(st.integers(1, 3))
    x0 = data.draw(vectors(n))
    rows = data.draw(st.lists(vectors(n), min_size=1, max_size=6))
    slack = data.draw(st.lists(nonneg, min_size=len(rows), max_size=len(rows)))
    assert fm_feasible([(r, dot(r, x0) - s) for r, s in zip(rows, slack)])


@given(st.data())
def test_nonnegative_combination_is_feasible(data):
    dim = data.draw(st.integers(1, 3))
    vecs = data.draw(st.lists(vectors(dim), min_size=1, max_size=4))
    c0 = data.draw(st.lists(nonneg, min_size=len(vecs), max_size=len(vecs)))
    target = tuple(sum((c * v[i] for c, v in zip(c0, vecs)), start=Fraction(0))
                   for i in range(dim))
    ineqs = combination_system(vecs, target)
    # c0 satisfies every inequality: sum c_i v_i = target, both ways, and c >= 0
    assert all(dot(coeffs, c0) >= const for coeffs, const in ineqs)
    assert fm_feasible(ineqs)
    # pushing the target off the span of the vectors leaves no combination
    for normal in kernel_basis(vecs)[:1]:
        off = tuple(t + x for t, x in zip(target, normal))
        assert not fm_feasible(combination_system(vecs, off))


@given(st.data())
def test_contradiction_is_infeasible(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(vectors(n))
    extra = data.draw(st.lists(st.tuples(vectors(n), fracs), max_size=4))
    ineqs = [(a, Fraction(1)), (tuple(-x for x in a), Fraction(0))] + extra
    assert not fm_feasible(ineqs)


def sympy_feasible(ineqs) -> bool:
    """Feasibility of A x >= b by sympy's exact matrices: a nonempty polyhedron has a
    minimal face {A_S x = b_S} cut out by rank(A) independent rows, and every point of
    that face satisfies the whole system. So try a particular solution of each such
    subsystem. (sympy's simplex, ``lpmin``, is not used as the reference: on degenerate
    systems such as the one in ``test_degenerate_chain_is_infeasible`` it returns
    points that violate the constraints.)"""
    a = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in coeffs]
                      for coeffs, _ in ineqs])
    b = sympy.Matrix([sympy.Rational(k.numerator, k.denominator) for _, k in ineqs])
    r = a.rank()
    if r == 0:
        return all(k <= 0 for k in b)
    for rows in combinations(range(a.rows), r):
        sub = a.extract(list(rows), list(range(a.cols)))
        if sub.rank() < r:
            continue
        sol, params = sub.gauss_jordan_solve(b.extract(list(rows), [0]))
        x = sol.subs({p: 0 for p in params})
        if all(lhs >= k for lhs, k in zip(a * x, b)):
            return True
    return False


def test_degenerate_chain_is_infeasible():
    # x2 <= 0 and x1 <= x2 force x1 + x2 <= 0, against x1 + x2 >= 1
    ineqs = [((0, 0, 0), 0), ((0, 0, -1), 0), ((0, -1, 1), 0), ((1, 1, 0), 1), ((0, 1, 1), 1)]
    ineqs = [(tuple(Fraction(c) for c in coeffs), Fraction(k)) for coeffs, k in ineqs]
    assert not fm_feasible(ineqs)
    if sympy is not None:
        assert not sympy_feasible(ineqs)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(deadline=None, max_examples=50)
@given(st.data())
def test_feasibility_matches_sympy_lp(data):
    n = data.draw(st.integers(1, 3))
    ineqs = data.draw(st.lists(st.tuples(vectors(n), fracs), min_size=1, max_size=6))
    assert fm_feasible(ineqs) == sympy_feasible(ineqs)


def test_combination_system_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        combination_system([(Fraction(1), Fraction(0))], (Fraction(1),))
    with pytest.raises(ValueError):
        combination_system([(Fraction(1),), (Fraction(1), Fraction(2))], (Fraction(1),))
