"""Divided-power exponential coefficients and the completed unipotent group."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masure.loop import (
    GF,
    QQ,
    BadConstantTerm,
    LoopError,
    ModulusMismatch,
    NotInUmaPlus,
    SeriesMatrix,
    SeriesRing,
    _times_one_minus,
    check_binomial_specialization,
    check_convolution,
    gm_from_generating_function,
    gm_poly,
    one_minus_rtn,
    poly_add,
    poly_const,
    poly_mul,
    poly_scale,
    poly_str,
    poly_var,
    poly_total_degree,
    product_from_params,
    series,
    series_one,
    series_to_product_params,
    series_zero,
    uma_factorize,
    uma_membership,
)

R2 = SeriesRing(GF, 2)
R3 = SeriesRing(GF, 3)
R5 = SeriesRing(GF, 5)
RQ = SeriesRing(QQ)

HALF = Fraction(1, 2)


def _recurrence_gm(n):
    """L_n by n L_n = sum_{p=1}^{n} Z_p L_{n-p} over the sparse polynomials."""
    table = [poly_const(1)]
    for m in range(1, n + 1):
        acc = {}
        for p in range(1, m + 1):
            acc = poly_add(acc, poly_mul(poly_var(p), table[m - p]))
        table.append(poly_scale(acc, Fraction(1, m)))
    return table[n]


class TestPolynomials:
    def test_first_values(self):
        assert gm_poly(0) == {(): 1}
        assert gm_poly(1) == {(1,): 1}
        assert gm_poly(2) == {(2,): HALF, (0, 1): HALF}
        assert gm_poly(3) == {(3,): Fraction(1, 6), (1, 1): HALF,
                              (0, 0, 1): Fraction(1, 3)}

    def test_partition_sum_equals_generating_function(self):
        for n in range(15):
            assert gm_poly(n) == gm_from_generating_function(n)

    def test_partition_sum_repr_matches_recurrence(self):
        # lex order of the non-decreasing part sequences is the recurrence's
        # insertion order, so even the dict order agrees
        for n in range(17):
            assert repr(gm_poly(n)) == repr(_recurrence_gm(n))

    def test_weighted_homogeneity(self):
        for n in range(1, 10):
            for e in gm_poly(n):
                assert sum((j + 1) * k for j, k in enumerate(e)) == n

    def test_binomial_specialization(self):
        assert all(check_binomial_specialization(n) for n in range(9))

    def test_binomial_value_n2(self):
        # L_2 at Z_j = Z: Z(Z+1)/2
        spec = {}
        for e, c in gm_poly(2).items():
            d = poly_total_degree(e)
            spec[d] = spec.get(d, Fraction(0)) + c
        assert spec == {1: HALF, 2: HALF}

    def test_convolution(self):
        assert all(check_convolution(n) for n in range(7))

    def test_no_constant_term(self):
        for n in range(1, 13):
            assert () not in gm_poly(n)

    def test_leading_term(self):
        import math

        for n in range(1, 13):
            p = gm_poly(n)
            lead = tuple([n])
            assert p[lead] == Fraction(1, math.factorial(n))
            for e in p:
                if e != lead:
                    assert poly_total_degree(e) <= n - 1

    def test_printing(self):
        assert poly_str(gm_poly(1)) == "Z1"
        assert "Z2" in poly_str(gm_poly(2))


class TestTruncSeries:
    def test_arithmetic(self):
        a = series(R2, (1, 1), 4)
        b = series(R2, (1, 0, 1), 4)
        assert (a * b).coeffs == (1, 1, 1, 1)
        assert (a + b).coeffs == (0, 1, 1, 0)

    def test_inverse(self):
        a = series(R3, (1, 2, 0, 1), 6)
        assert (a * a.inverse()) == series_one(R3, 6)
        aq = series(RQ, (Fraction(1), Fraction(1, 2)), 5)
        assert aq * aq.inverse() == series_one(RQ, 5)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            series(R2, (1,), 3) + series(R2, (1,), 4)

    def test_nonunit_inverse(self):
        with pytest.raises(ZeroDivisionError):
            series(R2, (0, 1), 3).inverse()

    def test_bad_modulus(self):
        with pytest.raises(LoopError):
            series(R2, (1,), 0)

    def test_rational_ring_takes_no_prime(self):
        # a prime on Q would reduce numerators mod p: 2 + t/3 + 7t^2 got a wrong inverse
        with pytest.raises(LoopError, match="takes no prime"):
            SeriesRing(QQ, 5)
        f = series(RQ, (2, Fraction(1, 3), 7), 6)
        assert f * f.inverse() == series_one(RQ, 6)

    def test_str(self):
        a = series(RQ, (Fraction(1, 2), Fraction(-1), 0, 1, Fraction(1, 2)), 6)
        assert str(a) == "1/2 + -1*t + t^3 + 1/2*t^4 (mod t^6)"
        assert str(series(R2, (1, 1, 0, 1), 5)) == "1 + t + t^3 (mod t^5)"
        assert str(series_zero(RQ, 3)) == "0 (mod t^3)"


class TestImaginaryDiagonal:
    """diag(1/(1 - r t^s), 1 - r t^s), built from one_minus_rtn."""

    @staticmethod
    def diagonal(ring, r, s, n):
        low = one_minus_rtn(ring, r, s, n)
        zero = series_zero(ring, n)
        return SeriesMatrix(low.inverse(), zero, zero, low)

    def test_zero_is_identity(self):
        m = self.diagonal(R2, 0, 1, 5)
        one, zero = series_one(R2, 5), series_zero(R2, 5)
        assert (m.a, m.b, m.c, m.d) == (one, zero, zero, one)

    def test_char2_geometric(self):
        m = self.diagonal(R2, 1, 1, 4)
        # oracle: 1/(1-t) mod t^4 = 1 + t + t^2 + t^3 over F_2
        assert m.a.coeffs == (1, 1, 1, 1)
        assert m.d.coeffs == (1, 1, 0, 0)

    def test_group_like_product(self):
        prod = self.diagonal(RQ, Fraction(2), 1, 6) * self.diagonal(RQ, Fraction(-1, 2), 1, 6)
        # stays in the imaginary subgroup: diagonal, entries 1 mod t
        assert prod.b == series_zero(RQ, 6) and prod.c == series_zero(RQ, 6)
        assert prod.a.congruent_one_mod_t() and prod.d.congruent_one_mod_t()
        assert prod.d == one_minus_rtn(RQ, Fraction(2), 1, 6) * \
            one_minus_rtn(RQ, Fraction(-1, 2), 1, 6)
        assert uma_membership(prod)

    def test_exponent_beyond_the_modulus(self):
        # t^s vanishes mod t^n once s >= n
        assert one_minus_rtn(R2, 1, 4, 4) == series_one(R2, 4)
        assert one_minus_rtn(RQ, Fraction(5), 9, 4) == series_one(RQ, 4)


class TestProductParams:
    def test_one(self):
        assert series_to_product_params(series_one(R2, 5)) == (0, 0, 0, 0)

    def test_one_minus_t(self):
        f = series(RQ, (1, -1), 5)
        assert series_to_product_params(f) == (1, 0, 0, 0)

    def test_char2_one_plus_t(self):
        f = series(R2, (1, 1), 4)
        params = series_to_product_params(f)
        assert product_from_params(R2, params, 4) == f

    def test_bijection_roundtrip(self):
        rng = random.Random(40)
        for ring in (R2, R3, RQ):
            for _ in range(60):
                n = 10
                if ring.kind == GF:
                    cs = [rng.randrange(ring.p) for _ in range(n)]
                else:
                    cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(n)]
                cs[0] = 1
                f = series(ring, cs, n)
                params = series_to_product_params(f)
                assert product_from_params(ring, params, n) == f
                params2 = tuple(
                    rng.randrange(ring.p) if ring.kind == GF
                    else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(n - 1))
                g = product_from_params(ring, params2, n)
                assert series_to_product_params(g) == params2

    def test_bad_constant_term(self):
        with pytest.raises(BadConstantTerm):
            series_to_product_params(series(R2, (0, 1), 4))


class TestUma:
    def test_identity_member(self):
        one, zero = series_one(R2, 6), series_zero(R2, 6)
        m = SeriesMatrix(one, zero, zero, one)
        assert uma_membership(m)
        low, diag, up = uma_factorize(m)
        assert (low.c, diag.a, up.b) == (zero, one, zero)

    def test_exp_imaginary_factors_trivially(self):
        # diag(1/(1 - 3t^2), 1 - 3t^2)
        low_part = one_minus_rtn(RQ, Fraction(3), 2, 8)
        zero = series_zero(RQ, 8)
        m = SeriesMatrix(low_part.inverse(), zero, zero, low_part)
        low, diag, up = uma_factorize(m)
        assert low.c == series_zero(RQ, 8)
        assert up.b == series_zero(RQ, 8)
        assert diag.a == m.a

    def test_pattern_rejection(self):
        one, zero = series_one(R2, 4), series_zero(R2, 4)
        bad = SeriesMatrix(one, zero, series(R2, (1,), 4), one)  # c not in tR
        assert not uma_membership(bad)
        with pytest.raises(NotInUmaPlus):
            uma_factorize(bad)

    def test_det_enforced(self):
        one = series_one(R2, 4)
        with pytest.raises(LoopError):
            SeriesMatrix(one, one, series(R2, (0, 1), 4), one)

    @pytest.mark.parametrize("ring, a, b, c, d", [
        (R2, (1, 1), (0,), (0,), (1,)),            # diagonal, det 1 + t
        (R2, (1,), (0,), (0, 1), (1, 0, 1)),       # lower triangular, det 1 + t^2
        (RQ, (1,), (0, 3), (0,), (2,)),            # upper triangular, det 2
        (RQ, (Fraction(1, 2),), (0,), (0,), (2, 1)),  # diagonal, det 1 + t/2
    ])
    def test_det_enforced_on_triangular_matrices(self, ring, a, b, c, d):
        with pytest.raises(LoopError, match="determinant"):
            SeriesMatrix(*(series(ring, cs, 4) for cs in (a, b, c, d)))

    def test_mixed_moduli_rejected_on_triangular_matrices(self):
        one, zero = series_one(RQ, 4), series_zero(RQ, 5)
        with pytest.raises(LoopError):
            SeriesMatrix(one, zero, zero, one)

    def test_factor_roundtrip_unique(self):
        rng = random.Random(41)
        for ring in (R2, RQ):
            for _ in range(40):
                n = 12
                one, zero = series_one(ring, n), series_zero(ring, n)

                def rnd(unit=False, in_t=False):
                    if ring.kind == GF:
                        cs = [rng.randrange(ring.p) for _ in range(n)]
                    else:
                        cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(n)]
                    if unit:
                        cs[0] = 1
                    if in_t:
                        cs[0] = 0
                    return series(ring, cs, n)

                low = SeriesMatrix(one, zero, rnd(in_t=True), one)
                da = rnd(unit=True)
                diag = SeriesMatrix(da, zero, zero, da.inverse())
                up = SeriesMatrix(one, rnd(), zero, one)
                m = low * diag * up
                l2, d2, u2 = uma_factorize(m)
                assert (l2.c, d2.a, d2.d, u2.b) == (low.c, diag.a, diag.d, up.b)


# ---------------------------------------------------------------------------
# the integer kernel of TruncSeries against test-local schoolbook arithmetic

PROPERTY_RINGS = (R2, R5, RQ)


def _norm(ring, c):
    """c as a reduced coefficient of ring: a Fraction over Q, an int in [0, p) over F_p."""
    return Fraction(c) if ring.kind == QQ else c % ring.p


def _coefficient(ring):
    if ring.kind == GF:
        return st.integers(-12, 12)
    return st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def _coeff_lists(draw, ring, n, constant=None):
    """n coefficients of ring; the constant term is 0 or a unit when asked."""
    cs = draw(st.lists(_coefficient(ring), min_size=n, max_size=n))
    if constant == "zero":
        cs[0] = ring.p if ring.kind == GF else 0
    elif constant == "unit":
        cs[0] = draw(st.integers(1, ring.p - 1) if ring.kind == GF
                     else st.fractions(min_value=-9, max_value=9, max_denominator=12)
                     .filter(bool))
    return cs


def _reduced(ring, coeffs) -> bool:
    if ring.kind == GF:
        return all(type(c) is int and 0 <= c < ring.p for c in coeffs)
    return all(type(c) is Fraction for c in coeffs)


def _schoolbook_mul(ring, xs, ys, n):
    return tuple(_norm(ring, sum((Fraction(xs[i]) * Fraction(ys[k - i]) for i in range(k + 1)),
                                 Fraction(0)))
                 for k in range(n))


def _schoolbook_inverse(ring, cs):
    """g_0 = 1/c_0 and g_k = -(sum_{j=1..k} c_j g_{k-j}) / c_0, one term at a time."""
    inv0 = Fraction(1, 1) / cs[0] if ring.kind == QQ else pow(cs[0], ring.p - 2, ring.p)
    g = [_norm(ring, inv0)]
    for k in range(1, len(cs)):
        g.append(_norm(ring, -sum(cs[j] * g[k - j] for j in range(1, k + 1)) * inv0))
    return tuple(g)


@st.composite
def _products(draw):
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    n = draw(st.integers(1, 24))
    constants = st.sampled_from([None, "zero", "unit"])
    return (ring, n, draw(_coeff_lists(ring, n, draw(constants))),
            draw(_coeff_lists(ring, n, draw(constants))))


@settings(max_examples=150, deadline=None)
@given(_products())
def test_mul_matches_schoolbook(case):
    ring, n, xs, ys = case
    prod = series(ring, xs, n) * series(ring, ys, n)
    assert prod.coeffs == _schoolbook_mul(ring, xs, ys, n)
    assert _reduced(ring, prod.coeffs)


@st.composite
def _units(draw):
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    n = draw(st.integers(1, 24))
    return ring, n, series(ring, draw(_coeff_lists(ring, n, "unit")), n)


@settings(max_examples=150, deadline=None)
@given(_units())
def test_inverse_matches_recursion(case):
    ring, n, f = case
    inv = f.inverse()
    assert inv.coeffs == _schoolbook_inverse(ring, f.coeffs)
    assert _reduced(ring, inv.coeffs)
    assert f * inv == series_one(ring, n)


@pytest.mark.parametrize("ring", PROPERTY_RINGS, ids=["F2", "F5", "Q"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_non_unit_inverse_raises(ring, data):
    n = data.draw(st.integers(1, 24))
    f = series(ring, data.draw(_coeff_lists(ring, n, "zero")), n)
    with pytest.raises(ZeroDivisionError):
        f.inverse()


@st.composite
def _one_mod_t(draw):
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    n = draw(st.integers(1, 24))
    cs = draw(_coeff_lists(ring, n))
    cs[0] = 1
    return ring, n, series(ring, cs, n)


@settings(max_examples=100, deadline=None)
@given(_one_mod_t())
def test_product_params_roundtrip(case):
    ring, n, f = case
    params = series_to_product_params(f)
    assert len(params) == n - 1 and _reduced(ring, params)
    assert product_from_params(ring, params, n) == f


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_and_frac(data):
    ring = data.draw(st.sampled_from(PROPERTY_RINGS))
    n = data.draw(st.integers(1, 24))
    coeffs = series(ring, data.draw(_coeff_lists(ring, n)), n).coeffs
    nums, den = ring.lift(coeffs)
    assert all(type(c) is int for c in nums) and type(den) is int and den >= 1
    assert ring.frac(nums, den) == coeffs
    # any integer numerators, over a unit den and ratio: nums[k] / (den * ratio^k)
    nums = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    unit = st.integers(1, ring.p - 1) if ring.kind == GF else st.integers(-30, 30).filter(bool)
    den, ratio = data.draw(unit), data.draw(st.just(1) | unit)
    got = ring.frac(nums, den, ratio)
    if ring.kind == QQ:
        want = tuple(Fraction(c) / den / Fraction(ratio) ** k for k, c in enumerate(nums))
    else:
        want = tuple(c * pow(den * ratio ** k, ring.p - 2, ring.p) % ring.p
                     for k, c in enumerate(nums))
    assert got == want and _reduced(ring, got)


# ---------------------------------------------------------------------------
# sparse factor updates against the general product, one factor at a time

def _general_product(ring, params, n):
    out = series_one(ring, n)
    for k, r in enumerate(params, start=1):
        if k >= n:
            break
        out = out * one_minus_rtn(ring, r, k, n)
    return out


def _general_params(f):
    n = f.modulus
    params = []
    partial = series_one(f.ring, n)
    for k in range(1, n):
        r = f.ring.coerce(partial.coeffs[k] - f.coeffs[k])
        params.append(r)
        partial = partial * one_minus_rtn(f.ring, r, k, n)
    return tuple(params)


@st.composite
def _param_tuples(draw):
    """Parameters with many zeros, up to four more than modulus - 1."""
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    n = draw(st.integers(1, 24))
    params = draw(st.lists(st.just(0) | _coefficient(ring), max_size=n + 3))
    return ring, n, params


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_factor_update_matches_general_product(data):
    ring = data.draw(st.sampled_from(PROPERTY_RINGS))
    n = data.draw(st.integers(2, 24))
    k = data.draw(st.integers(1, n - 1))
    r = ring.coerce(data.draw(_coefficient(ring)))
    f = series(ring, data.draw(_coeff_lists(ring, n)), n)
    nums, den = ring.lift(f.coeffs)
    nums = list(nums)
    den = _times_one_minus(ring, nums, den, r, k)
    assert ring.frac(nums, den) == (f * one_minus_rtn(ring, r, k, n)).coeffs
    # over F_p the numerators stay reduced, so they do not grow with the factors
    assert ring.kind == QQ or (den == 1 and _reduced(ring, nums))


@settings(max_examples=150, deadline=None)
@given(_param_tuples())
def test_product_from_params_matches_general_product(case):
    ring, n, params = case
    got = product_from_params(ring, params, n)
    want = _general_product(ring, params, n)
    assert got == want and repr(got.coeffs) == repr(want.coeffs)
    assert _reduced(ring, got.coeffs)
    # the product of those factors peels back into the same parameters
    assert series_to_product_params(want) == _general_params(want)


@settings(max_examples=150, deadline=None)
@given(_one_mod_t())
def test_series_to_product_params_matches_general_product(case):
    ring, n, f = case
    got = series_to_product_params(f)
    assert repr(got) == repr(_general_params(f))
    assert _reduced(ring, got)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exp_imaginary_is_the_inverse(data):
    ring = data.draw(st.sampled_from(PROPERTY_RINGS))
    n = data.draw(st.integers(1, 24))
    s = data.draw(st.integers(1, 26))
    r = data.draw(st.just(0) | _coefficient(ring))
    inv = one_minus_rtn(ring, r, s, n).inverse()
    # 1/(1 - r t^s) = sum_k r^k t^(ks)
    assert inv == series(ring, [ring.coerce(r) ** (k // s) if k % s == 0 else 0
                                for k in range(n)], n)
    assert _reduced(ring, inv.coeffs)
