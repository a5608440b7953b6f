"""Valued-field kernel: arithmetic, valuations, residues, tails, parsing."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masure import fields
from masure.fields import (
    INF,
    PRIME_LIMIT,
    DivisionByZero,
    FieldConfig,
    FieldError,
    FieldElement,
    LaurentField,
    Mat2,
    Tail,
    ZeroMatrix,
    _poly_series_coeffs,
    is_prime,
    matrix_valuation,
    parse_element,
    parse_field,
    poly_gcd,
    poly_ord,
    tail_reduce,
    x_plus,
)

F2 = FieldConfig.laurent(2)
F3 = FieldConfig.laurent(3)
Q2 = FieldConfig.padic(2)
Q3 = FieldConfig.padic(3)
Q5 = FieldConfig.padic(5)


def t(cfg, k):
    return cfg.uniformizer_pow(k)


def frac(cfg, q):
    """The rational q in a p-adic field."""
    return cfg.monomial(q.numerator, 0) / cfg.monomial(q.denominator, 0)


def residue(a):
    """The image of a (valuation >= 0) in O/m = F_p: the digit of pi^0 of a
    reduced modulo pi."""
    assert a.valuation() >= 0
    return Tail(a, 1).digits().get(0, 0)


class TestArith:
    def test_poly_product(self):
        prod = (t(F3, 1) + F3.one()) * (t(F3, 1) - F3.one())
        assert prod == t(F3, 2) - F3.one()

    def test_exact_inverse(self):
        inv = F2.one() / (F2.one() - t(F2, 1))
        assert inv * (F2.one() - t(F2, 1)) == F2.one()

    def test_padic_sum(self):
        assert frac(Q2, Fraction(3, 4)) + frac(Q2, Fraction(1, 4)) == Q2.one()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            F2.one() / F2.zero()


class TestValuation:
    def test_t_adic(self):
        assert (t(F2, 2) + t(F2, 5)).valuation() == 2

    def test_p_adic(self):
        assert Q2.monomial(12, 0).valuation() == 2

    def test_zero(self):
        assert F2.zero().valuation() is INF
        assert Q2.zero().valuation() is INF

    def test_negative(self):
        assert (t(F2, -3) + t(F2, 4)).valuation() == -3
        assert frac(Q2, Fraction(3, 8)).valuation() == -3


class TestResidue:
    def test_simple(self):
        assert residue(F3.one() + t(F3, 1)) == 1

    def test_geometric_series(self):
        # 1/(1-t) = 1 + t + t^2 + ...; oracle: the constant coefficient c0
        # satisfies c0 * (1 - t)|_{t=0} = 1
        a = F2.one() / (F2.one() - t(F2, 1))
        assert residue(a) == 1

    def test_negative_valuation_lies_outside_the_ring(self):
        # 6/5 = 1/5 + 1: its digits start at p^-1, so it has no residue
        assert Tail(frac(Q5, Fraction(6, 5)), 1).digits() == {-1: 1, 0: 1}

    def test_multiplicative(self):
        a = F3.one() + t(F3, 1)
        b = F3.monomial(2, 0) + t(F3, 2)
        assert residue(a * b) == (residue(a) * residue(b)) % 3


class TestMatrixValuation:
    def test_diag(self):
        m = Mat2(t(F2, -1), F2.zero(), F2.zero(), t(F2, 1))
        assert matrix_valuation(m) == -1

    def test_identity(self):
        m = Mat2(F2.one(), F2.zero(), F2.zero(), F2.one())
        assert matrix_valuation(m) == 0

    def test_unipotent(self):
        assert matrix_valuation(x_plus(t(F2, -3))) == -3

    def test_zero_matrix(self):
        z = F2.zero()
        with pytest.raises(ZeroMatrix):
            matrix_valuation(Mat2(z, z, z, z))


class TestTail:
    def test_geometric_series_mod_t3(self):
        a = F2.one() / (F2.one() - t(F2, 1))
        tl = tail_reduce(a, 3)
        assert tl.value == F2.one() + t(F2, 1) + t(F2, 2)
        # membership: a - tail in F_{>=3}
        assert (a - tl.value).valuation() >= 3
        # uniqueness: every exponent < 3
        assert all(e < 3 for e in tl.digits())

    def test_already_deep(self):
        assert tail_reduce(t(F2, 5), 3).value.is_zero()

    def test_mixed_exponents(self):
        tl = tail_reduce(t(F2, -2) + t(F2, 4), 0)
        assert tl.value == t(F2, -2)

    def test_fractional_cutoff(self):
        tl = tail_reduce(t(F2, -2) + t(F2, 1), Fraction(3, 2))
        assert tl.value == t(F2, -2) + t(F2, 1)
        tl = tail_reduce(t(F2, 2), Fraction(3, 2))
        assert tl.value.is_zero()

    def test_padic_digits(self):
        tl = tail_reduce(frac(Q2, Fraction(7, 3)), 3)
        assert (frac(Q2, Fraction(7, 3)) - tl.value).valuation() >= 3
        assert all(0 < d < 2 for d in tl.digits().values())


# random element strategies: small rational functions / rationals
def _laurent_elems(cfg):
    coeff = st.integers(min_value=0, max_value=cfg.p - 1)
    poly = st.lists(coeff, min_size=1, max_size=4)

    def build(num, den_shift, extra):
        e = cfg.zero()
        for i, c in enumerate(num):
            e = e + cfg.monomial(c, i - den_shift)
        if extra:
            e = e / (cfg.one() + cfg.uniformizer_pow(1))
        return e

    return st.builds(build, poly, st.integers(min_value=-3, max_value=3), st.booleans())


def _padic_elems(cfg):
    return st.builds(
        lambda n, d: frac(cfg, Fraction(n, d)),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=40),
    )


@settings(max_examples=120, deadline=None)
@given(a=_laurent_elems(F2), b=_laurent_elems(F2))
def test_valuation_laws_laurent(a, b):
    va, vb = a.valuation(), b.valuation()
    assert (a * b).valuation() == va + vb
    vs = (a + b).valuation()
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@settings(max_examples=120, deadline=None)
@given(a=_padic_elems(Q5), b=_padic_elems(Q5))
def test_valuation_laws_padic(a, b):
    assert (a * b).valuation() == a.valuation() + b.valuation()
    vs = (a + b).valuation()
    assert vs >= min(a.valuation(), b.valuation())
    if a.valuation() != b.valuation():
        assert vs == min(a.valuation(), b.valuation())


@settings(max_examples=80, deadline=None)
@given(a=_laurent_elems(F3), b=_laurent_elems(F3),
       k=st.integers(min_value=-3, max_value=5))
def test_tail_homomorphism(a, b, k):
    ta = tail_reduce(a, k).value
    tb = tail_reduce(b, k).value
    assert tail_reduce(a + b, k).value == tail_reduce(ta + tb, k).value
    # idempotence
    assert tail_reduce(ta, k).value == ta


def _per_digit_tail(a, cutoff):
    """Reference: the coset representative built one digit at a time, as
    tail_reduce did before it built the representative in one step."""
    cfg = a.config
    if a.is_zero() or a.valuation() >= cutoff:
        return cfg.zero()
    v = a.valuation()
    hi = -((-cutoff.numerator) // cutoff.denominator) - 1
    if isinstance(cfg, LaurentField):
        num, den = a.value
        coeffs = _poly_series_coeffs(num[poly_ord(num):], den[poly_ord(den):], hi - v + 1, cfg.p)
        val = cfg.zero()
        for i, c in enumerate(coeffs):
            if c:
                val = val + cfg.monomial(c, v + i)
        return val
    r, p, acc = Fraction(*a.value), cfg.p, Fraction(0)
    for e in range(v, hi + 1):
        q = r / Fraction(p) ** e
        if q == 0:
            break
        d = (q.numerator * pow(q.denominator, p - 2, p)) % p
        if d:
            acc += d * Fraction(p) ** e
            r -= d * Fraction(p) ** e
    return FieldElement(cfg, (acc.numerator, acc.denominator))


@pytest.mark.parametrize("cfg", [F2, F3, Q3, Q5], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tail_reduce_laws(cfg, data):
    elems = _laurent_elems(cfg) if isinstance(cfg, LaurentField) else _padic_elems(cfg)
    a = data.draw(elems)
    cutoff = data.draw(st.builds(Fraction, st.integers(min_value=-8, max_value=12),
                                 st.sampled_from([1, 2, 3])))
    tl = tail_reduce(a, cutoff)
    assert (a - tl.value).valuation() >= cutoff
    assert tail_reduce(tl.value, cutoff) == tl
    digits = tl.digits()
    assert all(e < cutoff and 0 < d < cfg.p for e, d in digits.items())
    total = cfg.zero()
    for e, d in digits.items():
        total = total + cfg.monomial(d, e)
    assert total == tl.value
    assert tl.value == _per_digit_tail(a, cutoff)


def _fraction_val(q, p):
    """Test-local p-adic valuation of a nonzero Fraction."""
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


_fraction_pairs = st.tuples(st.integers(-300, 300),
                            st.integers(-300, 300).filter(bool))


@pytest.mark.parametrize("cfg", [Q2, Q3, Q5], ids=str)
@settings(max_examples=100, deadline=None)
@given(x=_fraction_pairs, y=_fraction_pairs)
def test_padic_matches_fraction(cfg, x, y):
    """Over Q the pair arithmetic agrees with fractions.Fraction, and every
    value is the pair (numerator, denominator) of the reduced Fraction."""
    p = cfg.p
    qx, qy = Fraction(*x), Fraction(*y)
    a, b = FieldElement(cfg, x), FieldElement(cfg, y)

    def agree(e, q):
        assert e.value == (q.numerator, q.denominator)

    agree(a, qx)
    agree(a + b, qx + qy)
    agree(a - b, qx - qy)
    agree(a * b, qx * qy)
    agree(-a, -qx)
    if qy:
        agree(a / b, qx / qy)
        agree(b.inverse(), 1 / qy)
    else:
        with pytest.raises(DivisionByZero):
            a / b
    if qx == 0:
        assert a.valuation() is INF and residue(a) == 0
    else:
        v = _fraction_val(qx, p)
        assert a.valuation() == v
        if v < 0:
            assert min(Tail(a, 1).digits()) == v
        else:
            assert residue(a) == qx.numerator * pow(qx.denominator, -1, p) % p
    assert str(a) == f"{qx.numerator}/{qx.denominator} @ p={p}"
    assert parse_element(cfg, str(a)) == a


def _assert_canonical(e):
    num, den = e.value
    assert den and den[-1] == 1  # monic denominator
    assert all(num[-1:]) and all(den[-1:])  # no trailing zero coefficients
    assert (num == ()) == e.is_zero()
    assert poly_gcd(num, den, e.config.p) == (1,)


@pytest.mark.parametrize("cfg", [F2, F3], ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_laurent_results_canonical(cfg, data):
    """Over F_p(t) every result is a pair in lowest terms with monic
    denominator, and its numerator is () iff it is zero."""
    a, b = data.draw(_laurent_elems(cfg)), data.draw(_laurent_elems(cfg))
    k = data.draw(st.integers(min_value=-4, max_value=6))
    results = [a, a + b, a - b, a - a, a * b, -a, tail_reduce(a, k).value]
    if not b.is_zero():
        results += [a / b, b.inverse(), (a * b) / b]
    for e in results:
        _assert_canonical(e)


@settings(max_examples=80, deadline=None)
@given(a=_laurent_elems(F3))
def test_print_parse_roundtrip(a):
    assert parse_element(F3, str(a)) == a


@settings(max_examples=80, deadline=None)
@given(a=_padic_elems(Q2))
def test_print_parse_roundtrip_padic(a):
    assert parse_element(Q2, str(a)) == a


class TestParsing:
    def test_field_names(self):
        assert parse_field("F2(t)") == F2
        assert parse_field("Q5") == Q5

    def test_base_config_has_no_ring(self):
        with pytest.raises(ValueError):
            FieldConfig(2)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            FieldConfig.laurent(4)
        with pytest.raises(ValueError):
            parse_field("Q9")

    def test_laurent_shorthand(self):
        assert parse_element(F2, "t^-3") == t(F2, -3)
        assert parse_element(F2, "1+t^2+t^-1") == F2.one() + t(F2, 2) + t(F2, -1)
        assert parse_element(F3, "2*t^5") == F3.monomial(2, 0) * t(F3, 5)
        assert parse_element(F2, "0").is_zero()

    def test_full_fraction_form(self):
        e = parse_element(F3, "(1+t^2+2*t^5)/(1+t) mod 3")
        num = F3.one() + t(F3, 2) + F3.monomial(2, 0) * t(F3, 5)
        assert e == num / (F3.one() + t(F3, 1))

    def test_prime_mismatch(self):
        with pytest.raises(ValueError):
            parse_element(F2, "(1)/(1) mod 3")


def _trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 2) if d < n)


class TestPrimality:
    def test_matches_trial_division(self):
        # is_prime and, apart from it, the strong probable-prime test on every odd n > 41
        for n in range(-3, 10 ** 5):
            assert is_prime(n) == _trial_division(n), n
            if n > 41 and n % 2:
                assert fields._strong_probable_prime(n) == _trial_division(n), n

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                                   321197185, 5394826801, 232250619601, 9746347772161])
    def test_carmichael_numbers(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # to every prime base up to 31
        318665857834031151167461,  # to every prime base up to 37
    ])
    def test_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_near_10_to_18(self):
        assert is_prime(10 ** 18 + 3) and not is_prime(10 ** 18 + 1)
        assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)

    def test_limit(self):
        assert not is_prime(PRIME_LIMIT - 1)  # even
        with pytest.raises(FieldError, match="too large"):
            is_prime(PRIME_LIMIT)
        with pytest.raises(FieldError, match="too large"):
            parse_field(f"Q{PRIME_LIMIT + 2}")


def test_canonical_form_unique():
    # same value built two ways has identical representation
    a = (t(F2, 1) + F2.one()) / (t(F2, 2) - F2.one())
    b = F2.one() / (t(F2, 1) + F2.one())
    assert a == b and hash(a) == hash(b)


def _pi_order(cfg, r) -> int:
    """Test-local pi-order of a nonzero ring element: t over F_p[t], p over Z."""
    if isinstance(cfg, LaurentField):
        return next(i for i, c in enumerate(r) if c)
    k = 0
    while r % cfg.p == 0:
        r, k = r // cfg.p, k + 1
    return k


def _assert_pi_power_times_unit(e):
    """e is stored as pi^v * num/den with num, den units, coprime, den
    normalized; zero iff v is INF; and v is the pi-order of e.value."""
    cfg, num, den = e.config, e.num, e.den
    if isinstance(cfg, LaurentField):
        assert den[-1] == 1 and den[0] != 0
        assert e.is_zero() or (num[0] != 0 and poly_gcd(num, den, cfg.p) == (1,))
    else:
        assert den > 0 and den % cfg.p != 0
        assert e.is_zero() or (num % cfg.p != 0 and gcd(num, den) == 1)
    assert e.is_zero() == (e.v is INF) == (e.valuation() is INF)
    if not e.is_zero():
        vnum, vden = e.value
        assert e.valuation() == e.v == _pi_order(cfg, vnum) - _pi_order(cfg, vden)


@pytest.mark.parametrize("cfg", [F2, F3, Q3, Q5], ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_results_are_pi_power_times_unit(cfg, data):
    elems = _laurent_elems(cfg) if isinstance(cfg, LaurentField) else _padic_elems(cfg)
    a, b = data.draw(elems), data.draw(elems)
    k = data.draw(st.integers(min_value=-4, max_value=6))
    # (a + b) - a cancels the leading terms of a whenever val(a + b) = val(a)
    results = [a, b, a + b, a - b, (a + b) - a, a - a, a * b, -a, tail_reduce(a, k).value]
    if not b.is_zero():
        results += [a / b, b.inverse(), (a * b) / b, b.inverse().inverse()]
    for e in results:
        _assert_pi_power_times_unit(e)


@pytest.mark.parametrize("cfg", [F2, F3, Q3, Q5], ids=str)
def test_pi_power_times_unit_cases(cfg):
    """Sums of equal valuation, quotients with a common factor, and inverses of
    units whose leading coefficient resp. sign must be normalized."""
    pi, one = t(cfg, 1), cfg.one()
    u = one + cfg.monomial(-1, 0) * pi  # 1 - pi: a unit
    cases = [pi + (pi * pi - pi), (one / u) * u, u.inverse(), (-u).inverse(),
             (cfg.monomial(2, 0) - pi).inverse(), (pi / u) * (u / pi), pi - pi,
             tail_reduce(one / u, 4).value]
    assert cases[0] == pi * pi and cases[1] == one and cases[6].is_zero()
    for e in cases:
        _assert_pi_power_times_unit(e)
