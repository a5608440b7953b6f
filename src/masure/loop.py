"""Divided-power exponential coefficients for imaginary root directions,
and the explicit 2x2 matrix model of the completed positive unipotent
group of affine SL2 over truncated power series.

The polynomial family L_n in variables Z_1, Z_2, ... is defined by the
expansion exp(sum_j Z_j zeta^j / j) = sum_n L_n zeta^n; each L_n is
homogeneous of degree n when Z_j carries degree j.  Over a ring R the
completed unipotent group is, inside SL2(R[[t]]),

    [[1 + tR[[t]], R[[t]]], [tR[[t]], 1 + tR[[t]]]],

with a unique lower-unitriangular / diagonal / upper-unitriangular
factorization; the diagonal factor is the image of the imaginary
exponentials diag(1/(1 - r t^s), 1 - r t^s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, lcm, prod
from operator import mul

from .fields import _terms_to_str, is_prime


class LoopError(ValueError):
    pass


class ModulusMismatch(LoopError):
    pass


class BadConstantTerm(LoopError):
    pass


class NotInUmaPlus(LoopError):
    pass


# ---------------------------------------------------------------------------
# sparse polynomials over Q, exponent keys trimmed of trailing zeros

Mono = tuple[int, ...]
QPoly = dict[Mono, Fraction]


def _trim_mono(e: Mono) -> Mono:
    k = len(e)
    while k and e[k - 1] == 0:
        k -= 1
    return e[:k]


def poly_zero() -> QPoly:
    return {}


def poly_const(c) -> QPoly:
    c = Fraction(c)
    return {(): c} if c else {}


def poly_var(j: int) -> QPoly:
    """The variable Z_j (1-indexed)."""
    e = tuple(0 for _ in range(j - 1)) + (1,)
    return {e: Fraction(1)}


def poly_add(a: QPoly, b: QPoly) -> QPoly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(a: QPoly, c) -> QPoly:
    c = Fraction(c)
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def poly_mul(a: QPoly, b: QPoly) -> QPoly:
    out: QPoly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            n = max(len(e1), len(e2))
            e = _trim_mono(tuple(
                (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                for i in range(n)
            ))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_pow(a: QPoly, k: int) -> QPoly:
    out = poly_const(1)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_substitute(a: QPoly, images: list[QPoly]) -> QPoly:
    """Substitute variable j -> images[j-1]."""
    out = poly_zero()
    for e, c in a.items():
        term = poly_const(c)
        for j, k in enumerate(e):
            if k:
                term = poly_mul(term, poly_pow(images[j], k))
        out = poly_add(out, term)
    return out


def poly_weighted_degree(e: Mono) -> int:
    return sum((j + 1) * k for j, k in enumerate(e))


def poly_total_degree(e: Mono) -> int:
    return sum(e)


def poly_str(a: QPoly, name: str = "Z") -> str:
    if not a:
        return "0"
    def mono_str(e: Mono) -> str:
        parts = []
        for j, k in enumerate(e):
            if k == 1:
                parts.append(f"{name}{j + 1}")
            elif k > 1:
                parts.append(f"{name}{j + 1}^{k}")
        return "*".join(parts) if parts else "1"
    items = sorted(a.items(), key=lambda kv: (poly_weighted_degree(kv[0]), kv[0]))
    terms = []
    for e, c in items:
        m = mono_str(e)
        if c == 1 and m != "1":
            terms.append(m)
        elif m == "1":
            terms.append(str(c))
        else:
            terms.append(f"{c}*{m}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# the polynomial family

def _partitions(n: int, low: int = 1):
    """The partitions of n into parts >= low, as non-decreasing part tuples
    in lex order."""
    if n == 0:
        yield ()
        return
    for first in range(low, n // 2 + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest
    if n >= low:
        yield (n,)


def gm_poly(n: int) -> QPoly:
    """L_n as the cycle index of S_n: the partition of n with m_j parts j
    gives the monomial prod Z_j^m_j with coefficient 1 / prod j^m_j m_j!.
    The partitions run in lex order of their non-decreasing part sequences,
    which for n <= 19 is the insertion order of the recurrence
    n L_n = sum_{p=1}^{n} Z_p L_{n-p}."""
    if n < 0:
        raise LoopError("index must be nonnegative")
    out: QPoly = {}
    for parts in _partitions(n):
        mults = [0] * (parts[-1] if parts else 0)
        for j in parts:
            mults[j - 1] += 1
        out[tuple(mults)] = Fraction(1, prod(parts) * prod(map(factorial, mults)))
    return out


def gm_from_generating_function(n: int) -> QPoly:
    """Independent computation: coefficient of zeta^n in
    exp(sum_{j<=n} Z_j zeta^j / j), truncated at zeta^n."""
    if n == 0:
        return poly_const(1)
    # s[k] = coefficient of zeta^k in S = sum Z_j zeta^j / j
    s = [poly_zero()] + [poly_scale(poly_var(j), Fraction(1, j)) for j in range(1, n + 1)]
    # exp(S) = sum_k S^k / k!; S has no constant term so k <= n suffices
    coeff = [poly_zero() for _ in range(n + 1)]
    coeff[0] = poly_const(1)
    power = [poly_const(1)] + [poly_zero() for _ in range(n)]  # S^0
    factorial = 1
    for k in range(1, n + 1):
        nxt = [poly_zero() for _ in range(n + 1)]
        for i in range(n + 1):
            if not power[i]:
                continue
            for j in range(1, n + 1 - i):
                if s[j]:
                    nxt[i + j] = poly_add(nxt[i + j], poly_mul(power[i], s[j]))
        power = nxt
        factorial *= k
        for i in range(n + 1):
            coeff[i] = poly_add(coeff[i], poly_scale(power[i], Fraction(1, factorial)))
    return coeff[n]


def check_binomial_specialization(n: int) -> bool:
    """Under Z_j -> t^j Z every monomial of L_n picks up t^n, so the check
    reduces to: sum over monomials of coeff * Z^(total degree) equals
    Z (Z+1) ... (Z+n-1) / n!  (the sign-cancelled form of the binomial)."""
    spec: dict[int, Fraction] = {}
    for e, c in gm_poly(n).items():
        d = poly_total_degree(e)
        spec[d] = spec.get(d, Fraction(0)) + c
    rising = [Fraction(1)]  # coefficients of prod_{k=0}^{n-1} (Z + k)
    for k in range(n):
        nxt = [Fraction(0)] * (len(rising) + 1)
        for i, c in enumerate(rising):
            nxt[i + 1] += c
            nxt[i] += c * k
        rising = nxt
    expected = {i: c / factorial(n) for i, c in enumerate(rising) if c}
    return {k: v for k, v in spec.items() if v} == expected


def check_convolution(n: int) -> bool:
    """L_n(Z + Z') = sum_{p+q=n} L_p(Z) L_q(Z') in 2n variables."""
    sums = [poly_add(poly_var(j), poly_var(n + j)) for j in range(1, n + 1)]
    lhs = poly_substitute(gm_poly(n), sums)
    rhs = poly_zero()
    for p in range(n + 1):
        lp = gm_poly(p)
        lq = gm_poly(n - p)
        shifted = poly_substitute(lq, [poly_var(n + j) for j in range(1, n - p + 1)]) \
            if n - p >= 1 else lq
        rhs = poly_add(rhs, poly_mul(lp, shifted))
    return lhs == rhs


# ---------------------------------------------------------------------------
# truncated power series

GF = "gf"  # coefficients in F_p
QQ = "q"   # coefficients in Q


@dataclass(frozen=True)
class SeriesRing:
    kind: str
    p: int = 0

    def __post_init__(self) -> None:
        if self.kind == GF and not is_prime(self.p):
            raise LoopError(f"{self.p} is not prime")
        if self.kind == QQ and self.p != 0:
            raise LoopError(f"the rational series ring takes no prime, got p = {self.p}")
        if self.kind not in (GF, QQ):
            raise LoopError(f"unknown coefficient ring {self.kind!r}")

    def coerce(self, c):
        if self.kind == GF:
            return c % self.p
        return c if type(c) is Fraction else Fraction(c)

    def lift(self, coeffs) -> tuple[tuple[int, ...], int]:
        """Integer numerators over one common denominator: coeffs[k] is
        nums[k] / den.  Over F_p the coefficients are their own numerators
        over 1."""
        if self.kind == GF:
            return coeffs, 1
        den = lcm(*(c.denominator for c in coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in coeffs), den

    def frac(self, nums, den: int, ratio: int = 1) -> tuple:
        """The coefficients nums[k] / (den * ratio^k), each reduced once;
        over F_p, den and ratio are units."""
        dens = accumulate(repeat(ratio), mul, initial=den)
        if self.kind == GF:
            p = self.p
            if den == ratio == 1:
                return tuple([c % p for c in nums])
            return tuple(c * pow(d, -1, p) % p for c, d in zip(nums, dens))
        return tuple(map(Fraction, nums, dens))


@dataclass(frozen=True)
class TruncSeries:
    """Element of R[[t]] / t^modulus with explicit modulus."""

    ring: SeriesRing
    coeffs: tuple
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise LoopError("modulus must be >= 1")
        cs = list(self.coeffs)[: self.modulus]
        cs += [0] * (self.modulus - len(cs))
        object.__setattr__(self, "coeffs", tuple(map(self.ring.coerce, cs)))

    def _check(self, other: "TruncSeries") -> None:
        if self.ring != other.ring:
            raise LoopError("mixed coefficient rings")
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"{self.modulus} != {other.modulus}")

    def __add__(self, o: "TruncSeries") -> "TruncSeries":
        self._check(o)
        return TruncSeries(self.ring, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)),
                           self.modulus)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.ring, tuple(-a for a in self.coeffs), self.modulus)

    def __sub__(self, o: "TruncSeries") -> "TruncSeries":
        return self + (-o)

    def __mul__(self, o: "TruncSeries") -> "TruncSeries":
        self._check(o)
        n = self.modulus
        xs, dx = self.ring.lift(self.coeffs)
        ys, dy = self.ring.lift(o.coeffs)
        nonzero = [(j, b) for j, b in enumerate(ys) if b]
        out = [0] * n
        for i, a in enumerate(xs):
            if not a:
                continue
            for j, b in nonzero:
                if i + j >= n:
                    break
                out[i + j] += a * b
        return TruncSeries(self.ring, self.ring.frac(out, dx * dy), n)

    def inverse(self) -> "TruncSeries":
        """1/f for f = F/D with integer F: with h_0 = 1 and
        h_k = -sum_{j=1..k} F_j h_{k-j} F_0^(j-1), the k-th coefficient of
        1/f is D h_k / F_0^(k+1).  Over F_p (p > 0) the powers of F_0 and
        every h_k are kept reduced mod p."""
        ring, n, p = self.ring, self.modulus, self.ring.p
        nums, den = ring.lift(self.coeffs)
        f0 = nums[0]
        if not f0:
            raise ZeroDivisionError("non-unit constant term")
        weights = [(j, c * pow(f0, j - 1, p or None)) for j, c in enumerate(nums) if j and c]
        h = [1]
        for k in range(1, n):
            acc = 0
            for j, w in weights:
                if j > k:
                    break
                acc -= w * h[k - j]
            h.append(acc % p if p else acc)
        return TruncSeries(ring, ring.frac([den * hk for hk in h], f0, f0), n)

    def shift_in_t(self) -> bool:
        """True when the series lies in tR[[t]]."""
        return self.coeffs[0] == 0

    def congruent_one_mod_t(self) -> bool:
        one = self.ring.coerce(1)
        return self.coeffs[0] == one

    def __str__(self) -> str:
        body = _terms_to_str(enumerate(self.coeffs), " + ") or "0"
        return f"{body} (mod t^{self.modulus})"


def series(ring: SeriesRing, coeffs, modulus: int) -> TruncSeries:
    return TruncSeries(ring, tuple(coeffs), modulus)


def series_const(ring: SeriesRing, c, modulus: int) -> TruncSeries:
    return TruncSeries(ring, (c,), modulus)


def series_one(ring: SeriesRing, modulus: int) -> TruncSeries:
    return series_const(ring, 1, modulus)


def series_zero(ring: SeriesRing, modulus: int) -> TruncSeries:
    return series_const(ring, 0, modulus)


def one_minus_rtn(ring: SeriesRing, r, n: int, modulus: int) -> TruncSeries:
    cs = [0] * modulus
    cs[0] = 1
    if n < modulus:
        cs[n] = -ring.coerce(r)
    return TruncSeries(ring, tuple(cs), modulus)


# ---------------------------------------------------------------------------
# 2x2 series matrices and Lemma-style product parameters

@dataclass(frozen=True)
class SeriesMatrix:
    a: TruncSeries
    b: TruncSeries
    c: TruncSeries
    d: TruncSeries

    def __post_init__(self) -> None:
        self.a._check(self.b)
        self.b._check(self.c)
        det = self.a * self.d
        if any(self.b.coeffs) and any(self.c.coeffs):  # else triangular: b*c = 0
            det = det - self.b * self.c
        if det != series_one(det.ring, det.modulus):
            raise LoopError("determinant is not 1 at this modulus")

    @property
    def modulus(self) -> int:
        return self.a.modulus

    @property
    def ring(self) -> SeriesRing:
        return self.a.ring

    def __mul__(self, o: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def _times_one_minus(ring: SeriesRing, nums: list, den: int, r, k: int) -> int:
    """Multiply the series nums / den in place by (1 - r t^k), for
    1 <= k < len(nums), and return the new denominator.  P_m -= r P_{m-k}
    runs from the top coefficient down, so each P_{m-k} is read before it
    changes.  Over F_p the numerators stay reduced over den = 1; over Q,
    with r = a/b, nums <- b nums - a t^k nums and den <- b den."""
    if not r:
        return den
    if ring.kind == GF:
        p = ring.p
        for m in range(len(nums) - 1, k - 1, -1):
            nums[m] = (nums[m] - r * nums[m - k]) % p
        return den
    a, b = r.numerator, r.denominator
    for m in range(len(nums) - 1, k - 1, -1):
        nums[m] = b * nums[m] - a * nums[m - k]
    if b != 1:
        for m in range(k):
            nums[m] *= b
    return den * b


def product_from_params(ring: SeriesRing, params, modulus: int) -> TruncSeries:
    """prod_{n < modulus} (1 - r_n t^n) mod t^modulus; parameters past
    r_{modulus-1} do not reach the truncation and are ignored."""
    nums, den = [1] + [0] * (modulus - 1), 1
    for k, r in zip(range(1, modulus), params):
        den = _times_one_minus(ring, nums, den, ring.coerce(r), k)
    return TruncSeries(ring, ring.frac(nums, den), modulus)


def series_to_product_params(f: TruncSeries) -> tuple:
    """The unique (r_1, ..., r_{N-1}) with prod (1 - r_n t^n) = f mod t^N.
    The partial product of the factors found so far agrees with f below
    t^k, so r_k is its t^k coefficient minus f's; the factor 1 - r_k t^k
    then enters the partial product as one sparse update."""
    if not f.congruent_one_mod_t():
        raise BadConstantTerm("series must have constant term 1")
    ring, n = f.ring, f.modulus
    params = []
    nums, den = [1] + [0] * (n - 1), 1
    for k in range(1, n):
        r = ring.coerce(ring.frac(nums[k:k + 1], den)[0] - f.coeffs[k])
        params.append(r)
        den = _times_one_minus(ring, nums, den, r, k)
    return tuple(params)


# ---------------------------------------------------------------------------
# the completed unipotent group

def uma_membership(m: SeriesMatrix) -> bool:
    """Entry pattern [[1+tR, R], [tR, 1+tR]] (determinant 1 is enforced by
    the SeriesMatrix constructor)."""
    return (m.a.congruent_one_mod_t() and m.d.congruent_one_mod_t()
            and m.c.shift_in_t())


def uma_factorize(m: SeriesMatrix) -> tuple[SeriesMatrix, SeriesMatrix, SeriesMatrix]:
    """Unique L * D * U with L lower unitriangular (entry in tR), D diagonal
    with entries 1 mod t, U upper unitriangular."""
    if not uma_membership(m):
        raise NotInUmaPlus("matrix does not match the unipotent pattern")
    ring, n = m.ring, m.modulus
    one, zero = series_one(ring, n), series_zero(ring, n)
    a_inv = m.a.inverse()
    low = m.c * a_inv                       # in tR[[t]]
    d2 = m.d - low * m.b                    # second diagonal entry
    up = m.b * a_inv
    lower = SeriesMatrix(one, zero, low, one)
    diag = SeriesMatrix(m.a, zero, zero, d2)
    upper = SeriesMatrix(one, up, zero, one)
    return lower, diag, upper
