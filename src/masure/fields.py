"""Exact arithmetic in discretely valued fields with value group Z.

Both fields are fraction fields Frac(R) with the pi-adic valuation:
``LaurentField(p)`` is F_p(t) = Frac(F_p[t]) with pi = t, and
``PAdicField(p)`` is Q = Frac(Z) with pi = p.  An element is a pair
(num, den) over R in lowest terms with a monic (F_p[t]) or positive (Z)
denominator, so equality and valuation are exact.  The fraction arithmetic
is written once, in ``FieldElement``, over the ring primitives of each
``FieldConfig`` subclass.

The valuation ring is O = {a : val(a) >= 0}, its maximal ideal
m = {a : val(a) > 0}, and the residue field O/m is F_p in both backends.
``tail_reduce`` computes the canonical representative of a coset
``a + F_{>=cutoff}``: the finite sum of uniformizer powers of ``a`` with
integer exponents strictly below the cutoff.  It is built in one step as
pi^v * (u mod pi^k), with v = val(a), the unit u = a / pi^v and k the number
of exponents in [v, cutoff); ``Tail.digits`` reads its base-p digits off the
same truncation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import ClassVar

INF = float("inf")  # valuation of 0

Poly = tuple[int, ...]  # dense coefficients over F_p, low degree first, no trailing zeros


class FieldError(ValueError):
    pass


class DivisionByZero(FieldError):
    pass


class NegativeValuation(FieldError):
    pass


class ZeroMatrix(FieldError):
    pass


class ParseError(FieldError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomials over F_p

def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - len(b)
        c = (r[-1] * inv_lead) % p
        q[shift] = c
        for i, y in enumerate(b):
            r[shift + i] = (r[shift + i] - c * y) % p
        r = list(_trim(r))
    return _trim(q), _trim(r)


def poly_gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((x * inv) % p for x in a)  # monic
    return a


def poly_ord(a: Poly) -> int | float:
    """t-adic order: index of the first nonzero coefficient (INF for 0)."""
    for i, x in enumerate(a):
        if x:
            return i
    return INF


def _poly_series_coeffs(num: Poly, den: Poly, n: int, p: int) -> list[int]:
    """First n coefficients of num/den as a power series; requires den[0] != 0."""
    inv0 = pow(den[0], p - 2, p)
    out = [0] * n
    for k in range(n):
        acc = num[k] if k < len(num) else 0
        for j in range(max(0, k - len(den) + 1), k):
            acc -= out[j] * den[k - j]
        out[k] = (acc * inv0) % p
    return out


# ---------------------------------------------------------------------------
# fields Frac(R) and their elements

@dataclass(frozen=True)
class FieldConfig:
    """A discretely valued field Frac(R), value group normalized to Z.

    A subclass supplies R and its prime pi: ``_zero``, ``_one``, ``_embed``
    (of an int), ``_pi_pow`` (pi^k, k >= 0), ``_add``, ``_mul``, ``_neg``,
    ``_reduce`` (a pair with nonzero numerator to canonical form), ``_ord``
    (pi-order), ``_unit_mod`` (a / pi^val(a) mod pi^k), ``_digits`` (the
    base-p digits of such a residue) and ``_str`` (the text of a pair).
    """

    kind: ClassVar[str]  # backend label, read by tracing tools only
    p: int

    def __post_init__(self) -> None:
        if type(self) is FieldConfig:
            raise FieldError("no ring: use FieldConfig.laurent(p) or FieldConfig.padic(p)")
        if not is_prime(self.p):
            raise FieldError(f"residue characteristic {self.p} is not prime")

    @staticmethod
    def laurent(p: int) -> "FieldConfig":
        return LaurentField(p)

    @staticmethod
    def padic(p: int) -> "FieldConfig":
        return PAdicField(p)

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, (self._embed(n), self._one))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        return FieldElement(self, (self._embed(q.numerator), self._embed(q.denominator)))

    def uniformizer_pow(self, k: int) -> "FieldElement":
        """t^k resp. p^k; any integer k."""
        pk = self._pi_pow(abs(k))
        return FieldElement(self, (pk, self._one) if k >= 0 else (self._one, pk))

    def monomial(self, coeff: int, exp: int) -> "FieldElement":
        """coeff * t^exp resp. coeff * p^exp."""
        return self.from_int(coeff) * self.uniformizer_pow(exp)


class LaurentField(FieldConfig):
    """F_p(t) = Frac(F_p[t]) with the t-adic valuation."""

    kind = "laurent"
    _zero = ()
    _one = (1,)
    _ord = staticmethod(poly_ord)

    def _embed(self, n: int) -> Poly:
        c = n % self.p
        return (c,) if c else ()

    def _pi_pow(self, k: int) -> Poly:
        return (0,) * k + (1,)

    def _add(self, a: Poly, b: Poly) -> Poly:
        if len(a) < len(b):
            a, b = b, a
        p, n = self.p, len(b)
        return _trim([(x + b[i]) % p if i < n else x for i, x in enumerate(a)])

    def _mul(self, a: Poly, b: Poly) -> Poly:
        if not a or not b:
            return ()
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return _trim(out)

    def _neg(self, a: Poly) -> Poly:
        return tuple((-x) % self.p for x in a)

    def _reduce(self, num: Poly, den: Poly) -> tuple[Poly, Poly]:
        p = self.p
        g = poly_gcd(num, den, p)
        if g != (1,):
            num = poly_divmod(num, g, p)[0]
            den = poly_divmod(den, g, p)[0]
        if den[-1] != 1:  # monic denominator
            inv = pow(den[-1], p - 2, p)
            num = tuple((x * inv) % p for x in num)
            den = tuple((x * inv) % p for x in den)
        return num, den

    def _unit_mod(self, num: Poly, den: Poly, k: int) -> Poly:
        return _trim(_poly_series_coeffs(num[poly_ord(num):], den[poly_ord(den):], k, self.p))

    def _digits(self, r: Poly) -> Poly:
        return r

    def _str(self, num: Poly, den: Poly) -> str:
        return f"({poly_to_str(num)})/({poly_to_str(den)}) mod {self.p}"

    def __str__(self) -> str:
        return f"F{self.p}(t)"


class PAdicField(FieldConfig):
    """Q = Frac(Z) with the p-adic valuation."""

    kind = "padic"
    _zero = 0
    _one = 1
    _add = operator.add
    _mul = operator.mul
    _neg = operator.neg
    _embed = int

    def _pi_pow(self, k: int) -> int:
        return self.p ** k

    def _reduce(self, num: int, den: int) -> tuple[int, int]:
        g = gcd(num, den)
        if den < 0:  # positive denominator
            g = -g
        return (num // g, den // g) if g != 1 else (num, den)

    def _ord(self, n: int) -> int:
        v, p = 0, self.p
        while n % p == 0:
            n //= p
            v += 1
        return v

    def _unit_mod(self, num: int, den: int, k: int) -> int:
        p = self.p
        mod = p ** k
        return num // p ** self._ord(num) * pow(den // p ** self._ord(den), -1, mod) % mod

    def _digits(self, r: int) -> list[int]:
        out = []
        while r:
            r, d = divmod(r, self.p)
            out.append(d)
        return out

    def _str(self, num: int, den: int) -> str:
        return f"{num}/{den} @ p={self.p}"

    def __str__(self) -> str:
        return f"Q{self.p}"


@dataclass(frozen=True)
class FieldElement:
    """Element num/den of Frac(R), in lowest terms with normalized
    denominator: a canonical form unique per value."""

    config: FieldConfig
    value: tuple  # (num, den) over the config's ring

    def __post_init__(self) -> None:
        num, den = self.value
        if not den:
            raise DivisionByZero("zero denominator")
        cfg = self.config
        object.__setattr__(self, "value", cfg._reduce(num, den) if num else (cfg._zero, cfg._one))

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if self.config != other.config:
            raise FieldError("mixed field configurations")

    def is_zero(self) -> bool:
        return not self.value[0]

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        cfg = self.config
        (n1, d1), (n2, d2) = self.value, other.value
        return FieldElement(cfg, (cfg._add(cfg._mul(n1, d2), cfg._mul(n2, d1)), cfg._mul(d1, d2)))

    def __neg__(self) -> "FieldElement":
        num, den = self.value
        return FieldElement(self.config, (self.config._neg(num), den))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        cfg = self.config
        (n1, d1), (n2, d2) = self.value, other.value
        return FieldElement(cfg, (cfg._mul(n1, n2), cfg._mul(d1, d2)))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        num, den = self.value
        return FieldElement(self.config, (den, num))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def valuation(self) -> int | float:
        """Exact t-adic / p-adic order; INF iff the element is zero."""
        if self.is_zero():
            return INF
        num, den = self.value
        return self.config._ord(num) - self.config._ord(den)

    def residue(self) -> int:
        """Image in O/m = F_p; requires valuation >= 0."""
        v = self.valuation()
        if v < 0:
            raise NegativeValuation(f"valuation {v} < 0 has no residue")
        return Tail(self, 1).digits().get(0, 0)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return self.config._str(*self.value)

    def __repr__(self) -> str:
        return f"FieldElement[{self}]"


# ---------------------------------------------------------------------------
# coset tails

def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _truncate(a: FieldElement, cutoff: Fraction) -> tuple[int, Poly | int] | None:
    """The digits of ``a`` below the cutoff, or None when val(a) >= cutoff.

    Returns (v, r): v = val(a) and r = (a / pi^v) mod pi^k, with k the number
    of integer exponents in [v, cutoff).  The digit of ``a`` at v + i is the
    i-th base-p digit c_i of r, in [0, p), and c_0 != 0.
    """
    if a.is_zero():
        return None
    v = a.valuation()
    k = _ceil_frac(cutoff) - v
    if k <= 0:
        return None
    return v, a.config._unit_mod(*a.value, k)


@dataclass(frozen=True)
class Tail:
    """Canonical representative of a coset  value + F_{>=cutoff}.

    The representative is a finite sum of uniformizer powers with integer
    exponents strictly below the cutoff; the zero coset has value 0.
    """

    value: FieldElement
    cutoff: Fraction

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def digits(self) -> dict[int, int]:
        """Exponent -> digit map of the representative (digits in [1, p))."""
        got = _truncate(self.value, self.cutoff)
        if got is None:
            return {}
        v, r = got
        return {v + i: c for i, c in enumerate(self.value.config._digits(r)) if c}


def tail_reduce(a: FieldElement, cutoff: Fraction | int) -> Tail:
    """Reduce ``a`` modulo F_{>=cutoff}: a - result lies in F_{>=cutoff}."""
    cutoff = Fraction(cutoff)
    cfg = a.config
    got = _truncate(a, cutoff)
    if got is None:
        return Tail(cfg.zero(), cutoff)
    v, r = got
    # pi^v * r is already in lowest terms: r is a unit and pi^|v| is normalized
    pv = cfg._pi_pow(abs(v))
    return Tail(FieldElement(cfg, (cfg._mul(pv, r), cfg._one) if v >= 0 else (r, pv)), cutoff)


# ---------------------------------------------------------------------------
# 2x2 matrices

@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over the field; GroupElt is the det-1 case."""

    a: FieldElement
    b: FieldElement
    c: FieldElement
    d: FieldElement

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "Mat2":
        dt = self.det()
        if dt.is_zero():
            raise DivisionByZero("singular matrix")
        inv = dt.inverse()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def matrix_valuation(m: Mat2) -> int | float:
    """min of the entry valuations; rejects the zero matrix."""
    vals = [e.valuation() for e in m.entries()]
    v = min(vals)
    if v is INF:
        raise ZeroMatrix("matrix valuation of the zero matrix")
    return v


def mat_identity(cfg: FieldConfig) -> Mat2:
    return Mat2(cfg.one(), cfg.zero(), cfg.zero(), cfg.one())


def x_plus(a: FieldElement) -> Mat2:
    """Upper unitriangular [[1, a], [0, 1]]."""
    cfg = a.config
    return Mat2(cfg.one(), a, cfg.zero(), cfg.one())


def x_minus(a: FieldElement) -> Mat2:
    """Lower unitriangular [[1, 0], [-a, 1]]."""
    cfg = a.config
    return Mat2(cfg.one(), cfg.zero(), -a, cfg.one())


def t_diag(u: FieldElement) -> Mat2:
    """diag(u, 1/u)."""
    cfg = u.config
    return Mat2(u, cfg.zero(), cfg.zero(), u.inverse())


def s_tilde(cfg: FieldConfig) -> Mat2:
    """[[0, 1], [-1, 0]]."""
    one = cfg.one()
    return Mat2(cfg.zero(), one, -one, cfg.zero())


# ---------------------------------------------------------------------------
# text syntax
#
#   LaurentField:  "(<poly>)/(<poly>) mod <p>"   polys like "1+t^2+2*t^5"
#   PAdicField:    "<num>/<den> @ p=<p>"
#
# The printers emit exactly this grammar and the parsers accept it (plus
# Laurent monomial shorthands with negative exponents such as "t^-3" used
# for tree point tails), so print -> parse is the identity.


def _terms_to_str(terms, sep: str = "+") -> str:
    """Join the nonzero (exponent, coefficient) terms, with sep, as a sum of
    powers of t."""
    parts = []
    for e, x in terms:
        if not x:
            continue
        if e == 0:
            parts.append(str(x))
        elif e == 1:
            parts.append("t" if x == 1 else f"{x}*t")
        else:
            parts.append(f"t^{e}" if x == 1 else f"{x}*t^{e}")
    return sep.join(parts)


def poly_to_str(c: Poly) -> str:
    return _terms_to_str(enumerate(c)) if c else "0"


def parse_laurent_terms(s: str) -> dict[int, int]:
    """Parse a Laurent polynomial in t (integer exponents, maybe negative)."""
    s = s.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    # split on + and -, keeping signs; protect negative exponents "^-"
    s = s.replace("^-", "^~")
    tokens = [tok.replace("^~", "^-") for tok in re.findall(r"[+-]?[^+-]+", s)]
    out: dict[int, int] = {}
    for tok in tokens:
        sign = 1
        if tok.startswith("+"):
            tok = tok[1:]
        elif tok.startswith("-"):
            sign = -1
            tok = tok[1:]
        m = re.fullmatch(r"(\d+)(?:\*?t(?:\^(-?\d+))?)?|t(?:\^(-?\d+))?", tok)
        if not m:
            raise ParseError(f"bad term {tok!r}")
        if m.group(1) is not None:
            coeff = int(m.group(1))
            has_t = "t" in tok
            exp = int(m.group(2)) if m.group(2) is not None else (1 if has_t else 0)
        else:
            coeff = 1
            exp = int(m.group(3)) if m.group(3) is not None else 1
        out[exp] = out.get(exp, 0) + sign * coeff
    return out


def laurent_from_terms(cfg: FieldConfig, terms: dict[int, int]) -> FieldElement:
    out = cfg.zero()
    for e, c in terms.items():
        out = out + cfg.monomial(c % cfg.p, e)
    return out


def parse_element(cfg: FieldConfig, s: str) -> FieldElement:
    s = s.strip()
    if isinstance(cfg, PAdicField):
        m = re.fullmatch(r"(-?\d+)\s*(?:/\s*(-?\d+))?\s*(?:@\s*p=(\d+))?", s)
        if not m:
            raise ParseError(f"bad p-adic element {s!r}")
        if m.group(3) and int(m.group(3)) != cfg.p:
            raise ParseError(f"prime mismatch: {m.group(3)} vs {cfg.p}")
        return FieldElement(cfg, (int(m.group(1)), int(m.group(2) or 1)))
    m = re.fullmatch(r"\((.*?)\)\s*/\s*\((.*?)\)\s*(?:mod\s*(\d+))?", s)
    if m:
        if m.group(3) and int(m.group(3)) != cfg.p:
            raise ParseError(f"prime mismatch: {m.group(3)} vs {cfg.p}")
        num = laurent_from_terms(cfg, parse_laurent_terms(m.group(1)))
        den = laurent_from_terms(cfg, parse_laurent_terms(m.group(2)))
        return num / den
    # Laurent polynomial shorthand, e.g. "t^-3+t^4", "0", "1+t"
    m2 = re.fullmatch(r"(.*?)\s*(?:mod\s*(\d+))?", s)
    body = m2.group(1) if m2 else s
    if m2 and m2.group(2) and int(m2.group(2)) != cfg.p:
        raise ParseError(f"prime mismatch: {m2.group(2)} vs {cfg.p}")
    if body.strip() == "0":
        return cfg.zero()
    return laurent_from_terms(cfg, parse_laurent_terms(body))


def parse_field(s: str) -> FieldConfig:
    """Field names: "F2(t)" (Laurent) or "Q2" / "Q@p=2" (p-adic)."""
    s = s.strip()
    m = re.fullmatch(r"F(\d+)\(t\)", s)
    if m:
        return FieldConfig.laurent(int(m.group(1)))
    m = re.fullmatch(r"Q(?:@p=)?(\d+)", s)
    if m:
        return FieldConfig.padic(int(m.group(1)))
    raise ParseError(f"unknown field {s!r}; use e.g. F2(t) or Q3")
