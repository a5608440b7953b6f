"""Exact arithmetic in discretely valued fields with value group Z.

Two backends are supported:

* ``LaurentRational(p)`` -- the rational function field F_p(t) with the
  t-adic valuation.  Elements are reduced fractions of polynomials over
  F_p with monic denominator, so equality and valuation are exact.
* ``PAdicRational(p)`` -- the rationals Q with the p-adic valuation.
  Elements are ``fractions.Fraction`` in lowest terms.

The valuation ring is O = {a : val(a) >= 0}, its maximal ideal
m = {a : val(a) > 0}, and the residue field O/m is F_p in both backends.
``tail_reduce`` computes the canonical representative of a coset
``a + F_{>=cutoff}``: the finite sum of uniformizer powers of ``a`` with
integer exponents strictly below the cutoff.  It is built in one step from
the unit u = a / pi^v, v = val(a), truncated modulo pi^k, where k counts the
exponents in [v, cutoff): over F_p(t) the first k power-series coefficients
of u give ``t^v * (c_0 + ... + c_{k-1} t^{k-1})`` directly as a reduced
fraction; over Q_p one modular inverse gives ``p^v * (u mod p^k)``.
``Tail.digits`` reads its digits off the same truncation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

INF = float("inf")  # valuation of 0

Valuation = int | float  # exact integer, or INF for the zero element

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


def poly_add(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def poly_neg(a: Poly, p: int) -> Poly:
    return tuple((-x) % p for x in a)


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


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
# field configuration and elements

LAURENT = "laurent"
PADIC = "padic"


@dataclass(frozen=True)
class FieldConfig:
    """A discretely valued field, value group normalized to Z."""

    kind: str  # LAURENT or PADIC
    p: int

    def __post_init__(self) -> None:
        if self.kind not in (LAURENT, PADIC):
            raise FieldError(f"unknown backend {self.kind!r}")
        if not is_prime(self.p):
            raise FieldError(f"residue characteristic {self.p} is not prime")

    @staticmethod
    def laurent(p: int) -> "FieldConfig":
        return FieldConfig(LAURENT, p)

    @staticmethod
    def padic(p: int) -> "FieldConfig":
        return FieldConfig(PADIC, p)

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == LAURENT:
            c = n % self.p
            return FieldElement(self, ((c,) if c else (), (1,)))
        return FieldElement(self, Fraction(n))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        if self.kind == PADIC:
            return FieldElement(self, Fraction(q))
        num = self.from_int(q.numerator)
        den = self.from_int(q.denominator)
        return num / den

    def uniformizer_pow(self, k: int) -> "FieldElement":
        """t^k resp. p^k; any integer k."""
        if self.kind == LAURENT:
            if k >= 0:
                return FieldElement(self, ((0,) * k + (1,), (1,)))
            return FieldElement(self, ((1,), (0,) * (-k) + (1,)))
        return FieldElement(self, Fraction(self.p) ** k)

    def monomial(self, coeff: int, exp: int) -> "FieldElement":
        """coeff * t^exp resp. coeff * p^exp."""
        return self.from_int(coeff) * self.uniformizer_pow(exp)

    def __str__(self) -> str:
        return f"F{self.p}(t)" if self.kind == LAURENT else f"Q{self.p}"


@dataclass(frozen=True)
class FieldElement:
    """Element of F_p(t) or of Q, in a canonical form unique per value."""

    config: FieldConfig
    value: object  # (num, den) Poly pair for LAURENT, Fraction for PADIC

    def __post_init__(self) -> None:
        if self.config.kind == LAURENT:
            num, den = self.value
            p = self.config.p
            if not den:
                raise DivisionByZero("zero denominator")
            if not num:
                object.__setattr__(self, "value", ((), (1,)))
                return
            g = poly_gcd(num, den, p)
            if len(g) > 1 or (g and g != (1,)):
                num = poly_divmod(num, g, p)[0]
                den = poly_divmod(den, g, p)[0]
            if den[-1] != 1:  # monic denominator
                inv = pow(den[-1], p - 2, p)
                num = tuple((x * inv) % p for x in num)
                den = tuple((x * inv) % p for x in den)
            object.__setattr__(self, "value", (num, den))
        else:
            object.__setattr__(self, "value", Fraction(self.value))

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if self.config != other.config:
            raise FieldError("mixed field configurations")

    def is_zero(self) -> bool:
        if self.config.kind == LAURENT:
            return not self.value[0]
        return self.value == 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if self.config.kind == PADIC:
            return FieldElement(self.config, self.value + other.value)
        p = self.config.p
        (n1, d1), (n2, d2) = self.value, other.value
        num = poly_add(poly_mul(n1, d2, p), poly_mul(n2, d1, p), p)
        return FieldElement(self.config, (num, poly_mul(d1, d2, p)))

    def __neg__(self) -> "FieldElement":
        if self.config.kind == PADIC:
            return FieldElement(self.config, -self.value)
        num, den = self.value
        return FieldElement(self.config, (poly_neg(num, self.config.p), den))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if self.config.kind == PADIC:
            return FieldElement(self.config, self.value * other.value)
        p = self.config.p
        (n1, d1), (n2, d2) = self.value, other.value
        return FieldElement(self.config, (poly_mul(n1, n2, p), poly_mul(d1, d2, p)))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.config.kind == PADIC:
            return FieldElement(self.config, 1 / self.value)
        num, den = self.value
        return FieldElement(self.config, (den, num))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def valuation(self) -> int | float:
        """Exact t-adic / p-adic order; INF iff the element is zero."""
        if self.is_zero():
            return INF
        if self.config.kind == LAURENT:
            num, den = self.value
            return poly_ord(num) - poly_ord(den)
        v, n = 0, self.value.numerator
        p = self.config.p
        while n % p == 0:
            n //= p
            v += 1
        d = self.value.denominator
        while d % p == 0:
            d //= p
            v -= 1
        return v

    def residue(self) -> int:
        """Image in O/m = F_p; requires valuation >= 0."""
        v = self.valuation()
        if v is INF:
            return 0
        if v < 0:
            raise NegativeValuation(f"valuation {v} < 0 has no residue")
        p = self.config.p
        if self.config.kind == LAURENT:
            if v > 0:
                return 0
            num, den = self.value
            # reduced form with ord(num) = 0 forces ord(den) = 0
            return (num[0] * pow(den[0], p - 2, p)) % p
        if v > 0:
            return 0
        n, d = self.value.numerator, self.value.denominator
        return (n * pow(d, p - 2, p)) % p

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if self.config.kind == PADIC:
            return f"{self.value.numerator}/{self.value.denominator} @ p={self.config.p}"
        num, den = self.value
        return f"({poly_to_str(num)})/({poly_to_str(den)}) mod {self.config.p}"

    def __repr__(self) -> str:
        return f"FieldElement[{self}]"


# ---------------------------------------------------------------------------
# coset tails

def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _truncate(a: FieldElement, cutoff: Fraction) -> tuple[int, Poly | int] | None:
    """The digits of ``a`` below the cutoff, or None when val(a) >= cutoff.

    Returns (v, r) with v = val(a) and r the unit a / pi^v modulo pi^k, where
    k is the number of integer exponents in [v, cutoff): over F_p(t) the
    coefficient tuple (c_0, ..., c_{k-1}) with trailing zeros trimmed, over
    Q_p the integer sum c_i p^i in [0, p^k).  The digit of ``a`` at v + i is
    c_i, in [0, p), and c_0 != 0.
    """
    if a.is_zero():
        return None
    v = a.valuation()
    k = _ceil_frac(cutoff) - v
    if k <= 0:
        return None
    p = a.config.p
    if a.config.kind == LAURENT:
        num, den = a.value
        return v, _trim(_poly_series_coeffs(num[poly_ord(num):], den[poly_ord(den):], k, p))
    num, den = a.value.numerator, a.value.denominator
    if v >= 0:
        num //= p ** v
    else:
        den //= p ** -v
    mod = p ** k
    return v, num * pow(den, -1, mod) % mod


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
        if self.value.config.kind == PADIC:  # r packs the digits base p
            p, packed, r = self.value.config.p, r, []
            while packed:
                packed, d = divmod(packed, p)
                r.append(d)
        return {v + i: c for i, c in enumerate(r) if c}


def tail_reduce(a: FieldElement, cutoff: Fraction | int) -> Tail:
    """Reduce ``a`` modulo F_{>=cutoff}: a - result lies in F_{>=cutoff}."""
    cutoff = Fraction(cutoff)
    cfg = a.config
    got = _truncate(a, cutoff)
    if got is None:
        return Tail(cfg.zero(), cutoff)
    v, r = got
    if cfg.kind == PADIC:
        return Tail(FieldElement(cfg, r * Fraction(cfg.p) ** v), cutoff)
    # t^v * r is already in lowest terms: r(0) != 0 and the denominator is monic
    pair = ((0,) * v + r, (1,)) if v >= 0 else (r, (0,) * -v + (1,))
    return Tail(FieldElement(cfg, pair), cutoff)


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
#   LaurentRational:  "(<poly>)/(<poly>) mod <p>"   polys like "1+t^2+2*t^5"
#   PAdicRational:    "<num>/<den> @ p=<p>"
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
    if cfg.kind == PADIC:
        m = re.fullmatch(r"(-?\d+)\s*(?:/\s*(-?\d+))?\s*(?:@\s*p=(\d+))?", s)
        if not m:
            raise ParseError(f"bad p-adic element {s!r}")
        if m.group(3) and int(m.group(3)) != cfg.p:
            raise ParseError(f"prime mismatch: {m.group(3)} vs {cfg.p}")
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise DivisionByZero("zero denominator")
        return FieldElement(cfg, Fraction(int(m.group(1)), den))
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
