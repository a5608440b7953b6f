"""Exact arithmetic in discretely valued fields with value group Z.

Both fields are fraction fields Frac(R) with the pi-adic valuation:
``LaurentField(p)`` is F_p(t) = Frac(F_p[t]) with pi = t, and
``PAdicField(p)`` is Q = Frac(Z) with pi = p.  An element is stored as
pi^v * num/den with num and den units of R (prime to pi), coprime, and den
monic (F_p[t]) or positive (Z), so equality is exact, the valuation is v
and the gcd runs on units only.  The arithmetic is written once, in
``FieldElement``, over the ring primitives of each ``FieldConfig``
subclass.

The valuation ring is O = {a : val(a) >= 0}, its maximal ideal
m = {a : val(a) > 0}, and the residue field O/m is F_p in both backends.
``tail_reduce`` computes the canonical representative of a coset
``a + F_{>=cutoff}``: the finite sum of uniformizer powers of ``a`` with
integer exponents strictly below the cutoff.  It is pi^v * (u mod pi^k),
with v = val(a), the stored unit u = num/den and k the number of exponents
in [v, cutoff), and is stored as such with no reduction; ``Tail.digits``
reads its base-p digits off the same truncation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import ClassVar

INF = float("inf")  # valuation of 0

Poly = tuple[int, ...]  # dense coefficients over F_p, low degree first, no trailing zeros


class FieldError(ValueError):
    pass


class DivisionByZero(FieldError):
    pass


class ZeroMatrix(FieldError):
    pass


class ParseError(FieldError):
    pass


# The bases of the strong probable-prime test: the 13 primes 2..41 decide
# primality exactly below PRIME_LIMIT (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact for n < PRIME_LIMIT; a larger n raises FieldError.  A base
    that divides n decides it, so every n <= 41 takes a few remainders."""
    if n >= PRIME_LIMIT:
        raise FieldError(f"residue characteristic {n} is too large: primality is "
                         f"decided below {PRIME_LIMIT}")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base of _BASES, for odd n > 41."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    r, n = list(a), len(b)
    q = [0] * max(0, len(a) - n + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for shift in range(len(a) - n, -1, -1):  # clear r[shift + n - 1]
        c = r[shift + n - 1] * inv_lead % p
        if c:
            q[shift] = c
            for i, y in enumerate(b, shift):
                r[i] = (r[i] - c * y) % p
    return _trim(q), _trim(r[:n - 1])


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
    (of an int), ``_add`` (a + pi^s b), ``_mul``, ``_neg``, ``_split``
    (a nonzero a as (k, a / pi^k) with k its pi-order), ``_reduce`` (a pair
    of units to lowest terms with normalized denominator, with no gcd when
    den = 1), ``_normalize`` (only the denominator), ``_unit_mod`` (a unit
    num/den mod pi^k), ``_digits`` (the base-p digits of such a residue) and
    ``_str`` (the text of a pair).
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
        return _element(self, INF, self._zero, self._one)

    def one(self) -> "FieldElement":
        return self.uniformizer_pow(0)

    def uniformizer_pow(self, k: int) -> "FieldElement":
        """t^k resp. p^k; any integer k."""
        return _element(self, k, self._one, self._one)

    def monomial(self, coeff: int, exp: int) -> "FieldElement":
        """coeff * t^exp resp. coeff * p^exp."""
        c = self._embed(coeff)
        if not c:
            return self.zero()
        k, u = self._split(c)
        return _element(self, k + exp, u, self._one)


class LaurentField(FieldConfig):
    """F_p(t) = Frac(F_p[t]) with the t-adic valuation."""

    kind = "laurent"
    _zero = ()
    _one = (1,)

    def _embed(self, n: int) -> Poly:
        c = n % self.p
        return (c,) if c else ()

    def _add(self, a: Poly, b: Poly, s: int = 0) -> Poly:
        if s >= len(a):  # no overlap: concatenate
            return a + (0,) * (s - len(a)) + b if b else a
        out = list(a) + [0] * (s + len(b) - len(a))
        for i, y in enumerate(b, s):
            out[i] = (out[i] + y) % self.p
        return _trim(out)

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

    def _split(self, a: Poly) -> tuple[int, Poly]:
        k = poly_ord(a)
        return k, a[k:]

    def _reduce(self, num: Poly, den: Poly) -> tuple[Poly, Poly]:
        g = poly_gcd(num, den, self.p) if len(den) > 1 else (1,)
        if g != (1,):
            num, den = poly_divmod(num, g, self.p)[0], poly_divmod(den, g, self.p)[0]
        return self._normalize(num, den)

    def _normalize(self, num: Poly, den: Poly) -> tuple[Poly, Poly]:
        if den[-1] == 1:  # monic denominator
            return num, den
        p, inv = self.p, pow(den[-1], -1, self.p)
        return tuple(x * inv % p for x in num), tuple(x * inv % p for x in den)

    def _unit_mod(self, num: Poly, den: Poly, k: int) -> Poly:
        if den == (1,):
            return num if len(num) <= k else _trim(list(num[:k]))
        return _trim(_poly_series_coeffs(num, den, k, self.p))

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
    _mul = operator.mul
    _neg = operator.neg
    _embed = int

    def _add(self, a: int, b: int, s: int = 0) -> int:
        return a + b * self.p ** s if s else a + b

    def _split(self, n: int) -> tuple[int, int]:
        k, p = 0, self.p
        while n % p == 0:
            n //= p
            k += 1
        return k, n

    def _reduce(self, num: int, den: int) -> tuple[int, int]:
        g = gcd(num, den) if den > 0 else -gcd(num, den)  # positive denominator
        return (num // g, den // g) if g != 1 else (num, den)

    def _normalize(self, num: int, den: int) -> tuple[int, int]:
        return (-num, -den) if den < 0 else (num, den)

    def _unit_mod(self, num: int, den: int, k: int) -> int:
        mod = self.p ** k
        return num * pow(den, -1, mod) % mod

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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class FieldElement:
    """Element pi^v * num/den of Frac(R) in canonical form (see the module
    docstring); zero has v = INF, num = 0 and den = 1.

    ``FieldElement(config, (num, den))`` builds num/den from any pair over R
    with den != 0; ``value`` is that pair in lowest terms.  A product adds
    valuations, and a sum aligns its terms by pi^(v2 - v1) and splits pi off
    only when v1 = v2, since otherwise the sum is a unit.
    """

    config: FieldConfig = field(hash=False)
    v: int | float
    num: Poly | int
    den: Poly | int

    def __init__(self, config: FieldConfig, value: tuple) -> None:
        num, den = value
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            _element(config, INF, config._zero, config._one, self)
            return
        (kn, num), (kd, den) = config._split(num), config._split(den)
        _element(config, kn - kd, *config._reduce(num, den), self)

    @property
    def value(self) -> tuple:
        """(num, den) over R in lowest terms, with normalized denominator."""
        cfg, v, num, den = self.config, self.v, self.num, self.den
        if not num or v == 0:
            return num, den
        return (cfg._add(cfg._zero, num, v), den) if v > 0 else (num, cfg._add(cfg._zero, den, -v))

    # -- ring structure -----------------------------------------------------

    def _check(self, other: "FieldElement") -> None:
        if self.config is not other.config and self.config != other.config:
            raise FieldError("mixed field configurations")

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if not self.num or not other.num:
            return other if not self.num else self
        a, b = (self, other) if self.v <= other.v else (other, self)
        cfg, one, s = self.config, self.config._one, b.v - a.v
        if a.den == one and b.den == one:
            num, den = cfg._add(a.num, b.num, s), one
        else:
            num = cfg._add(cfg._mul(a.num, b.den), cfg._mul(b.num, a.den), s)
            den = cfg._mul(a.den, b.den)
        # the sum of two units may be divisible by pi, or zero
        k, num = cfg._split(num) if s == 0 and num else (0, num)
        return _element(cfg, a.v + k, *cfg._reduce(num, den)) if num else cfg.zero()

    def __neg__(self) -> "FieldElement":
        return _element(self.config, self.v, self.config._neg(self.num), self.den)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        cfg = self.config
        if not self.num or not other.num:
            return cfg.zero()
        num, den = cfg._reduce(cfg._mul(self.num, other.num), cfg._mul(self.den, other.den))
        return _element(cfg, self.v + other.v, num, den)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return _element(self.config, -self.v, *self.config._normalize(self.den, self.num))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def valuation(self) -> int | float:
        """Exact t-adic / p-adic order; INF iff the element is zero."""
        return self.v

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return self.config._str(*self.value)

    def __repr__(self) -> str:
        return f"FieldElement[{self}]"


_set = object.__setattr__


def _element(cfg: FieldConfig, v, num, den, e: FieldElement | None = None) -> FieldElement:
    """pi^v * num/den from parts already in canonical form, set in e or anew."""
    e = object.__new__(FieldElement) if e is None else e
    _set(e, "config", cfg)
    _set(e, "v", v)
    _set(e, "num", num)
    _set(e, "den", den)
    return e


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
    k = _ceil_frac(cutoff) - a.v
    if k <= 0:
        return None
    return a.v, a.config._unit_mod(a.num, a.den, k)


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
    if a.den == cfg._one and r == a.num:
        return Tail(a, cutoff)
    # pi^v * r is canonical: r is a unit, r[0] != 0 resp. r prime to p
    return Tail(_element(cfg, v, r, cfg._one), cutoff)


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


def parse_laurent_terms(s: str, bound: int | None = None) -> dict[int, int]:
    """Parse a Laurent polynomial in t (integer exponents, maybe negative);
    with a bound, every exponent must have absolute value <= bound."""
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
        if bound is not None and abs(exp) > bound:
            raise ParseError(f"exponent {exp} is out of range: at most {bound} in absolute value")
        out[exp] = out.get(exp, 0) + sign * coeff
    return out


def laurent_from_terms(cfg: FieldConfig, terms: dict[int, int]) -> FieldElement:
    out = cfg.zero()
    for e, c in terms.items():
        out = out + cfg.monomial(c % cfg.p, e)
    return out


def parse_element(cfg: FieldConfig, s: str, bound: int | None = None) -> FieldElement:
    """An element in the text syntax above; with a bound, every exponent of t
    resp. the valuation of a p-adic element must have absolute value <= bound."""
    s = s.strip()
    padic = isinstance(cfg, PAdicField)
    # an optional "@ p=<prime>" (p-adic) or "mod <prime>" (Laurent) suffix
    suffix = r"@\s*p=" if padic else r"mod\s*"
    body, prime = re.fullmatch(rf"(.*?)\s*(?:{suffix}(\d+))?", s, re.DOTALL).groups()
    if prime and int(prime) != cfg.p:
        raise ParseError(f"prime mismatch: {prime} vs {cfg.p}")
    if padic:
        m = re.fullmatch(r"(-?\d+)\s*(?:/\s*(-?\d+))?", body)
        if not m:
            raise ParseError(f"bad p-adic element {s!r}")
        e = FieldElement(cfg, (int(m.group(1)), int(m.group(2) or 1)))
        if bound is not None and not e.is_zero() and abs(e.v) > bound:
            raise ParseError(f"valuation {e.v} is out of range: at most {bound} in absolute value")
        return e
    m = re.fullmatch(r"\((.*?)\)\s*/\s*\((.*?)\)", body)
    if m:
        num = laurent_from_terms(cfg, parse_laurent_terms(m.group(1), bound))
        den = laurent_from_terms(cfg, parse_laurent_terms(m.group(2), bound))
        return num / den
    # Laurent polynomial shorthand, e.g. "t^-3+t^4", "0", "1+t"
    if body.strip() == "0":
        return cfg.zero()
    return laurent_from_terms(cfg, parse_laurent_terms(body, bound))


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
