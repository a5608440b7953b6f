"""The Bruhat-Tits tree of SL2 over a discretely valued field.

Points are kept in canonical coordinates (x, tail): the point is
x_plus(tail) . x where x lies in the standard apartment A identified with
R, and the tail is reduced so that it is zero or has valuation < -x.
Uniqueness: x_plus(b).x = x_plus(b').x iff b - b' has valuation >= -x,
because the fixator of x in SL2 is [[O, F_{>=-x}], [F_{>=x}, O]].

Sign conventions are all anchored on that fixator description:

* diag(u, 1/u) translates A by -2*val(u);
* x_plus(a) fixes exactly [-val(a), +oo) in A, x_minus(a) fixes
  (-oo, val(a)];
* [[0, 1], [-1, 0]] acts by x -> -x.

These determine the normal form produced by ``act`` and are re-verified
against the lattice model in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import (
    INF,
    FieldConfig,
    FieldElement,
    LaurentField,
    Mat2,
    ParseError,
    Tail,
    _terms_to_str,
    parse_element,
    s_tilde,
    t_diag,
    tail_reduce,
    x_minus,
    x_plus,
)


class TreeError(ValueError):
    pass


class DegenerateSegment(TreeError):
    pass


class NotAVertex(TreeError):
    pass


def _require_sl2(g: Mat2) -> Mat2:
    if g.det() != g.a.config.one():
        raise TreeError("group element must have determinant 1")
    return g


# ---------------------------------------------------------------------------
# points

@dataclass(frozen=True)
class TreePoint:
    x: Fraction
    tail: FieldElement

    def __post_init__(self) -> None:
        v = self.tail.valuation()
        if v is not INF and v >= -self.x:
            raise TreeError("tail not reduced for this position")

    @property
    def config(self) -> FieldConfig:
        return self.tail.config

    def branch_point(self) -> int | None:
        """-val(tail): where this point's apartment leaves A (None on A)."""
        if self.tail.is_zero():
            return None
        return -self.tail.valuation()

    def is_vertex(self) -> bool:
        return Fraction(self.x).denominator == 1

    def __str__(self) -> str:
        return f"({self.x}; {self.tail if not self.tail.is_zero() else 0})"


def make_point(cfg: FieldConfig, x, tail: FieldElement | None = None) -> TreePoint:
    xq = Fraction(x)
    t = tail if tail is not None else cfg.zero()
    return TreePoint(xq, tail_reduce(t, -xq).value)


def point_to_str(p: TreePoint) -> str:
    """Syntax "(x; tail)" with the tail as a sum of uniformizer powers."""
    if p.tail.is_zero():
        return f"({p.x}; 0)"
    if isinstance(p.config, LaurentField):
        body = _terms_to_str(sorted(Tail(p.tail, -p.x).digits().items()))
    else:
        body = "/".join(map(str, p.tail.value))
    return f"({p.x}; {body})"


def parse_point(cfg: FieldConfig, s: str, bound: int | None = None) -> TreePoint:
    """Inverse of point_to_str; accepts any field-element syntax for the tail.
    With a bound, |x| and the tail's exponents (see parse_element) must be at
    most bound, and x must be written without a decimal exponent."""
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")) or ";" not in s:
        raise ParseError(f"point syntax is (x; tail), got {s!r}")
    xs, ts = (part.strip() for part in s[1:-1].split(";", 1))
    if bound is not None and "e" in xs.lower():
        raise ParseError(f"point position {xs!r}: write it as an integer, a/b or a decimal")
    try:
        x = Fraction(xs)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"point position {xs!r} is not a rational") from None
    if bound is not None and abs(x) > bound:
        raise ParseError(f"point position {x} is out of range: at most {bound} in absolute value")
    return make_point(cfg, x, parse_element(cfg, ts, bound))


def origin(cfg: FieldConfig) -> TreePoint:
    return make_point(cfg, 0)


# ---------------------------------------------------------------------------
# group action

def act(g: Mat2, p: TreePoint) -> TreePoint:
    """Canonical coordinates of g.p.

    Writes h = g x_plus(tail) as u n k with u upper unitriangular, n
    monomial and k fixing p.x: a Gauss step when the lower-left entry
    cannot be absorbed into the fixator, the complementary elimination
    otherwise.  The new position is n.(p.x) and the new tail is the
    u-parameter reduced at the new position.
    """
    _require_sl2(g)
    h = g * x_plus(p.tail)
    a, b, c, d = h.entries()
    x0 = p.x
    wc = c.valuation()
    wd = d.valuation()
    if wc is not INF and wd - wc >= -x0:
        # h = x_plus(a/c) . (t_{-1/c} s) . x_plus(d/c), the last factor fixes x0
        y = -x0 + 2 * wc
        u = a / c
    else:
        # h = x_plus(b/d) . t_{1/d} . x_minus(-c/d), the last factor fixes x0
        y = x0 + 2 * wd
        u = b / d
    return make_point(p.config, y, u)


def fixes_point(g: Mat2, p: TreePoint) -> bool:
    """Exact fixator test: conjugate to a point of A and match the
    [[O, F_{>=-x}], [F_{>=x}, O]] pattern."""
    _require_sl2(g)
    t = x_plus(p.tail)
    h = t.inverse() * g * t
    a, b, c, d = h.entries()
    return (a.valuation() >= 0 and d.valuation() >= 0
            and b.valuation() >= -p.x and c.valuation() >= p.x)


def fixed_interval(g: Mat2):
    """Fixed points of g inside the standard apartment.

    Returns (lo, hi) with lo in {-oo} u Z and hi in Z u {+oo}, or None if
    g fixes no point of A.  g = [[a,b],[c,d]] fixes [-val(b), val(c)]
    when a, d are integral and that interval is nonempty.
    """
    a, b, c, d = g.entries()
    if a.valuation() < 0 or d.valuation() < 0:
        return None
    lo = -b.valuation() if not b.is_zero() else -INF
    hi = c.valuation() if not c.is_zero() else INF
    if lo > hi:
        return None
    return (lo, hi)


def monomial_action(n: Mat2, x) -> Fraction | tuple:
    """Action on A of a monomial matrix: diag(u,1/u) translates by
    -2 val(u); an antidiagonal [[0, beta], [-1/beta, 0]] sends x to
    -x - 2 val(beta)."""
    xq = Fraction(x)
    a, b, c, d = n.entries()
    if b.is_zero() and c.is_zero():
        return xq - 2 * a.valuation()
    if a.is_zero() and d.is_zero():
        return -xq - 2 * b.valuation()
    raise TreeError("not a monomial matrix")


# ---------------------------------------------------------------------------
# metric structure

def _meet(p: TreePoint, q: TreePoint) -> tuple[Fraction, Fraction]:
    """(top, d): the highest point of the geodesic [p, q] in apartment
    coordinates, top = max(m, p.x, q.x) where m = -val(p.tail - q.tail) is
    where the two points' apartments diverge (m absent for equal tails),
    and the length d = 2 top - p.x - q.x."""
    diff = p.tail - q.tail
    if diff.is_zero():
        top = max(p.x, q.x)
    else:
        top = max(Fraction(-diff.valuation()), p.x, q.x)
    return top, 2 * top - p.x - q.x


def distance(p: TreePoint, q: TreePoint) -> Fraction:
    """d = 2 top - p.x - q.x, with top the meet point of ``_meet``."""
    return _meet(p, q)[1]


def retract_plus(p: TreePoint) -> Fraction:
    """Retraction onto A centered at the end +oo."""
    return p.x


def retract_minus(p: TreePoint) -> Fraction:
    """Retraction onto A centered at the end -oo: folds p's branch upward
    across its branch point."""
    b = p.branch_point()
    if b is None:
        return p.x
    return 2 * Fraction(b) - p.x


def retract(p: TreePoint, center: int) -> Fraction:
    if center > 0:
        return retract_plus(p)
    return retract_minus(p)


def project_to_A(p: TreePoint) -> TreePoint:
    """Closest point of the standard apartment; a vertex when p is not on A."""
    b = p.branch_point()
    if b is None:
        return p
    return make_point(p.config, b)


def point_on_segment(p: TreePoint, q: TreePoint, s: Fraction) -> TreePoint:
    """Point at distance s from p on the geodesic [p, q]."""
    s = Fraction(s)
    top, d = _meet(p, q)
    if s < 0 or s > d:
        raise TreeError("parameter outside the segment")
    return _point_at(p, q, top, s)


def _point_at(p: TreePoint, q: TreePoint, top: Fraction, s: Fraction) -> TreePoint:
    """Point at distance s from p on [p, q], given the meet point top."""
    if s <= top - p.x:
        return make_point(p.config, p.x + s, p.tail)
    return make_point(p.config, 2 * top - p.x - s, q.tail)


def geodesic(p: TreePoint, q: TreePoint, n: int) -> list[TreePoint]:
    """n+1 evenly spaced points from p to q."""
    if n < 1:
        raise TreeError("need at least one subdivision")
    top, d = _meet(p, q)
    return [_point_at(p, q, top, Fraction(k, n) * d) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# Iwasawa decomposition

def in_iwahori(g: Mat2) -> bool:
    """Fixator of the fundamental alcove [0,1]: [[O, O], [m, O]]."""
    a, b, c, d = g.entries()
    return (a.valuation() >= 0 and b.valuation() >= 0
            and c.valuation() >= 1 and d.valuation() >= 0)


def iwasawa(g: Mat2, sign: int) -> tuple[Mat2, Mat2, Mat2]:
    """g = u n k with u in U^sign, n monomial, k in the Iwahori subgroup."""
    _require_sl2(g)
    cfg = g.a.config
    a, b, c, d = g.entries()
    if sign > 0:
        if not c.is_zero() and d.valuation() >= c.valuation():
            u = x_plus(a / c)
            n = t_diag(-(c.inverse())) * s_tilde(cfg)
            k = x_plus(d / c)
        else:
            u = x_plus(b / d)
            n = t_diag(d.inverse())
            k = x_minus(-(c / d))
    else:
        if not a.is_zero() and b.valuation() >= a.valuation():
            u = x_minus(-(c / a))
            n = t_diag(a)
            k = x_plus(b / a)
        else:
            u = x_minus(-(d / b))
            n = t_diag(b) * s_tilde(cfg)
            k = x_minus(-(a / b))
    return u, n, k


# ---------------------------------------------------------------------------
# vertices, neighbors, orbits

def _require_vertex(v: TreePoint) -> int:
    if not v.is_vertex():
        raise NotAVertex(f"{v} has non-integral position")
    return int(v.x)


def neighbors(v: TreePoint) -> list[TreePoint]:
    """The p+1 vertices at distance 1.

    Order: the up neighbor (toward +oo in v's own apartment) first, then
    the down neighbors by residue digit 0..p-1; digit 0 is the down
    neighbor inside v's own apartment.
    """
    x = _require_vertex(v)
    cfg = v.config
    out = [make_point(cfg, x + 1, v.tail)]
    for digit in range(cfg.p):
        t = v.tail + cfg.monomial(digit, -x) if digit else v.tail
        out.append(make_point(cfg, x - 1, t))
    return out


def ball(center: TreePoint, radius: int) -> list[TreePoint]:
    """Vertices at tree distance <= radius, in BFS order: the next layer is
    each vertex's neighbors but the one nearer the center it came from."""
    _require_vertex(center)
    layer = [(center, None)]
    out = [center]
    for _ in range(radius):
        layer = [(w, v) for v, came_from in layer for w in neighbors(v) if w != came_from]
        out += [w for w, _ in layer]
    return out


def orbit_class(v: TreePoint) -> int:
    """d(origin, v) mod 2; constant on SL2-orbits of vertices."""
    _require_vertex(v)
    d = distance(origin(v.config), v)
    return int(d) % 2


# ---------------------------------------------------------------------------
# exchange

def exchange_apartment(a: FieldElement) -> Mat2:
    """Exchange construction at the half-apartment pair of B = x_minus(a).A.

    B meets A in (-oo, val(a)]; the returned g'' = x_plus(-1/a) satisfies
    A n g''.A = [val(a), +oo), so the three apartments pairwise share a
    half-apartment and their triple intersection is the vertex val(a).
    """
    if a.is_zero():
        raise TreeError("exchange needs a nonzero parameter")
    return x_plus(-(a.inverse()))


# ---------------------------------------------------------------------------
# segment retraction (rank-1 Hecke paths)

@dataclass(frozen=True)
class TreePath:
    """Piecewise affine image of a segment under a retraction, in apartment
    coordinates.  breaks are times in [0,1]; values are positions."""

    breaks: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    speed: Fraction  # d(p, q): one-sided speeds are +-speed

    def velocity(self, k: int) -> Fraction:
        return (self.values[k + 1] - self.values[k]) / (self.breaks[k + 1] - self.breaks[k])

    def folds(self) -> list[tuple[Fraction, Fraction]]:
        """Interior times (with positions) where the velocity changes."""
        out = []
        for k in range(len(self.breaks) - 2):
            if self.velocity(k) != self.velocity(k + 1):
                out.append((self.breaks[k + 1], self.values[k + 1]))
        return out


def retract_segment(p: TreePoint, q: TreePoint, center: int) -> TreePath:
    """Image of the geodesic [p, q] under the retraction centered at
    center*oo, with exact breakpoints.  The image has at most one fold;
    the fold position is an integer and the post-fold velocity moves away
    from the center (positive for center -oo, negative for +oo)."""
    top, d = _meet(p, q)
    if d == 0:
        raise DegenerateSegment("p = q")
    cand = {Fraction(0), d, top - p.x}
    bp, bq = p.branch_point(), q.branch_point()
    if bp is not None:
        cand.add(Fraction(bp) - p.x)
    if bq is not None:
        cand.add(2 * top - p.x - Fraction(bq))
    ss = sorted(s for s in cand if 0 <= s <= d)
    vals = [retract(_point_at(p, q, top, s), center) for s in ss]
    # merge collinear pieces
    keep_t = [ss[0] / d]
    keep_v = [vals[0]]
    for k in range(1, len(ss) - 1):
        sl_prev = (vals[k] - keep_v[-1]) / (ss[k] / d - keep_t[-1])
        sl_next = (vals[k + 1] - vals[k]) / (ss[k + 1] / d - ss[k] / d)
        if sl_prev != sl_next:
            keep_t.append(ss[k] / d)
            keep_v.append(vals[k])
    keep_t.append(Fraction(1))
    keep_v.append(vals[-1])
    return TreePath(tuple(keep_t), tuple(keep_v), d)
