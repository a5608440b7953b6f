"""Independent checks of every query answer, run outside the timed region.

Where the library offers a second method (the lattice model, brute-force
inversion sets, the word search, the generating function) the check uses
it; everything else is recomputed here from the query's plain data with
small, separate arithmetic: p-adic/t-adic digits and the tree metric on
them, simple reflections in root coordinates, series convolution, and
Kac's principal-minor test.  ``check`` returns True when the answer holds.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from masure import cone, kmdata, lattices, loop, tree, weyl

from workloads import (COXETER_POOL, FRESH, GM, Query, determinant, field_prime, matrix_rank,
                       positive_real_roots)

# ---------------------------------------------------------------------------
# tree: points as (x, digits) with digits {exponent: digit in [1, p)} below -x

_TERM = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(-?\d+))?)?$")


def _val(q: Fraction, p: int) -> int:
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _padic_digits(q: Fraction, p: int, cutoff: Fraction) -> dict[int, int]:
    out = {}
    while q:
        v = _val(q, p)
        if v >= cutoff:
            break
        unit = q / Fraction(p) ** v
        d = unit.numerator * pow(unit.denominator, -1, p) % p
        out[v] = d
        q -= d * Fraction(p) ** v
    return out


def _laurent_digits(body: str, p: int, cutoff: Fraction) -> dict[int, int]:
    out: dict[int, int] = {}
    if body.strip() == "0":
        return out
    for term in body.replace(" ", "").split("+"):
        m = _TERM.match(term)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        out[exp] = (out.get(exp, 0) + coeff) % p
    return {e: d for e, d in out.items() if d and e < cutoff}


def point_key(s: str, field: str) -> tuple[Fraction, tuple]:
    """(x, sorted digits) of a point written "(x; tail)"."""
    xs, body = s.strip()[1:-1].split(";", 1)
    x, p = Fraction(xs.strip()), field_prime(field)
    if field.startswith("Q"):
        digits = _padic_digits(Fraction(body.strip()), p, -x)
    else:
        digits = _laurent_digits(body, p, -x)
    return x, tuple(sorted(digits.items()))


def key_distance(a, b) -> Fraction:
    (x1, d1), (x2, d2) = a, b
    d1, d2 = dict(d1), dict(d2)
    differ = [e for e in set(d1) | set(d2) if d1.get(e, 0) != d2.get(e, 0)]
    top = max([x1, x2] + ([Fraction(-min(differ))] if differ else []))
    return 2 * top - x1 - x2


def _key(p: tree.TreePoint, field: str):
    return point_key(tree.point_to_str(p), field)


def _retract_minus(key) -> Fraction:
    x, digits = key
    return 2 * Fraction(-digits[0][0]) - x if digits else x


def _check_tree(q: Query, ans, fixed: dict) -> bool:
    a, field = q.args, q.key
    if q.kind == "act":
        g, v, gv = ans
        gw = tree.act(g, tree.parse_point(fixed["configs"][field], a[2]))
        if key_distance(_key(gv, field), _key(gw, field)) != \
                key_distance(point_key(a[1], field), point_key(a[2], field)):
            return False
        if v.is_vertex():
            moved = lattices.Lattice(g * lattices.vertex_to_lattice(v).basis)
            return lattices.lattice_distance(moved, lattices.vertex_to_lattice(gv)) == 0
        return True
    if q.kind == "dist":
        return ans == key_distance(point_key(a[0], field), point_key(a[1], field))
    if q.kind == "triple":
        return ans[0] == ans[1] == key_distance(point_key(a[0], field), point_key(a[1], field))
    if q.kind == "retract":
        tp, report = ans
        folds = tp.folds()
        return (report.verified and len(folds) <= 1
                and all(Fraction(pos).denominator == 1 for _, pos in folds)
                and tp.values[0] == _retract_minus(point_key(a[0], field))
                and tp.values[-1] == _retract_minus(point_key(a[1], field)))
    if q.kind == "ball":
        p, radius = field_prime(field), a[1]
        keys = {_key(v, field) for v in ans}
        center = point_key(a[0], field)
        return (len(ans) == len(keys) == 1 + (p + 1) * (p ** radius - 1) // (p - 1)
                and all(k[0].denominator == 1 and key_distance(k, center) <= radius
                        for k in keys))
    if q.kind == "geodesic":
        pts, strs, back = ans
        n = a[2]
        p0, p1 = point_key(a[0], field), point_key(a[1], field)
        d = key_distance(p0, p1)
        keys = [point_key(s, field) for s in strs]
        return (back == pts and len(keys) == n + 1
                and all(key_distance(p0, k) == Fraction(i, n) * d
                        and key_distance(k, p1) == Fraction(n - i, n) * d
                        for i, k in enumerate(keys)))
    return False


# ---------------------------------------------------------------------------
# coxeter: reflections in root coordinates and on Y, from the matrix alone

def _reflect_root(matrix, i: int, v: tuple) -> tuple:
    c = sum(matrix[i][j] * v[j] for j in range(len(v)))
    return tuple(x - c * (k == i) for k, x in enumerate(v))


def _act_root(matrix, word, v: tuple) -> tuple:
    for i in reversed(word):
        v = _reflect_root(matrix, i, v)
    return v


def _act_y(data, word, y: tuple) -> tuple:
    for i in reversed(word):
        c = sum(Fraction(r) * x for r, x in zip(data.simple_roots[i], y))
        y = tuple(x - c * cv for x, cv in zip(y, data.simple_coroots[i]))
    return y


def _dominant(data, y) -> bool:
    return all(sum(Fraction(r) * x for r, x in zip(root, y)) >= 0 for root in data.simple_roots)


def _greedy_steps(data, v: tuple, cap: int) -> int | None:
    """Steps the greedy smallest-negative-index normalization needs, if <= cap."""
    y = tuple(Fraction(x) for x in v)
    for step in range(cap + 1):
        neg = next((i for i, root in enumerate(data.simple_roots)
                    if sum(Fraction(r) * x for r, x in zip(root, y)) < 0), None)
        if neg is None:
            return step
        y = _act_y(data, (neg,), y)
    return None


def _is_real_root(matrix, v: tuple) -> bool:
    """Lower a root by height-decreasing simple reflections: it is real iff
    this reaches a simple root."""
    if all(x <= 0 for x in v):
        v = tuple(-x for x in v)
    while sum(v) > 1:
        if any(x < 0 for x in v):
            return False
        for i in range(len(v)):
            c = sum(matrix[i][j] * v[j] for j in range(len(v)))
            if c > 0:
                v = _reflect_root(matrix, i, v)
                break
        else:
            return False
    return sum(v) == 1 and all(x >= 0 for x in v)


def _kac_class(matrix) -> str:
    """Kac's principal-minor characterization for an indecomposable GCM."""
    n = len(matrix)
    proper = [determinant([[matrix[i][j] for j in idx] for i in idx])
              for k in range(1, n) for idx in itertools.combinations(range(n), k)]
    full = determinant([list(row) for row in matrix])
    if all(m > 0 for m in proper):
        if full > 0:
            return "finite"
        if full == 0:
            return "affine"
    return "indefinite"


def _check_coxeter(q: Query, ans, fixed: dict) -> bool:
    a = q.args
    if q.kind == FRESH:
        cls, real = ans
        m = a[0]
        n = len(m)
        want = ("finite" if m[0][1] * m[1][0] <= 3 else "affine" if m[0][1] * m[1][0] == 4
                else "indefinite") if n == 2 else _kac_class(m)
        r = real.rank
        pairing_ok = all(sum(real.simple_roots[j][k] * real.simple_coroots[i][k]
                             for k in range(r)) == m[i][j] for i in range(n) for j in range(n))
        return (cls.value == want and r == 2 * n - matrix_rank(m) and pairing_ok
                and matrix_rank([list(x) for x in real.simple_roots]) == n)
    matrix = COXETER_POOL[q.key]
    data = fixed["pool"][q.key]
    n = len(matrix)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if q.kind == "weyl":
        w, inv = ans
        word = a[0]
        if len(w.word) > len(word) or (len(word) - len(w.word)) % 2:
            return False
        if [w.act_root(kmdata.RootVector(s)).coeffs for s in simple] != \
                [_act_root(matrix, word, s) for s in simple]:
            return False
        coords = {r.root.coeffs for r in inv}
        bound = max((sum(c) for c in coords), default=1)
        return (len(inv) == len(coords) == w.length()
                and coords == weyl.brute_inversion_set(data, w, bound))
    if q.kind == "roots":
        bound = a[0]
        roots = ans.roots
        for r in roots:
            if r.root.coeffs != _act_root(matrix, r.witness_word, simple[r.witness_index]):
                return False
            if r.coroot != _act_y(data, r.witness_word, data.simple_coroots[r.witness_index]):
                return False
        coords = [r.root.coeffs for r in roots]
        return coords == positive_real_roots(matrix, bound)
    if q.kind == "cone":
        v = a[0]
        cap = cone.default_cap(v)
        steps = _greedy_steps(data, v, cap)
        if isinstance(ans, cone.InCone):
            image = _act_y(data, ans.w.word, v)
            return (image == tuple(ans.image) and _dominant(data, image)
                    and ans.steps == steps)
        return steps is None
    if q.kind == "prenilpotent":
        alpha, beta, verdict, interval = ans
        if (alpha.root.coeffs, beta.root.coeffs) != (a[0], a[1]):
            return False
        searched = cone.search_prenilpotent(data, alpha, beta, a[2])
        if isinstance(searched, cone.Prenilpotent) and not isinstance(verdict, cone.Prenilpotent):
            return False
        if isinstance(verdict, cone.UnknownWithinBound):
            return isinstance(searched, cone.UnknownWithinBound)
        if isinstance(verdict, cone.NotPrenilpotent):
            return interval is None
        pos = [_act_root(matrix, verdict.to_positive.word, r) for r in (a[0], a[1])]
        neg = [_act_root(matrix, verdict.to_negative.word, r) for r in (a[0], a[1])]
        if not (all(min(v) >= 0 for v in pos) and all(max(v) <= 0 for v in neg)):
            return False
        got = [r.coeffs for r in interval]
        return (a[0] in got and a[1] in got
                and got == sorted(got, key=lambda v: (sum(v), v))
                and all(_is_real_root(matrix, v) for v in got))
    return False


# ---------------------------------------------------------------------------
# series: coefficient lists with their own convolution

def _ring_ops(name: str):
    if name == "Q":
        return Fraction
    p = int(name[1:])
    return lambda c: c % p


def _mul(f, g, norm) -> list:
    return [norm(sum(f[i] * g[k - i] for i in range(k + 1))) for k in range(len(f))]


def _coeffs(s: loop.TruncSeries, norm) -> list:
    return [norm(c) for c in s.coeffs]


def _check_series(q: Query, ans, fixed: dict) -> bool:
    a = q.args
    if q.kind == GM:
        return ans == loop.gm_from_generating_function(a[0])
    norm = _ring_ops(q.key)
    n = a[0]
    one = [norm(1)] + [norm(0)] * (n - 1)
    zero = [norm(0)] * n
    if q.kind == "factorize":
        m, member, (low, diag, up) = ans
        c, d1, u = ([norm(x) for x in xs] for xs in a[1:])
        shape_ok = all(_coeffs(s, norm) == want for s, want in (
            (low.a, one), (low.b, zero), (low.c, c), (low.d, one),
            (diag.a, d1), (diag.b, zero), (diag.c, zero),
            (up.a, one), (up.b, u), (up.c, zero), (up.d, one)))
        d2 = _coeffs(diag.d, norm)
        # L D U = [[d1, d1 u], [c d1, c d1 u + d2]]
        cd1 = _mul(c, d1, norm)
        product = (d1, _mul(d1, u, norm), cd1,
                   [norm(x + y) for x, y in zip(_mul(cd1, u, norm), d2)])
        return (member and shape_ok and _mul(d1, d2, norm) == one
                and [_coeffs(s, norm) for s in (m.a, m.b, m.c, m.d)] == list(product))
    if q.kind == "params":
        params, back = ans
        prod = one
        for k, r in enumerate(params, start=1):  # prod *= 1 - r t^k
            prod = [norm(x - r * prod[i - k]) if i >= k else x for i, x in enumerate(prod)]
        f = [norm(x) for x in a[1]]
        return len(params) == n - 1 and prod == f and _coeffs(back, norm) == f
    return False


CHECKS = {"tree": _check_tree, "coxeter": _check_coxeter, "series": _check_series}


def check(workload: str, q: Query, ans, fixed: dict) -> bool:
    return CHECKS[workload](q, ans, fixed)
