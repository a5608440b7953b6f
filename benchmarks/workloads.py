"""The benchmark's three seeded query workloads.

A workload turns a seed into a stream of queries made of plain data
(strings, ints, Fractions and tuples of them).  Its ``run`` turns one
query into library objects and computes the answer through the public
API of masure; both steps are part of the timed query.

Queries are drawn in shuffled blocks.  Every block holds each (kind, key)
cell of the workload's mix as many times as its weight, where the key is
the field, root datum or coefficient ring; query sizes (ball radius,
word length, modulus, index) cycle through their range per cell, and
prenilpotent pairs alternate between two cost strata.  So every run of
whole blocks carries the stated mix, and two seeds differ in the drawn
values, not in the shares.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from masure import cone, fields, hecke, kmdata, lattices, loop, tree, weyl


@dataclass(frozen=True)
class Query:
    kind: str
    key: str      # field, root datum or coefficient ring the query runs on
    args: tuple


def _blocks(rng: random.Random, cells: list[tuple[str, str, int]], draw) -> Iterator[Query]:
    """Queries without end, in shuffled blocks of the weighted cells;
    draw(kind, key, j) makes the j-th query of its cell."""
    seen: dict[tuple[str, str], int] = {}
    while True:
        block = [(kind, key) for kind, key, weight in cells for _ in range(weight)]
        rng.shuffle(block)
        for kind, key in block:
            j = seen.get((kind, key), 0)
            seen[(kind, key)] = j + 1
            yield Query(kind, key, draw(kind, key, j))


# ---------------------------------------------------------------------------
# tree: SL2 tree queries over F2(t), F3(t) and Q3

TREE_FIELDS = (("F2(t)", 4), ("F3(t)", 3), ("Q3", 3))
TREE_KINDS = (("act", 2), ("dist", 2), ("triple", 1), ("retract", 2), ("ball", 1),
              ("geodesic", 2))
TREE_CELLS = [(kind, name, kw * fw) for kind, kw in TREE_KINDS for name, fw in TREE_FIELDS]
BALL_RADII = (3, 4, 5)


def field_prime(name: str) -> int:
    return int(name[1:].split("(")[0])


def _element_str(rng: random.Random, name: str, lo: int, hi: int) -> str:
    """Random sum of digit * uniformizer^e, lo <= e <= hi, as element syntax."""
    p = field_prime(name)
    digits = {e: rng.randrange(p) for e in range(lo, hi + 1)}
    if name.startswith("Q"):
        value = sum((d * Fraction(p) ** e for e, d in digits.items()), Fraction(0))
        return f"{value.numerator}/{value.denominator}"
    terms = [f"{d}*t^{e}" for e, d in digits.items() if d]
    return "+".join(terms) if terms else "0"


def _point_str(rng: random.Random, name: str, vertex: bool = False) -> str:
    if vertex:
        x = Fraction(rng.randint(-6, 6))
    else:
        x = Fraction(rng.randint(-10, 10), rng.choice((1, 1, 1, 2, 4)))
    if rng.random() < 0.35:
        return f"({x}; 0)"
    top = -(-x.numerator // x.denominator)  # ceil(x)
    depth = rng.randint(1, 4)
    return f"({x}; {_element_str(rng, name, -top - depth, -top)})"


def _distinct_x_points(rng: random.Random, name: str) -> tuple[str, str]:
    while True:
        p, q = _point_str(rng, name), _point_str(rng, name)
        if p.split(";")[0] != q.split(";")[0]:
            return p, q


def stream_tree(seed: int) -> Iterator[Query]:
    rng = random.Random(seed)

    def draw(kind: str, name: str, j: int) -> tuple:
        if kind == "act":
            factors = []
            for _ in range(rng.randint(1, 3)):
                op = rng.choice(("x_plus", "x_minus", "t_diag"))
                arg = rng.randint(-1, 1) if op == "t_diag" else _element_str(rng, name, -1, 2)
                factors.append((op, arg))
            vertex = rng.random() < 0.5
            return (tuple(factors), _point_str(rng, name, vertex),
                    _point_str(rng, name, vertex))  # the second point is for the oracle
        if kind == "dist":
            return (_point_str(rng, name), _point_str(rng, name))
        if kind == "triple":
            return (_point_str(rng, name, True), _point_str(rng, name, True))
        if kind == "retract":
            return _distinct_x_points(rng, name)
        if kind == "ball":
            return (_point_str(rng, name, True), BALL_RADII[j % len(BALL_RADII)])
        if kind == "geodesic":
            return (_point_str(rng, name), _point_str(rng, name), 4)
        raise ValueError(kind)

    return _blocks(rng, TREE_CELLS, draw)


def _tree_fixed() -> dict:
    data = hecke.rank1_data()
    return {"configs": {name: fields.parse_field(name) for name, _ in TREE_FIELDS},
            "rank1": data, "chamber": hecke.standard_chamber(data, -1)}


def _run_tree(q: Query, fixed: dict):
    cfg = fields.parse_field(q.key)
    a = q.args
    if q.kind == "act":
        g = fields.mat_identity(cfg)
        for op, arg in a[0]:
            if op == "t_diag":
                g = g * fields.t_diag(cfg.uniformizer_pow(arg))
            else:
                g = g * getattr(fields, op)(fields.parse_element(cfg, arg))
        v = tree.parse_point(cfg, a[1])
        return g, v, tree.act(g, v)
    if q.kind == "dist":
        return tree.distance(tree.parse_point(cfg, a[0]), tree.parse_point(cfg, a[1]))
    if q.kind == "triple":
        v, w = tree.parse_point(cfg, a[0]), tree.parse_point(cfg, a[1])
        return (tree.distance(v, w),
                lattices.lattice_distance(lattices.vertex_to_lattice(v),
                                          lattices.vertex_to_lattice(w)))
    if q.kind == "retract":
        tp = tree.retract_segment(tree.parse_point(cfg, a[0]), tree.parse_point(cfg, a[1]), -1)
        report = hecke.verify_path(fixed["rank1"], hecke.path_from_tree(tp), (tp.speed / 2,),
                                   fixed["chamber"], 9, 6, 3)
        return tp, report
    if q.kind == "ball":
        return tree.ball(tree.parse_point(cfg, a[0]), a[1])
    if q.kind == "geodesic":
        pts = tree.geodesic(tree.parse_point(cfg, a[0]), tree.parse_point(cfg, a[1]), a[2])
        strs = [tree.point_to_str(z) for z in pts]
        return pts, strs, [tree.parse_point(cfg, s) for s in strs]
    raise ValueError(q.kind)


# ---------------------------------------------------------------------------
# coxeter: Kac-Moody queries on a pool of five root data plus fresh matrices

COXETER_POOL = {
    "A2": ((2, -1), (-1, 2)),
    "affine_sl2": ((2, -2), (-2, 2)),
    "rank2_1_5": ((2, -1), (-5, 2)),
    "affine_A2": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "hyperbolic": ((2, -2, 0), (-2, 2, -1), (0, -1, 2)),
}
COXETER_KINDS = (("weyl", 18), ("roots", 12), ("cone", 18), ("prenilpotent", 12))
FRESH = "fresh"
# A rank-3 pair takes up to a second, two hundred cheap queries' worth: a
# block holds one from each stratum (see prenilpotent_strata).
COXETER_CELLS = [(kind, name, 2 if kind == "prenilpotent" and len(m) == 3 else w)
                 for name, m in COXETER_POOL.items() for kind, w in COXETER_KINDS]
COXETER_CELLS.append((FRESH, FRESH, 72))
WORD_LENGTHS = tuple(range(1, 13))
ROOT_HEIGHTS = tuple(range(8, 21))
PRENILPOTENT_BOUND = 8


def _pool_data() -> dict[str, kmdata.KacMoodyData]:
    return {
        "A2": kmdata.finite_a2_data(),
        "affine_sl2": kmdata.affine_sl2_data(),
        "rank2_1_5": kmdata.rank2_data(1, 5),
        "affine_A2": kmdata.minimal_realization(kmdata.validate(COXETER_POOL["affine_A2"])),
        "hyperbolic": kmdata.minimal_realization(kmdata.validate(COXETER_POOL["hyperbolic"])),
    }


def positive_real_roots(matrix, bound: int) -> list[tuple[int, ...]]:
    """Positive real roots of height <= bound in simple-root coordinates:
    closure of the simple roots under height-raising simple reflections,
    r_i(v) = v - <v, alpha_i^vee> alpha_i with <v, alpha_i^vee> = sum_j a_ij v_j."""
    n = len(matrix)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found, queue = set(simple), list(simple)
    while queue:
        v = queue.pop()
        for i in range(n):
            c = sum(matrix[i][j] * v[j] for j in range(n))
            w = tuple(x - c * (k == i) for k, x in enumerate(v))
            if all(x >= 0 for x in w) and 0 < sum(w) <= bound and w not in found:
                found.add(w)
                queue.append(w)
    return sorted(found, key=lambda v: (sum(v), v))


def _fresh_matrix(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    if n == 2:
        return ((2, -rng.randint(1, 6)), (-rng.randint(1, 6), 2))
    while True:
        m = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        edges = [e for e in ((0, 1), (0, 2), (1, 2)) if rng.random() < 0.7]
        if len(edges) < 2:
            continue
        for i, j in edges:
            m[i][j], m[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
        return tuple(tuple(row) for row in m)


def _elements_up_to_length(matrix, max_len: int) -> list[tuple]:
    """Weyl group elements of length <= max_len, each as the images of the
    simple roots: breadth-first over w -> w r_i, where
    (w r_i)(alpha_j) = w(alpha_j) - a_ij w(alpha_i)."""
    n = len(matrix)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen, layer = {ident}, [ident]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for i in range(n):
                cand = tuple(tuple(x - matrix[i][j] * y for x, y in zip(w[j], w[i]))
                             for j in range(n))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        layer = nxt
    return list(seen)


def prenilpotent_strata(matrix, height: int, max_len: int) -> tuple[list, list]:
    """The pairs of signed real roots of |height| <= height with both sign
    witnesses among the elements of length <= max_len, and the others.
    The library takes up to a hundred times longer on one stratum than on
    the other, so a block draws one pair from each."""
    pos = positive_real_roots(matrix, height)
    signed = pos + [tuple(-x for x in v) for v in pos]
    elements = _elements_up_to_length(matrix, max_len)
    up, down = {}, {}
    for v in signed:
        images = [tuple(sum(c * w[j][k] for j, c in enumerate(v)) for k in range(len(v)))
                  for w in elements]
        up[v] = sum(1 << e for e, img in enumerate(images) if min(img) >= 0)
        down[v] = sum(1 << e for e, img in enumerate(images) if max(img) <= 0)
    both, other = [], []
    for a, b in itertools.combinations(signed, 2):
        (both if up[a] & up[b] and down[a] & down[b] else other).append((a, b))
    return both, other


def stream_coxeter(seed: int) -> Iterator[Query]:
    rng = random.Random(seed)
    strata = {name: prenilpotent_strata(m, 9 if len(m) == 2 else 6, PRENILPOTENT_BOUND)
              for name, m in COXETER_POOL.items()}

    def draw(kind: str, name: str, j: int) -> tuple:
        if kind == FRESH:
            return (_fresh_matrix(rng, 2 + j % 2),)
        n = len(COXETER_POOL[name])
        if kind == "weyl":
            length = WORD_LENGTHS[j % len(WORD_LENGTHS)]
            return (tuple(rng.randrange(n) for _ in range(length)),)
        if kind == "roots":
            return (ROOT_HEIGHTS[j % len(ROOT_HEIGHTS)],)
        if kind == "cone":
            rank = 2 * n - matrix_rank(COXETER_POOL[name])
            return (tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for _ in range(rank)),)
        if kind == "prenilpotent":
            alpha, beta = rng.choice(strata[name][j % 2])
            if rng.random() < 0.5:
                alpha, beta = beta, alpha
            return (alpha, beta, PRENILPOTENT_BOUND)
        raise ValueError(kind)

    return _blocks(rng, COXETER_CELLS, draw)


def matrix_rank(matrix) -> int:
    """Rank of a small integer matrix from its minors."""
    nr, nc = len(matrix), len(matrix[0])
    for k in range(min(nr, nc), 0, -1):
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                if determinant([[matrix[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def determinant(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _find_root(data: kmdata.KacMoodyData, coords) -> weyl.RealRoot:
    v = kmdata.RootVector(tuple(coords))
    target = v if v.is_positive() else -v
    found = weyl.enumerate_real_roots(data, target.height()).find(target)
    if found is None:
        raise ValueError(f"{v} is not a real root")
    return found if v.is_positive() else found.negate()


def _run_coxeter(q: Query, fixed: dict):
    a = q.args
    if q.kind == FRESH:
        m = kmdata.validate(a[0])
        return kmdata.classify(m), kmdata.minimal_realization(m)
    data = fixed["pool"][q.key]
    if q.kind == "weyl":
        w = weyl.weyl_element(data, a[0])
        return w, weyl.inversion_set(data, w)
    if q.kind == "roots":
        return weyl.enumerate_real_roots(data, a[0])
    if q.kind == "cone":
        return cone.normalize_to_dominant(data, a[0])
    if q.kind == "prenilpotent":
        alpha, beta = _find_root(data, a[0]), _find_root(data, a[1])
        verdict = cone.prenilpotent_pair(data, alpha, beta, a[2])
        interval = None
        if isinstance(verdict, cone.Prenilpotent):
            interval = cone.closed_interval(data, alpha, beta, a[2])
        return alpha, beta, verdict, interval
    raise ValueError(q.kind)


# ---------------------------------------------------------------------------
# series: affine-SL2 unipotent queries over F2, F5 and Q

SERIES_RINGS = (("F2", 1), ("F5", 1), ("Q", 1))
SERIES_KINDS = (("factorize", 2), ("params", 2))
GM = "gm"
SERIES_CELLS = [(kind, ring, kw * rw) for kind, kw in SERIES_KINDS for ring, rw in SERIES_RINGS]
SERIES_CELLS.append((GM, "Q", 2))
MODULI = tuple(range(12, 25))
GM_INDICES = tuple(range(1, 15))


def _coeffs(rng: random.Random, ring: str, n: int) -> tuple:
    if ring == "Q":
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
    p = int(ring[1:])
    return tuple(rng.randrange(p) for _ in range(n))


def stream_series(seed: int) -> Iterator[Query]:
    rng = random.Random(seed)

    def draw(kind: str, ring: str, j: int) -> tuple:
        if kind == GM:
            return (GM_INDICES[j % len(GM_INDICES)],)
        n = MODULI[j % len(MODULI)]
        if kind == "factorize":
            low, diag, up = (_coeffs(rng, ring, n) for _ in range(3))
            return (n, (0,) + low[1:], (1,) + diag[1:], up)
        if kind == "params":
            return (n, (1,) + _coeffs(rng, ring, n)[1:])
        raise ValueError(kind)

    return _blocks(rng, SERIES_CELLS, draw)


def parse_ring(name: str) -> loop.SeriesRing:
    if name == "Q":
        return loop.SeriesRing(loop.QQ)
    return loop.SeriesRing(loop.GF, int(name[1:]))


def _run_series(q: Query, fixed: dict):
    a = q.args
    if q.kind == GM:
        return loop.gm_poly(a[0])
    ring = parse_ring(q.key)
    n = a[0]
    if q.kind == "factorize":
        one, zero = loop.series_one(ring, n), loop.series_zero(ring, n)
        low = loop.SeriesMatrix(one, zero, loop.series(ring, a[1], n), one)
        top = loop.series(ring, a[2], n)
        diag = loop.SeriesMatrix(top, zero, zero, top.inverse())
        up = loop.SeriesMatrix(one, loop.series(ring, a[3], n), zero, one)
        m = low * diag * up
        return m, loop.uma_membership(m), loop.uma_factorize(m)
    if q.kind == "params":
        f = loop.series(ring, a[1], n)
        params = loop.series_to_product_params(f)
        return params, loop.product_from_params(ring, params, n)
    raise ValueError(q.kind)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    stream: Callable[[int], Iterator[Query]]   # seed -> queries without end
    fixed: Callable[[], dict]                  # objects built once, at set-up
    run: Callable[[Query, dict], object]       # (query, fixed) -> answer
    block: int           # queries per block
    trace_qps: int       # traced queries per second of --seconds

    def generate(self, seed: int, count: int) -> list[Query]:
        """The first ``count`` queries of the seed, rounded up to whole blocks."""
        return list(itertools.islice(self.stream(seed), -(-count // self.block) * self.block))


def _block(cells) -> int:
    return sum(weight for _, _, weight in cells)


WORKLOADS = {
    "tree": Workload(stream_tree, _tree_fixed, _run_tree, _block(TREE_CELLS), 20),
    "coxeter": Workload(stream_coxeter, lambda: {"pool": _pool_data()}, _run_coxeter,
                        _block(COXETER_CELLS), 4),
    "series": Workload(stream_series, dict, _run_series, _block(SERIES_CELLS), 20),
}
