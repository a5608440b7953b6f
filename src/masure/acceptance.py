"""Acceptance checks: one function per criterion, shared by the test
suite and the ``selftest`` CLI command.  Every check is exact (no
tolerances) and deterministic given the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import cone, hecke, kmdata, lattices, loop, tree, weyl
from .fields import FieldConfig, FieldElement, Mat2, mat_identity, matrix_valuation, t_diag, x_minus, x_plus

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# helpers

def _random_laurent_poly(rng: random.Random, cfg: FieldConfig, lo: int, hi: int) -> FieldElement:
    e = cfg.zero()
    for k in range(lo, hi + 1):
        e = e + cfg.monomial(rng.randrange(cfg.p), k)
    return e


def _laurent_exponent_range(e: FieldElement) -> tuple[int, int] | None:
    """(min, max) exponent when e is a Laurent polynomial, else None."""
    if e.is_zero():
        return (0, 0)
    if e.den != (1,):  # e = t^v * num/den is a Laurent polynomial iff den = 1
        return None
    return e.v, e.v + len(e.num) - 1


def _random_group_element(rng: random.Random, cfg: FieldConfig, max_deg: int) -> Mat2:
    """Random element of SL2 whose entries are Laurent polynomials with all
    exponents in [-max_deg, max_deg]."""
    while True:
        g = mat_identity(cfg)
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                g = g * x_plus(_random_laurent_poly(rng, cfg, -1, 2))
            elif kind == 1:
                g = g * x_minus(_random_laurent_poly(rng, cfg, -1, 2))
            else:
                g = g * t_diag(cfg.uniformizer_pow(rng.randint(-1, 1)))
        ok = True
        for e in g.entries():
            rngexp = _laurent_exponent_range(e)
            if rngexp is None or rngexp[0] < -max_deg or rngexp[1] > max_deg:
                ok = False
                break
        if ok:
            return g


def _random_point(rng: random.Random, cfg: FieldConfig) -> tree.TreePoint:
    x = Fraction(rng.randint(-10, 10), rng.choice([1, 1, 1, 2, 4]))
    if rng.random() < 0.35:
        return tree.make_point(cfg, x)
    top = -(-x.numerator // x.denominator)  # ceil(x)
    t = cfg.zero()
    depth = rng.randint(1, 4)
    for e in range(-top - depth, -top + 1):
        t = t + cfg.monomial(rng.randrange(cfg.p), e)
    return tree.make_point(cfg, x, t)


# ---------------------------------------------------------------------------
# criteria

def check_classification_table(seed: int = DEFAULT_SEED) -> CheckResult:
    bad = []
    for a in range(1, 7):
        for b in range(1, 7):
            m = kmdata.validate([[2, -a], [-b, 2]])
            got = kmdata.classify(m)
            ab = a * b
            want = (kmdata.KMClass.FINITE if ab <= 3
                    else kmdata.KMClass.AFFINE if ab == 4
                    else kmdata.KMClass.INDEFINITE)
            if got != want or kmdata.classify(m.transpose()) != want:
                bad.append((a, b, got))
    return CheckResult(1, "classification table 2x2, a,b in [1,6], with transpose",
                       not bad, f"{36 - len(bad)}/36 matrices classified correctly")


def check_affine_real_roots(seed: int = DEFAULT_SEED) -> CheckResult:
    data = kmdata.affine_sl2_data()
    rs = weyl.enumerate_real_roots(data, 21)
    by_h = rs.by_height()
    ok = True
    for h in range(1, 22):
        want = 2 if h % 2 == 1 else 0
        if len(by_h.get(h, [])) != want:
            ok = False
    for r in rs.roots:
        m, n = r.root.coeffs
        if abs(m - n) != 1:
            ok = False
    return CheckResult(2, "affine SL2 real roots to height 21: 2 per odd height, |m-n| = 1",
                       ok, f"{len(rs.roots)} roots found")


def check_inversion_sets(seed: int = DEFAULT_SEED) -> CheckResult:
    checked = 0
    ok = True
    for data in (kmdata.affine_sl2_data(), kmdata.rank2_data(1, 5)):
        for w in weyl.all_elements_up_to_length(data, 8):
            inv = weyl.inversion_set(data, w)
            if len(inv) != w.length():
                ok = False
            if len({r.root.coeffs for r in inv}) != len(inv):
                ok = False
            formula_low = {r.root.coeffs for r in inv if r.height() <= 40}
            brute = weyl.brute_inversion_set(data, w, 40)
            if formula_low != brute:
                ok = False
            checked += 1
    return CheckResult(3, "inversion sets: formula = brute force, |Inv(w)| = l(w), l <= 8",
                       ok, f"{checked} elements over two data")


def check_tree_metric_triple(seed: int = DEFAULT_SEED) -> CheckResult:
    cfg = FieldConfig.laurent(2)
    verts = tree.ball(tree.origin(cfg), 4)  # contains the radius-3 ball; >= 40 vertices
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for v in verts:
        for w in tree.neighbors(v):
            if w in index:
                adj[index[v]].append(index[w])
    import collections

    def bfs(src: int) -> list[int | None]:
        dist: list[int | None] = [None] * len(verts)
        dist[src] = 0
        dq = collections.deque([src])
        while dq:
            cur = dq.popleft()
            for nb in adj[cur]:
                if dist[nb] is None:
                    dist[nb] = dist[cur] + 1
                    dq.append(nb)
        return dist

    lats = [lattices.vertex_to_lattice(v) for v in verts]
    ok = True
    for i, v in enumerate(verts):
        dists = bfs(i)
        for j in range(i + 1, len(verts)):
            d1 = tree.distance(v, verts[j])
            d2 = dists[j]
            d3 = lattices.lattice_distance(lats[i], lats[j])
            if not (d1 == d2 == d3):
                ok = False
    return CheckResult(4, "tree metric: formula = BFS = lattice oracle on the vertex ball",
                       ok, f"{len(verts)} vertices, {len(verts) * (len(verts) - 1) // 2} pairs")


def check_valency_and_ball(seed: int = DEFAULT_SEED) -> CheckResult:
    cfg = FieldConfig.laurent(3)
    ok = True
    sizes = []
    for radius in range(5):
        b = tree.ball(tree.origin(cfg), radius)
        sizes.append(len(b))
        want = 1 + 4 * (3 ** radius - 1) // 2
        if len(b) != want:
            ok = False
    for v in tree.ball(tree.origin(cfg), 4):
        nb = tree.neighbors(v)
        if len(nb) != 4 or len(set(nb)) != 4:
            ok = False
        if any(tree.distance(v, w) != 1 for w in nb):
            ok = False
    return CheckResult(5, "valency 4 over F3(t); ball sizes 1 + (p+1)(p^R - 1)/(p-1)",
                       ok, f"ball sizes {sizes}")


def check_orbit_parity(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 6)
    cfg = FieldConfig.laurent(2)
    verts = tree.ball(tree.origin(cfg), 3)
    zero = tree.origin(cfg)
    ok = True
    for _ in range(100):
        g = _random_group_element(rng, cfg, 4)
        v = rng.choice(verts)
        if tree.orbit_class(tree.act(g, v)) != tree.orbit_class(v):
            ok = False
        if tree.distance(tree.act(g, zero), zero) != -2 * matrix_valuation(g):
            ok = False
    return CheckResult(6, "orbit parity invariant under 100 random g; d(g.0,0) = -2 val(g)",
                       ok, "100 group elements")


def check_retraction_characterization(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 7)
    cfg = FieldConfig.laurent(2)
    ok = True
    n_on, n_off = 0, 0
    for _ in range(200):
        p = _random_point(rng, cfg)
        same = tree.retract_plus(p) == tree.retract_minus(p)
        if same != p.tail.is_zero():
            ok = False
        if p.tail.is_zero():
            n_on += 1
        else:
            n_off += 1
        dist_to_a = tree.distance(p, tree.project_to_A(p))
        height = (tree.retract_minus(p) - tree.retract_plus(p)) / 2
        if dist_to_a != height:
            ok = False
    # g = u n k with u in U^sign and k in the Iwahori subgroup: the retraction
    # centered at sign*oo sends g.x to n.x for x in the fundamental alcove
    for _ in range(50):
        g = _random_group_element(rng, cfg, 4)
        for sign in (1, -1):
            u, n, k = tree.iwasawa(g, sign)
            if u * n * k != g or not tree.in_iwahori(k) or any(
                    tree.retract(tree.act(g, tree.make_point(cfg, x)), sign)
                    != tree.monomial_action(n, x) for x in (Fraction(1, 2), Fraction(1, 4))):
                ok = False
    return CheckResult(7, "retract+ = retract- iff on A; d(p, A) = ht(rho- - rho+); "
                          "rho(g.x) = n.x for g = unk", ok,
                       f"{n_on} apartment points, {n_off} hanging points, "
                       "50 g = unk per sign")


def check_hecke_from_retractions(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 8)
    cfg = FieldConfig.laurent(2)
    data = kmdata.finite_a1_data()
    chamber = hecke.standard_chamber(data, -1)
    ok = True
    n_folds = 0
    done = 0
    while done < 50:
        p = _random_point(rng, cfg)
        q = _random_point(rng, cfg)
        if tree.distance(p, q) == 0:
            continue
        done += 1
        tp = tree.retract_segment(p, q, -1)
        folds = tp.folds()
        if len(folds) > 1:
            ok = False
        for _, pos in folds:
            n_folds += 1
            if Fraction(pos).denominator != 1:
                ok = False
        # post-fold velocity must point away from the center -oo
        if folds and tp.velocity(len(tp.breaks) - 2) <= 0:
            ok = False
        path = hecke.path_from_tree(tp)
        report = hecke.verify_path(data, path, (tp.speed / 2,), chamber)
        if not (report.verified and all(hecke.replay_chain(data, chamber, f.witness)
                                        for f in report.folds)):
            ok = False
    return CheckResult(8, "50 random segment retractions are verified Hecke paths",
                       ok, f"{n_folds} folds seen, billiard by dominant images")


def check_exchange_sundial(seed: int = DEFAULT_SEED) -> CheckResult:
    from .fields import INF

    cfg = FieldConfig.laurent(2)
    t = cfg.uniformizer_pow
    ok = True
    for a in (cfg.one(), t(1), t(2), cfg.one() + t(1)):
        wa = a.valuation()
        g_b = x_minus(a)
        g_a2 = tree.exchange_apartment(a)
        if tree.fixed_interval(g_b) != (-INF, wa):
            ok = False
        if tree.fixed_interval(g_a2) != (wa, INF):
            ok = False
        # triple intersection: the single vertex val(a)
        for k in range(1, 4):
            if tree.fixes_point(g_b, tree.make_point(cfg, wa + k)):
                ok = False
            if tree.fixes_point(g_a2, tree.make_point(cfg, wa - k)):
                ok = False
        if not (tree.fixes_point(g_b, tree.make_point(cfg, wa))
                and tree.fixes_point(g_a2, tree.make_point(cfg, wa))):
            ok = False
        # sundial: the branch of B beyond val(a) agrees with A'' point by point
        for k in range(0, 4):
            lhs = tree.act(g_b, tree.make_point(cfg, wa + k))
            rhs = tree.act(g_a2, tree.make_point(cfg, wa - k))
            if lhs != rhs:
                ok = False
    return CheckResult(9, "exchange: A n B = (-oo, val a], A n A'' = [val a, oo), sundial",
                       ok, "parameters 1, t, t^2, 1+t")


def check_garland_mitzman(seed: int = DEFAULT_SEED) -> CheckResult:
    half = Fraction(1, 2)
    expected = [
        {(): Fraction(1)},
        {(1,): Fraction(1)},
        {(2,): half, (0, 1): half},
        {(3,): Fraction(1, 6), (1, 1): half, (0, 0, 1): Fraction(1, 3)},
    ]
    ok = all(loop.gm_poly(n) == expected[n] for n in range(4))
    ok = ok and all(loop.gm_poly(n) == loop.gm_from_generating_function(n)
                    for n in range(13))
    ok = ok and all(loop.check_binomial_specialization(n) for n in range(9))
    ok = ok and all(loop.check_convolution(n) for n in range(7))
    return CheckResult(10, "Garland-Mitzman: displays, partition sum = genfun (n<=12), "
                           "binomial (n<=8), convolution (n<=6)", ok, "all symbolic")


def check_uma_roundtrips(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 11)
    ok = True

    def rnd_series(ring, n, unit=False, in_t=False):
        if ring.kind == loop.GF:
            cs = [rng.randrange(ring.p) for _ in range(n)]
        else:
            cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        if unit:
            cs[0] = 1
        if in_t:
            cs[0] = 0
        return loop.series(ring, cs, n)

    for ring in (loop.SeriesRing(loop.GF, 2), loop.SeriesRing(loop.QQ)):
        for _ in range(100):
            n = 12
            one, zero = loop.series_one(ring, n), loop.series_zero(ring, n)
            low = loop.SeriesMatrix(one, zero, rnd_series(ring, n, in_t=True), one)
            dtop = rnd_series(ring, n, unit=True)
            diag = loop.SeriesMatrix(dtop, zero, zero, dtop.inverse())
            up = loop.SeriesMatrix(one, rnd_series(ring, n), zero, one)
            m = low * diag * up
            if not loop.uma_membership(m):
                ok = False
            l2, d2, u2 = loop.uma_factorize(m)
            if (l2.c, d2.a, u2.b) != (low.c, diag.a, up.b):
                ok = False
            if not (loop.uma_membership(l2) and loop.uma_membership(d2)
                    and loop.uma_membership(u2)):
                ok = False
            if not (l2.c.shift_in_t() and l2.b == zero and u2.c == zero
                    and d2.b == zero and d2.c == zero
                    and d2.a.congruent_one_mod_t() and d2.d.congruent_one_mod_t()):
                ok = False
        for _ in range(100):
            n = 16
            f = rnd_series(ring, n, unit=True)
            params = loop.series_to_product_params(f)
            if loop.product_from_params(ring, params, n) != f:
                ok = False
            back = loop.series_to_product_params(loop.product_from_params(ring, params, n))
            if back != params:
                ok = False
    return CheckResult(11, "unipotent factorization and product parameters round-trip",
                       ok, "100 matrices mod t^12 and 100 series mod t^16, over F2 and Q")


def check_prenilpotency_crosscheck(seed: int = DEFAULT_SEED) -> CheckResult:
    rng = random.Random(seed + 12)
    ok = True
    n_pairs = 0
    for data in (kmdata.finite_a2_data(), kmdata.affine_sl2_data(), kmdata.rank2_data(1, 5)):
        pos = list(weyl.enumerate_real_roots(data, 9).roots)
        signed = pos + [r.negate() for r in pos]
        for x, y in itertools.combinations(signed, 2):
            closed = cone.prenilpotent_pair(data, x, y)
            searched = cone.search_prenilpotent(data, x, y, 8)
            if isinstance(closed, cone.Prenilpotent) != isinstance(searched, cone.Prenilpotent):
                ok = False
            n_pairs += 1
    data = kmdata.rank2_data(1, 5)
    pos = list(weyl.enumerate_real_roots(data, 9).roots)
    signed = pos + [r.negate() for r in pos]
    for _ in range(20):
        x, y = rng.sample(signed, 2)
        if x.root == -y.root:
            continue
        v1 = cone.prenilpotent_pair(data, x, y)
        v2 = cone.prenilpotent_pair(data, x, y.negate())
        if isinstance(v1, cone.Prenilpotent) == isinstance(v2, cone.Prenilpotent):
            ok = False
    return CheckResult(12, "prenilpotency: closed forms = word search (L=8, ht<=9); "
                           "rank-2 exactly-one", ok, f"{n_pairs} pairs over three data")


ALL_CHECKS = [
    check_classification_table,
    check_affine_real_roots,
    check_inversion_sets,
    check_tree_metric_triple,
    check_valency_and_ball,
    check_orbit_parity,
    check_retraction_characterization,
    check_hecke_from_retractions,
    check_exchange_sundial,
    check_garland_mitzman,
    check_uma_roundtrips,
    check_prenilpotency_crosscheck,
]
