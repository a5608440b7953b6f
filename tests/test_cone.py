"""Tits cone certificates, prenilpotency, intervals."""

import collections
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kmdata import (
    AFFINE_GCMS,
    LARGE_HYPERBOLIC,
    SYMMETRIZABLE_HYPERBOLIC,
    _adjugate,
    _det,
)

try:
    import sympy
except ImportError:  # pragma: no cover - sympy is a test-only extra
    sympy = None

from masure import cone, kmdata
from masure.cone import (
    InCone,
    NotInCone,
    NotPrenilpotent,
    PairNotPrenilpotent,
    Prenilpotent,
    Unknown,
    UnknownWithinBound,
    closed_interval,
    normalize_to_dominant,
    prenilpotent_pair,
    search_prenilpotent,
)
from masure.kmdata import (
    RootVector,
    affine_sl2_data,
    finite_a2_data,
    imaginary_rays,
    minimal_realization,
    rank2_data,
    validate,
    validate_data,
)
from masure.weyl import (
    all_elements_up_to_length,
    enumerate_real_roots,
    find_real_root,
    simple_real_root,
    simple_reflect,
    weyl_element,
)

AFF = affine_sl2_data()
A2 = finite_a2_data()
R15 = rank2_data(1, 5)
R33 = rank2_data(3, 3)


# ---------------------------------------------------------------------------
# reference oracle: the rank-2 indefinite geometry in Q[sqrt(D)], exact sign
# tests against the eigenlines of r_0 r_1.  It reads Y coordinates as coroot
# coordinates, so it holds for the minimal realization only.

@dataclass(frozen=True)
class QuadNum:
    """u + w*sqrt(disc) with rational u, w and fixed positive non-square disc."""

    u: Fraction
    w: Fraction
    disc: int

    def __add__(self, o):
        return QuadNum(self.u + o.u, self.w + o.w, self.disc)

    def __sub__(self, o):
        return QuadNum(self.u - o.u, self.w - o.w, self.disc)

    def __mul__(self, o):
        return QuadNum(self.u * o.u + self.w * o.w * self.disc,
                       self.u * o.w + self.w * o.u, self.disc)

    def inverse(self):
        n = self.u * self.u - self.w * self.w * self.disc
        return QuadNum(self.u / n, -self.w / n, self.disc)

    def sign(self) -> int:
        u, w = self.u, self.w
        if w == 0:
            return 0 if u == 0 else (1 if u > 0 else -1)
        if u == 0:
            return 1 if w > 0 else -1
        if u > 0 and w > 0:
            return 1
        if u < 0 and w < 0:
            return -1
        cmp = u * u - w * w * self.disc  # sign of |u| - |w|sqrt(D)
        if cmp == 0:
            return 0
        if u > 0:
            return 1 if cmp > 0 else -1
        return -1 if cmp > 0 else 1


def _qn(disc: int, u, w=0) -> QuadNum:
    return QuadNum(Fraction(u), Fraction(w), disc)


@dataclass(frozen=True)
class OracleGeometry:
    """gamma_rays bound the open cone Gamma containing the first simple
    coroot; the opposite cone is -Gamma."""

    disc: int
    gamma_rays: tuple

    def _solve(self, target):
        (r1x, r1y), (r2x, r2y) = self.gamma_rays
        det = r1x * r2y - r1y * r2x
        tx = _qn(self.disc, target[0])
        ty = _qn(self.disc, target[1])
        s = (tx * r2y - ty * r2x) * det.inverse()
        t = (r1x * ty - r1y * tx) * det.inverse()
        return s, t

    def strictly_in_gamma(self, v) -> bool:
        s, t = self._solve(tuple(Fraction(x) for x in v))
        return (s.sign() > 0 and t.sign() > 0) or (s.sign() < 0 and t.sign() < 0)

    def nonneg_on_gamma(self, covector, opposite: bool) -> bool:
        flip = -1 if opposite else 1
        for rx, ry in self.gamma_rays:
            val = _qn(self.disc, covector[0]) * rx + _qn(self.disc, covector[1]) * ry
            if flip * val.sign() < 0:
                return False
        return True


def oracle_geometry(data) -> OracleGeometry:
    a, b = -data.matrix[0, 1], -data.matrix[1, 0]
    ab = a * b
    disc = ab * (ab - 4)
    tau = Fraction(ab - 2)
    # r_0 r_1 on Y in the basis of coroots: [[ab-1, -b],[a, -1]]; an
    # eigenvector for the eigenvalue lam is (b, ab-1-lam)
    lam_plus = _qn(disc, tau / 2, Fraction(1, 2))
    lam_minus = _qn(disc, tau / 2, Fraction(-1, 2))
    v_plus = (_qn(disc, b), _qn(disc, ab - 1) - lam_plus)
    v_minus = (_qn(disc, b), _qn(disc, ab - 1) - lam_minus)
    rays = [v_plus, v_minus, tuple(_qn(disc, 0) - c for c in v_plus),
            tuple(_qn(disc, 0) - c for c in v_minus)]
    for r1, r2 in zip(rays, rays[1:] + rays[:1]):
        geo = OracleGeometry(disc, (r1, r2))
        s, t = geo._solve((1, 0))
        if s.sign() > 0 and t.sign() > 0:
            return geo
    raise AssertionError("first coroot not located between the eigenlines")


def oracle_refute(data, v, cap: int):
    """The rank-2 indefinite branch of the refutation, on the oracle."""
    if oracle_geometry(data).strictly_in_gamma(v):
        return NotInCone("v lies strictly inside an open cone between the eigenlines", "gamma")
    cur = tuple(-Fraction(x) for x in v)
    word: list[int] = []
    for _ in range(cap + 1):
        i = next((i for i in range(2) if data.pair(data.simple_roots[i], cur) < 0), None)
        if i is None:
            if any(x != 0 for x in v):
                return NotInCone("-v lies in the Tits cone and v != 0",
                                 weyl_element(data, tuple(word)))
            return Unknown(cap)
        cur = simple_reflect(data, i, cur)
        word.insert(0, i)
    return Unknown(cap)


def oracle_prenilpotent(data, alpha, beta) -> bool:
    geo = oracle_geometry(data)
    ca, cb = data.root_covector(alpha.root), data.root_covector(beta.root)
    return any(geo.nonneg_on_gamma(ca, opp) and geo.nonneg_on_gamma(cb, opp)
               for opp in (False, True))


def _delta_value(data, v):
    delta = imaginary_rays(data.matrix)[1][0]
    return sum(Fraction(delta[i]) * data.pair(data.simple_roots[i], v)
               for i in range(data.n))


class TestNormalize:
    def test_finite_always_in_cone(self):
        rng = random.Random(1)
        for _ in range(50):
            v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            cert = normalize_to_dominant(A2, v)
            assert isinstance(cert, InCone)
            for i in range(2):
                assert A2.pair(A2.simple_roots[i], cert.image) >= 0
            assert cert.w.act_y(v) == cert.image

    def test_affine_scaling_element(self):
        cert = normalize_to_dominant(AFF, (0, 0, 1))  # delta = 1 here
        assert isinstance(cert, InCone)

    def test_rank2_coroot_refuted(self):
        cert = normalize_to_dominant(R15, (1, 0))
        assert isinstance(cert, NotInCone)

    def test_affine_delta_criterion_200(self):
        rng = random.Random(2)
        for _ in range(200):
            v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
            cert = normalize_to_dominant(AFF, v)
            dv = _delta_value(AFF, v)
            inessential = all(AFF.pair(AFF.simple_roots[i], v) == 0 for i in range(2))
            in_cone = dv > 0 or inessential
            assert isinstance(cert, InCone) == in_cone

    def test_sign_coherence_affine(self):
        rng = random.Random(3)
        for _ in range(60):
            v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
            plus = isinstance(normalize_to_dominant(AFF, v), InCone)
            minus = isinstance(normalize_to_dominant(AFF, tuple(-x for x in v)), InCone)
            if plus and minus:
                # only the inessential line is in both cones
                assert all(AFF.pair(AFF.simple_roots[i], v) == 0 for i in range(2))

    def test_rank2_gamma_side_samples(self):
        geo = oracle_geometry(R15)
        rng = random.Random(4)
        count = 0
        for _ in range(300):
            v = (Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8)))
            if v == (0, 0):
                continue
            if geo.strictly_in_gamma(v):
                count += 1
                cert = normalize_to_dominant(R15, v)
                assert isinstance(cert, NotInCone)
        assert count > 20  # the sample really hits the gamma side

    def test_rank2_cone_side_certified(self):
        # dominant vectors normalize immediately; their Weyl translates too
        cert = normalize_to_dominant(R15, (-20, -9))
        assert isinstance(cert, InCone)
        w = weyl_element(R15, (0, 1, 0))
        moved = w.act_y((-20, -9))
        cert2 = normalize_to_dominant(R15, moved)
        assert isinstance(cert2, InCone)
        assert cert2.image == cert.image

    def test_eigenline_boundary_symmetry(self):
        # the refutation region is symmetric under v -> -v
        geo = oracle_geometry(R33)
        rng = random.Random(5)
        for _ in range(100):
            v = (Fraction(rng.randint(-7, 7)), Fraction(rng.randint(-7, 7)))
            if v == (0, 0):
                continue
            assert geo.strictly_in_gamma(v) == geo.strictly_in_gamma(tuple(-x for x in v))


class TestDominantImage:
    """The face of v is read off its dominant image: the simple roots that
    vanish there, and the Weyl element that carries v to it."""

    def test_dominant_interior(self):
        cert = normalize_to_dominant(A2, (1, 1))
        assert isinstance(cert, InCone)
        assert cert.w.word == () and cert.steps == 0 and cert.image == (1, 1)
        assert all(A2.pair(r, cert.image) > 0 for r in A2.simple_roots)

    def test_zero_is_fixed(self):
        cert = normalize_to_dominant(AFF, (0, 0, 0))
        assert isinstance(cert, InCone) and cert.w.word == ()
        assert all(AFF.pair(r, cert.image) == 0 for r in AFF.simple_roots)

    def test_inessential_direction_in_both_cones(self):
        # the central direction: every simple root vanishes, on both sides
        for v in ((0, 1, 0), (0, -1, 0)):
            cert = normalize_to_dominant(AFF, v)
            assert isinstance(cert, InCone) and cert.w.word == ()
            assert all(AFF.pair(r, v) == 0 for r in AFF.simple_roots)

    def test_negative_side_of_finite_type(self):
        # finite type: -C_f lies in the Tits cone, and the longest element
        # (length 3 in A2) carries it back to C_f
        cert = normalize_to_dominant(A2, (-1, -1))
        assert isinstance(cert, InCone)
        assert cert.w.length() == 3 and cert.steps == 3
        assert cert.image == (1, 1) and cert.w.act_y((-1, -1)) == cert.image

    def test_refutation_ray_is_a_certificate(self):
        # the witness ray c >= 0 has A c <= 0, A c != 0, and c.p < 0 at the
        # greedy iterate it names
        cert = normalize_to_dominant(R15, (1, 0))
        assert isinstance(cert, NotInCone)
        c, step = cert.witness
        a = R15.matrix.entries
        ac = [sum(a[i][j] * c[j] for j in range(2)) for i in range(2)]
        assert all(x >= 0 for x in c) and all(x <= 0 for x in ac) and any(ac)
        v = (Fraction(1), Fraction(0))
        for _ in range(step):
            i = next(i for i, r in enumerate(R15.simple_roots) if R15.pair(r, v) < 0)
            v = tuple(simple_reflect(R15, i, v))
        assert sum(x * R15.pair(r, v) for x, r in zip(c, R15.simple_roots)) < 0


class TestPrenilpotency:
    def test_finite_opposite(self):
        a = simple_real_root(A2, 0)
        v = prenilpotent_pair(A2, a, a.negate())
        assert isinstance(v, NotPrenilpotent)

    def test_finite_non_opposite(self):
        a, b = simple_real_root(A2, 0), simple_real_root(A2, 1)
        v = prenilpotent_pair(A2, a, b.negate())
        assert isinstance(v, Prenilpotent)
        for root in (a.root, -b.root):
            assert v.to_positive.act_root(root).is_positive()
            assert v.to_negative.act_root(root).is_negative()

    def test_affine_opposite_finite_parts(self):
        a1 = simple_real_root(AFF, 1)
        a0 = simple_real_root(AFF, 0)  # = delta - alpha
        v = prenilpotent_pair(AFF, a1, a0)
        assert isinstance(v, NotPrenilpotent)

    def test_affine_same_finite_part(self):
        rs = enumerate_real_roots(AFF, 9)
        a = simple_real_root(AFF, 1)
        b = rs.find(RootVector((2, 3)))  # alpha + 2 delta
        v = prenilpotent_pair(AFF, a, b)
        assert isinstance(v, Prenilpotent)

    def test_rank2_exactly_one(self):
        roots = list(enumerate_real_roots(R15, 9).roots)
        for x, y in itertools.combinations(roots, 2):
            one = isinstance(prenilpotent_pair(R15, x, y), Prenilpotent)
            other = isinstance(prenilpotent_pair(R15, x, y.negate()), Prenilpotent)
            assert one != other

    def test_closed_forms_match_search(self):
        for data in (A2, AFF, R15):
            pos = list(enumerate_real_roots(data, 5).roots)
            signed = pos + [r.negate() for r in pos]
            for x, y in itertools.combinations(signed, 2):
                closed = prenilpotent_pair(data, x, y, 8)
                searched = search_prenilpotent(data, x, y, 8)
                assert isinstance(closed, Prenilpotent) == isinstance(searched, Prenilpotent)


class TestClosedInterval:
    def test_a2(self):
        a, b = simple_real_root(A2, 0), simple_real_root(A2, 1)
        got = closed_interval(A2, a, b)
        assert [r.coeffs for r in got] == [(0, 1), (1, 0), (1, 1)]

    def test_same_root(self):
        a = simple_real_root(A2, 0)
        assert closed_interval(A2, a, a) == [a.root]

    def test_affine_gap(self):
        rs = enumerate_real_roots(AFF, 9)
        a = simple_real_root(AFF, 1)
        b = rs.find(RootVector((2, 3)))
        got = closed_interval(AFF, a, b)
        assert sorted(r.coeffs for r in got) == [(0, 1), (2, 3)]

    def test_rejects_non_prenilpotent(self):
        a = simple_real_root(A2, 0)
        with pytest.raises(PairNotPrenilpotent):
            closed_interval(A2, a, a.negate())

    def test_interval_roots_are_real(self):
        # every non-endpoint member must be a genuine positive combination
        a, b = simple_real_root(A2, 0), simple_real_root(A2, 1)
        coords = {r.root.coeffs for r in enumerate_real_roots(A2, 3).roots}
        for r in closed_interval(A2, a, b):
            assert r.coeffs in coords


# ---------------------------------------------------------------------------
# the rational rank-2 tests against the oracle, and across realizations

HYPERBOLIC_AB = [(a, b) for a in range(1, 7) for b in range(1, 7) if a * b >= 5]
RANK2 = {ab: rank2_data(*ab) for ab in HYPERBOLIC_AB}


def _signed_roots(data):
    return [s for r in enumerate_real_roots(data, 9).roots for s in (r, r.negate())]


SIGNED_ROOTS = {ab: _signed_roots(data) for ab, data in RANK2.items()}
rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


def plain_greedy(data, v, cap):
    """The greedy run with no certificate: InCone, or None after cap steps."""
    cur, word = tuple(Fraction(x) for x in v), []
    for step in range(cap + 1):
        i = next((i for i in range(data.n) if data.pair(data.simple_roots[i], cur) < 0), None)
        if i is None:
            return InCone(weyl_element(data, tuple(word)), cur, step)
        cur = simple_reflect(data, i, cur)
        word.insert(0, i)
    return None


def recheck_ray(m, v_coords, cert):
    """The ray certificate (c, step) against A = m and the chamber
    coordinates p of v: c >= 0, A c <= 0, and c.p < 0 after step steps of
    a greedy run on integer chamber coordinates."""
    c, step = cert.witness
    n = len(m)
    assert cert.reason == RAY and min(c) >= 0 and max(c) > 0
    assert all(sum(a * x for a, x in zip(row, c)) <= 0 for row in m)
    scale = math.lcm(*(x.denominator for x in v_coords))
    q = [int(x * scale) for x in v_coords]
    for _ in range(step):
        i = next(i for i in range(n) if q[i] < 0)
        q = [q[j] - q[i] * m[i][j] for j in range(n)]
    assert sum(x * y for x, y in zip(c, q)) < 0
    return q


RAY = "sum c_j alpha_j < 0 at a greedy iterate, for a ray c of {c >= 0, A c <= 0}"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HYPERBOLIC_AB), st.tuples(rationals, rationals))
def test_refute_matches_oracle(ab, v):
    # the rays refute what the eigenline test and the -v greedy run refuted
    # after the greedy run on v, and leave its InCone answers as they were
    data = RANK2[ab]
    got = normalize_to_dominant(data, v, 30)
    old = plain_greedy(data, v, 30) or oracle_refute(data, v, 30)
    if isinstance(old, InCone):
        assert got == old
    elif isinstance(old, NotInCone) or got != old:
        assert isinstance(got, NotInCone)
        recheck_ray(data.matrix.entries, [data.pair(r, v) for r in data.simple_roots], got)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(HYPERBOLIC_AB), st.data())
def test_prenilpotent_matches_oracle(ab, draw):
    data, roots = RANK2[ab], SIGNED_ROOTS[ab]
    x, y = draw.draw(st.sampled_from(roots)), draw.draw(st.sampled_from(roots))
    verdict = prenilpotent_pair(data, x, y)
    assert isinstance(verdict, Prenilpotent) == oracle_prenilpotent(data, x, y)


def _rebased(data, m):
    """The same root datum in the basis of Y changed by the unimodular m:
    coroots become m.c and roots become r.m^-1."""
    n = len(m)
    inv = [[_det(m) * x for x in row] for row in _adjugate(m)]
    coroots = [tuple(sum(m[i][k] * c[k] for k in range(n)) for i in range(n))
               for c in data.simple_coroots]
    roots = [tuple(sum(root[k] * inv[k][j] for k in range(n)) for j in range(n))
             for root in data.simple_roots]
    return validate_data(data.matrix, n, roots, coroots)


unimodular = st.builds(
    lambda k, l, swap: ((l, 1 + k * l), (1, k)) if swap else ((1 + k * l, k), (l, 1)),
    st.integers(-3, 3), st.integers(-3, 3), st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(HYPERBOLIC_AB), unimodular,
       st.tuples(st.integers(-12, 12), st.integers(-12, 12)), st.data())
def test_rank2_verdicts_do_not_depend_on_the_realization(ab, m, v, draw):
    data = RANK2[ab]
    other = _rebased(data, m)
    mv = tuple(sum(m[i][k] * v[k] for k in range(2)) for i in range(2))
    got, want = normalize_to_dominant(other, mv), normalize_to_dominant(data, v)
    assert type(got) is type(want)
    if isinstance(want, InCone):
        assert (got.w.word, got.steps) == (want.w.word, want.steps)
    if isinstance(want, NotInCone):
        assert got.reason == want.reason
    mine, theirs = SIGNED_ROOTS[ab], _signed_roots(other)
    assert [r.root for r in theirs] == [r.root for r in mine]
    i, j = (draw.draw(st.integers(0, len(mine) - 1)) for _ in range(2))
    assert (type(prenilpotent_pair(other, theirs[i], theirs[j]))
            is type(prenilpotent_pair(data, mine[i], mine[j])))


# ---------------------------------------------------------------------------
# the ray certificates against the Lorentzian form of symmetrizable
# hyperbolic data, and on every type

POOL_HYPERBOLIC = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
HYP = minimal_realization(validate(POOL_HYPERBOLIC))
NON_SYMMETRIZABLE = [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]
RANK4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -2, 2]]
RANK2_MATRICES = [[[2, -a], [-b, 2]] for a, b in HYPERBOLIC_AB]
hyperbolic_matrices = st.one_of(st.just(POOL_HYPERBOLIC), st.sampled_from(SYMMETRIZABLE_HYPERBOLIC),
                                st.sampled_from(RANK2_MATRICES))


def _dominant_point(data, p):
    """An integer x in Y with alpha_j(x) = |d| p_j, where d is the first
    nonzero n x n minor of the simple roots, on the columns S: x is 0 off S
    and adj(R_S) p on S."""
    n = data.n
    for cols in itertools.combinations(range(data.rank), n):
        sub = [[root[k] for k in cols] for root in data.simple_roots]
        det = _det(sub)
        if det:
            break
    adj = _adjugate(sub)
    x = [0] * data.rank
    for k, col in enumerate(cols):
        x[col] = sum(adj[k][j] * p[j] for j in range(n)) * (1 if det > 0 else -1)
    return tuple(x)


def test_lightlike_face_point_in_cone():
    x = _dominant_point(HYP, (0, 0, 1))
    assert x == (-2, -2, 0)
    cert = normalize_to_dominant(HYP, x)
    assert isinstance(cert, InCone) and cert.steps == 0


cone_matrices = st.one_of(hyperbolic_matrices, st.sampled_from(AFFINE_GCMS),
                          st.sampled_from([NON_SYMMETRIZABLE, RANK4]))


@settings(max_examples=300, deadline=None)
@given(cone_matrices, st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 11), max_size=8))  # i % n is uniform for n = 2, 3, 4
@example([[2, -1], [-5, 2]], [0, 0, 0, 0], [])  # v = 0
@example([[2, -3], [-3, 2]], [0, 0, 0, 0], [])
@example([[2, -1], [-5, 2]], [1, 0, 0, 0], [0, 1, 0])  # faces of w.C
@example([[2, -6], [-1, 2]], [0, 2, 0, 0], [1, 0])
@example([[2, -2], [-3, 2]], [3, 0, 0, 0], [])
@example([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [0, 0, 0, 0], [0, 1])  # inessential
@example(RANK4, [0, 0, 1, 0], [3, 2, 1, 0])
def test_tits_cone_points_are_never_refuted(m, p, word):
    n = len(m)
    data = minimal_realization(validate(m))
    v = _dominant_point(data, p[:n])
    for i in reversed(word):
        v = simple_reflect(data, i % n, v)
    assert not isinstance(normalize_to_dominant(data, v), NotInCone)


def _sympy_form(m):
    """B^-1 = A^-1 D for A = D B, with d_0 = 1 and d the kernel of the
    equations d_i a_ji = d_j a_ij."""
    n = len(m)
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        row = [0] * n
        row[i], row[j] = m[j][i], -m[i][j]
        rows.append(row)
    (d,) = sympy.Matrix(rows).nullspace()
    d = d / d[0]
    return sympy.Matrix(m).inv() * sympy.diag(*d)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=120, deadline=None)
@given(hyperbolic_matrices, st.data())
def test_ray_certificates_cover_the_form(m, draw):
    n = len(m)
    v = tuple(draw.draw(st.lists(rationals, min_size=n, max_size=n)))
    q = _check_against_the_form(m, minimal_realization(validate(m)), v)
    if q is None:
        return
    # the greedy run, continued to ten times the cap, never ends
    for _ in range(10 * cone.default_cap(v)):
        i = next((i for i in range(n) if q[i] < 0), None)
        assert i is not None
        q = [q[j] - q[i] * m[i][j] for j in range(n)]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("m", LARGE_HYPERBOLIC.values(), ids=LARGE_HYPERBOLIC.keys())
def test_ray_certificates_cover_the_form_at_large_rank(m):
    # m is simply laced, so symmetric: in the minimal realization, whose
    # coroots are the unit vectors, alpha(-c) = -A c >= 0 for every ray c
    n = len(m)
    data = minimal_realization(validate(m))
    rays, _ = imaginary_rays(data.matrix)
    rng = random.Random(n)
    for _ in range(40):
        y = [rng.randint(0, 2) for _ in range(n)]
        v = tuple(-sum(k * c[j] for k, c in zip(y, rays)) for j in range(n))
        for i in rng.choices(range(n), k=rng.randint(0, 8)):
            v = simple_reflect(data, i, v)
        assert isinstance(normalize_to_dominant(data, v), InCone)
        neg = tuple(-x for x in v)
        if any(v):  # -v lies in the past nappe
            assert isinstance(normalize_to_dominant(data, neg), NotInCone)
        u = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(n))
        for w in (neg, u):
            _check_against_the_form(m, data, w)


def _check_against_the_form(m, data, v):
    """The form confines the Tits cone to {p^T M p <= 0, p^T M 1 <= 0}; a
    vector it refutes is refuted by a ray within the default cap, and every
    ray certificate rechecks: the chamber coordinates at its step, or None."""
    n = len(m)
    cert = normalize_to_dominant(data, v)
    p = [data.pair(root, v) for root in data.simple_roots]
    form = _sympy_form(m)
    col = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in p])
    if (col.T * form * col)[0, 0] > 0 or (col.T * form * sympy.ones(n, 1))[0, 0] > 0:
        assert isinstance(cert, NotInCone)
    return recheck_ray(m, p, cert) if isinstance(cert, NotInCone) else None


def test_ray_certificates_on_the_pool_datum():
    assert normalize_to_dominant(HYP, (1, 0, 0)) == NotInCone(RAY, ((3, 4, 2), 0))
    assert normalize_to_dominant(HYP, (1, 1, 1)) == NotInCone(RAY, ((1, 1, 0), 0))


@pytest.mark.parametrize("rows, counts", [(NON_SYMMETRIZABLE, (5, 119)), (RANK4, (21, 603))],
                         ids=["non-symmetrizable", "rank 4"])
def test_rays_decide_the_grid(rows, counts):
    # every nonzero v in [-2, 2]^rank: the greedy run decides InCone, and
    # every other vector is refuted by a ray within 4 steps
    data = minimal_realization(validate(rows))
    got = collections.Counter()
    for v in itertools.product(range(-2, 3), repeat=data.rank):
        if any(v):
            cert = normalize_to_dominant(data, v)
            got[type(cert)] += 1
            if isinstance(cert, InCone):
                assert cert == plain_greedy(data, v, cone.default_cap(v))
            else:
                assert isinstance(cert, NotInCone) and cert.witness[1] <= 4
                recheck_ray(rows, [data.pair(r, v) for r in data.simple_roots], cert)
    assert (got[InCone], got[NotInCone]) == counts


def test_decomposable_data():
    # an affine block and an A1 block: delta = alpha_0 + alpha_1 is W-invariant
    data = minimal_realization(validate([[2, -2, 0], [-2, 2, 0], [0, 0, 2]]))
    assert normalize_to_dominant(data, (-1, 0, 0, 0)) == NotInCone(
        "delta(v) = 0 but v is not inessential", ((1, 1, 0), 0))
    assert normalize_to_dominant(data, (0, 0, -1, 0)) == InCone(weyl_element(data, (2,)),
                                                                (0, 0, 1, 0), 1)
    assert isinstance(normalize_to_dominant(data, (0, 0, 0, -1)), NotInCone)


@pytest.mark.parametrize("rows", [POOL_HYPERBOLIC, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
                                  ((2, -2), (-2, 2)), ((2, -1), (-5, 2))],
                         ids=["hyperbolic", "affine_A2", "affine_sl2", "rank2_1_5"])
def test_rays_computed_once_per_matrix(rows, monkeypatch):
    rng = random.Random(6)
    data = minimal_realization(validate(rows))
    vectors = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(data.rank))
               for _ in range(40)]
    # each answer on a fresh matrix, before the counter goes in
    want = [normalize_to_dominant(minimal_realization(validate(rows)), v) for v in vectors]
    calls = collections.Counter()

    def counted(a, compute=kmdata._imaginary_rays):
        calls["rays"] += 1
        return compute(a)
    monkeypatch.setattr(kmdata, "_imaginary_rays", counted)
    assert [normalize_to_dominant(data, v) for v in vectors] == want
    assert calls["rays"] == 1


elementary = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))


def _unimodular(ops):
    """The 3x3 product of the row operations row_i += k row_j, (i, j, k) in ops."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for i, j, k in ops:
        if i != j:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=100, deadline=None)
@given(st.lists(elementary, max_size=5), st.tuples(*[rationals] * 3))
def test_hyperbolic_verdicts_do_not_depend_on_the_realization(ops, v):
    m = _unimodular(ops)
    other = _rebased(HYP, m)
    mv = tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))
    got, want = normalize_to_dominant(other, mv), normalize_to_dominant(HYP, v)
    assert type(got) is type(want)
    if isinstance(want, InCone):
        assert (got.w.word, got.steps) == (want.w.word, want.steps)
    if isinstance(want, NotInCone):
        assert (got.reason, got.witness) == (want.reason, want.witness)


def _rank3(data, c):
    """A rank-3 realization of the 2x2 matrix of data: coroots e_0 and e_1,
    alpha_j = (a[0][j], a[1][j], c_j)."""
    a = data.matrix
    return validate_data(a, 3, [(a[0, j], a[1, j], c[j]) for j in range(2)],
                         ((1, 0, 0), (0, 1, 0)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(HYPERBOLIC_AB), st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.lists(elementary, max_size=4), st.tuples(rationals, rationals, rationals), st.data())
def test_rank2_verdicts_in_a_rank3_realization(ab, c, ops, v, draw):
    data = RANK2[ab]
    a = data.matrix
    # k spans the common kernel of the two roots: A^T (k_0, k_1) = -det(A) c
    k = (a[1, 0] * c[1] - a[1, 1] * c[0], a[0, 1] * c[0] - a[0, 0] * c[1],
         a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    x = tuple(y + v[2] * z for y, z in zip((v[0], v[1], 0), k))
    m = _unimodular(ops)
    other = _rebased(_rank3(data, c), m)
    mx = tuple(sum(m[i][j] * x[j] for j in range(3)) for i in range(3))
    got, want = normalize_to_dominant(other, mx), normalize_to_dominant(data, v[:2])
    assert type(got) is type(want)
    if isinstance(want, InCone):
        assert (got.w.word, got.steps) == (want.w.word, want.steps)
    else:
        assert got == want
    mine = [draw.draw(st.sampled_from(SIGNED_ROOTS[ab])) for _ in range(2)]
    theirs = [find_real_root(other, r.root) for r in mine]
    got, want = prenilpotent_pair(other, *theirs), prenilpotent_pair(data, *mine)
    assert type(got) is type(want)
    if isinstance(want, Prenilpotent):
        assert ((got.to_positive.word, got.to_negative.word)
                == (want.to_positive.word, want.to_negative.word))
    else:
        assert got == want


# ---------------------------------------------------------------------------
# the one-pass witness search against the two-scan search it replaced

def old_search_witness(data, roots, want_positive, max_len):
    for w in all_elements_up_to_length(data, max_len):
        images = [w.act_root(r) for r in roots]
        if want_positive and all(v.is_positive() for v in images):
            return w
        if not want_positive and all(v.is_negative() for v in images):
            return w
    return None


def old_search_prenilpotent(data, alpha, beta, max_len):
    wp = old_search_witness(data, [alpha.root, beta.root], True, max_len)
    wn = old_search_witness(data, [alpha.root, beta.root], False, max_len)
    if wp is not None and wn is not None:
        return Prenilpotent(wp, wn)
    return UnknownWithinBound(max_len)


def _outcome(fn, *args):
    """The verdict's type and witness words, or its bound."""
    v = fn(*args)
    if isinstance(v, Prenilpotent):
        return Prenilpotent, v.to_positive.word, v.to_negative.word
    return type(v), v.bound


COXETER_POOL = {
    "A2": [[2, -1], [-1, 2]],
    "affine_sl2": [[2, -2], [-2, 2]],
    "rank2_1_5": [[2, -1], [-5, 2]],
    "affine_A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "hyperbolic": POOL_HYPERBOLIC,
}
WITNESS_DATA = {name: minimal_realization(validate(m)) for name, m in COXETER_POOL.items()}
WITNESS_DATA.update({(a, b): rank2_data(a, b) for a in range(1, 7) for b in range(1, 7)})
_witness_roots = {}


def _roots_for_witnesses(key):
    if key not in _witness_roots:
        data = WITNESS_DATA[key]
        pos = enumerate_real_roots(data, 9 if data.n == 2 else 6).roots
        _witness_roots[key] = [s for r in pos for s in (r, r.negate())]
    return _witness_roots[key]


witness_data = st.one_of(st.sampled_from(list(COXETER_POOL)),
                        st.tuples(st.integers(1, 6), st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(witness_data, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 8))
@example("hyperbolic", 0, 3, 6)
@example("affine_A2", 0, 3, 6)
def test_one_pass_search_matches_two_scans(key, i, j, bound):
    # signed roots of height <= 9 at rank 2 and <= 6 at rank 3, bounds <= 6 at rank 3
    data, roots = WITNESS_DATA[key], _roots_for_witnesses(key)
    alpha, beta = roots[i % len(roots)], roots[j % len(roots)]
    bound = min(bound, 8 if data.n == 2 else 6)
    assert (_outcome(search_prenilpotent, data, alpha, beta, bound)
            == _outcome(old_search_prenilpotent, data, alpha, beta, bound))


def test_a2_witness_drops_a_left_descent_past_the_first_letter():
    # r_0 r_1 r_0 sends both roots negative; the leading r_0 cannot go, r_1 can
    alpha, beta = (find_real_root(A2, RootVector(v)) for v in ((0, 1), (1, 1)))
    verdict = prenilpotent_pair(A2, alpha, beta)
    assert (verdict.to_positive.word, verdict.to_negative.word) == ((), (0, 1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(COXETER_POOL)), st.integers(0, 10**6), st.integers(0, 10**6))
@example("A2", 1, 5)
def test_no_left_descent_of_a_witness_keeps_its_signs(key, i, j):
    data, roots = WITNESS_DATA[key], _roots_for_witnesses(key)
    alpha, beta = roots[i % len(roots)], roots[j % len(roots)]
    verdict = prenilpotent_pair(data, alpha, beta)
    if not isinstance(verdict, Prenilpotent):
        return
    rows = data.matrix.entries
    for w, keeps in ((verdict.to_positive, lambda v: min(v) >= 0),
                     (verdict.to_negative, lambda v: max(v) <= 0)):
        assert all(keeps(apply_word(rows, w.word, r.coeffs)) for r in (alpha.root, beta.root))
        for k in range(data.n):
            shorter = (k,) + w.word
            if weyl_element(data, shorter).length() < w.length():
                assert not all(keeps(apply_word(rows, shorter, r.coeffs))
                               for r in (alpha.root, beta.root))


# ---------------------------------------------------------------------------
# affine data of every type: the pairing rule against the word search, and
# the delta criterion against the greedy run

AFFINE_DATA = [minimal_realization(validate(m)) for m in AFFINE_GCMS]
_affine_roots = {}


def _affine_signed_roots(k):
    if k not in _affine_roots:
        data = AFFINE_DATA[k]
        pos = enumerate_real_roots(data, 6 if data.n == 2 else 3).roots
        _affine_roots[k] = [s for r in pos for s in (r, r.negate())]
    return _affine_roots[k]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(AFFINE_GCMS) - 1), st.integers(0, 10**6), st.integers(0, 10**6))
@example(0, 2, 4)  # A_2^(2): alpha_0 and alpha_0 + alpha_1, prenilpotent
@example(0, 2, 0)  # A_2^(2): alpha_0 and alpha_1, not prenilpotent
def test_prenilpotent_rule_matches_search_on_affine_data(k, i, j):
    # signed roots of height <= 6 at rank 2 and <= 3 at rank 3
    data, roots = AFFINE_DATA[k], _affine_signed_roots(k)
    alpha, beta = roots[i % len(roots)], roots[j % len(roots)]
    rule = prenilpotent_pair(data, alpha, beta, 8)
    assert isinstance(rule, (Prenilpotent, NotPrenilpotent))
    searched = search_prenilpotent(data, alpha, beta, 14)
    assert isinstance(rule, Prenilpotent) == isinstance(searched, Prenilpotent)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(AFFINE_GCMS) - 1),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3), st.integers(-2, 2),
       st.integers(1, 4))
@example(0, [-3, 0, 0], 1, 1)
def test_small_cap_refutation_holds_at_default_cap(k, x, last, cap):
    # in the minimal realization delta(v) = delta_c * v[n] for the free column c,
    # so v lies in the Tits cone iff v[n] > 0 or v is inessential
    data = AFFINE_DATA[k]
    v = (*x[:data.n], last)
    small, full = normalize_to_dominant(data, v, cap), normalize_to_dominant(data, v)
    inessential = all(data.pair(root, v) == 0 for root in data.simple_roots)
    assert isinstance(full, InCone) == (last > 0 or inessential)
    assert not (isinstance(small, NotInCone) and isinstance(full, InCone))


# ---------------------------------------------------------------------------
# indefinite data of rank 3 and 4: the pairing rule against the word search,
# its constructed witnesses, and closed intervals against a brute force

def apply_word(rows, word, coeffs):
    """r_{i_1} ... r_{i_k} on root coordinates, r_{i_k} first, with
    r_i(v) = v - (sum_j a_ij v_j) alpha_i."""
    v = list(coeffs)
    for i in reversed(word):
        v[i] -= sum(a * x for a, x in zip(rows[i], v))
    return v


# (a_ij, a_ji) for i < j: products 0 to 3 (finite dihedral), 4 and beyond;
# unequal ones around a cycle make the matrix non-symmetrizable
OFF_DIAGONAL = [(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2),
                (-1, -4), (-4, -1), (-2, -3), (-3, -2), (-1, -5)]


@st.composite
def indefinite_gcms(draw):
    n = draw(st.sampled_from((3, 4)))
    rows = [[2] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j], rows[j][i] = draw(st.sampled_from(OFF_DIAGONAL))
    return rows


G2_BLOCK = [[2, -1, 0], [-3, 2, -1], [0, -1, 2]]


@settings(max_examples=100, deadline=None)
@given(indefinite_gcms(), st.integers(0, 10**6), st.integers(0, 10**6))
@example(G2_BLOCK, 4, 2)  # alpha_0, alpha_1: ab * ba = 3, D of order 12
@example(G2_BLOCK, 4, 3)  # alpha_0, -alpha_1
@example([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]], 4, 2)  # alpha_0, alpha_1: ab * ba = 4
@example(NON_SYMMETRIZABLE, 0, 9)
@example(RANK4, 1, 12)
def test_pairing_rule_and_witnesses_on_indefinite_data(rows, i, j):
    # signed real roots of height <= 4; the search runs to length 6
    data = minimal_realization(validate(rows))
    roots = [s for r in enumerate_real_roots(data, 4).roots for s in (r, r.negate())]
    alpha, beta = roots[i % len(roots)], roots[j % len(roots)]
    verdict = prenilpotent_pair(data, alpha, beta)
    if isinstance(search_prenilpotent(data, alpha, beta, 6), Prenilpotent):
        assert isinstance(verdict, Prenilpotent)
    if isinstance(verdict, Prenilpotent):
        for root in (alpha.root, beta.root):
            assert min(apply_word(rows, verdict.to_positive.word, root.coeffs)) >= 0
            assert max(apply_word(rows, verdict.to_negative.word, root.coeffs)) <= 0


def brute_interval(data, alpha, beta, cap):
    """alpha, beta and every real root p alpha + q beta with p, q >= 1 and
    p + q <= cap, each decided by find_real_root."""
    out = {alpha.root.coeffs, beta.root.coeffs}
    for p in range(1, cap):
        for q in range(1, cap - p + 1):
            v = alpha.root.scale(p) + beta.root.scale(q)
            if find_real_root(data, v) is not None:
                out.add(v.coeffs)
    return sorted(out, key=lambda c: (sum(c), c))


# pairs whose witnesses lie beyond length 8, where a word search to length 8
# leaves prenilpotency unknown
FAR_PAIRS = {
    "hyperbolic": [((0, 0, 1), (-8, -9, 0)), ((1, 0, 0), (9, 8, 0)), ((0, 1, 0), (-9, -8, 0))],
    "non-symmetrizable": [((2, 4, 1), (3, 3, 1)), ((4, 2, 3), (4, 3, 5))],
}


@pytest.mark.parametrize("name, rows", [("hyperbolic", POOL_HYPERBOLIC),
                                        ("non-symmetrizable", NON_SYMMETRIZABLE)])
def test_closed_interval_on_indefinite_rank3_data(name, rows):
    data = minimal_realization(validate(rows))
    pos = enumerate_real_roots(data, 4).roots
    pairs = list(itertools.combinations([s for r in pos for s in (r, r.negate())], 2))
    pairs += [tuple(find_real_root(data, RootVector(v)) for v in pair) for pair in FAR_PAIRS[name]]
    checked = 0
    for alpha, beta in pairs:
        if isinstance(prenilpotent_pair(data, alpha, beta), NotPrenilpotent):
            continue
        got = [r.coeffs for r in closed_interval(data, alpha, beta)]
        assert got == brute_interval(data, alpha, beta, 12)
        checked += 1
    assert checked > 50
