"""Tree of SL2: action, metric, retractions, vertices, apartments."""

import random
from fractions import Fraction

import pytest

from masure.fields import (
    INF,
    FieldConfig,
    Mat2,
    ParseError,
    mat_identity,
    matrix_valuation,
    s_tilde,
    t_diag,
    x_minus,
    x_plus,
)
from masure.tree import (
    DegenerateSegment,
    NotAVertex,
    act,
    ball,
    distance,
    exchange_apartment,
    fixed_interval,
    fixes_point,
    geodesic,
    in_iwahori,
    iwasawa,
    make_point,
    monomial_action,
    neighbors,
    orbit_class,
    origin,
    parse_point,
    point_on_segment,
    point_to_str,
    project_to_A,
    retract,
    retract_minus,
    retract_plus,
    retract_segment,
)

F2 = FieldConfig.laurent(2)
F3 = FieldConfig.laurent(3)
Q2 = FieldConfig.padic(2)
Q3 = FieldConfig.padic(3)


def t(cfg, k):
    return cfg.uniformizer_pow(k)


def random_point(rng, cfg):
    x = Fraction(rng.randint(-8, 8), rng.choice([1, 1, 2, 4]))
    if rng.random() < 0.3:
        return make_point(cfg, x)
    top = -(-x.numerator // x.denominator)
    tail = cfg.zero()
    for e in range(-top - rng.randint(1, 3), -top + 1):
        tail = tail + cfg.monomial(rng.randrange(cfg.p), e)
    return make_point(cfg, x, tail)


def random_g(rng, cfg):
    g = mat_identity(cfg)
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(3)
        param = cfg.zero()
        for e in range(-2, 3):
            param = param + cfg.monomial(rng.randrange(cfg.p), e)
        if k == 0:
            g = g * x_plus(param)
        elif k == 1:
            g = g * x_minus(param)
        else:
            g = g * t_diag(t(cfg, rng.randint(-2, 2)))
    return g


class TestAction:
    def test_identity(self):
        p = make_point(F2, Fraction(5, 2), t(F2, -4))
        assert act(mat_identity(F2), p) == p

    def test_torus_translation(self):
        g = t_diag(t(F2, 1))
        moved = act(g, origin(F2))
        assert abs(moved.x) == 2 and moved.tail.is_zero()
        # anchored sign: diag(u, 1/u) translates by -2 val(u)
        assert moved.x == -2

    def test_unipotent_moves_point_off_wall(self):
        p = make_point(F2, 1)
        moved = act(x_plus(t(F2, -3)), p)
        assert moved == make_point(F2, 1, t(F2, -3))

    @pytest.mark.parametrize("cfg", [F2, Q3], ids=str)
    def test_action_is_homomorphism(self, cfg):
        rng = random.Random(11)
        for _ in range(60):
            g, h = random_g(rng, cfg), random_g(rng, cfg)
            p = random_point(rng, cfg)
            assert act(g * h, p) == act(g, act(h, p))

    @pytest.mark.parametrize("cfg", [F3, Q3], ids=str)
    def test_fixator_oracle(self, cfg):
        rng = random.Random(12)
        for _ in range(120):
            g = random_g(rng, cfg)
            p = random_point(rng, cfg)
            assert fixes_point(g, p) == (act(g, p) == p)

    def test_fix_pattern_at_x(self):
        # the fixator of x in A is [[O, F_{>=-x}], [F_{>=x}, O]]
        for x in (-2, 0, 3):
            p = make_point(F2, x)
            assert fixes_point(x_plus(t(F2, -x)), p)
            assert not fixes_point(x_plus(t(F2, -x - 1)), p)
            assert fixes_point(x_minus(t(F2, x)), p)
            assert not fixes_point(x_minus(t(F2, x - 1)), p)

    def test_padic_action(self):
        g = t_diag(Q2.monomial(2, 0))
        assert act(g, origin(Q2)).x == -2


class TestFixedInterval:
    def test_unipotent_halfline(self):
        assert fixed_interval(x_plus(F2.one())) == (0, INF)
        assert fixed_interval(x_minus(t(F2, 2))) == (-INF, 2)

    def test_identity_everything(self):
        assert fixed_interval(mat_identity(F2)) == (-INF, INF)

    def test_window(self):
        g = Mat2(F3.one(), t(F3, -1), t(F3, 2), F3.one() + t(F3, 1))
        assert g.det() == F3.one()
        assert fixed_interval(g) == (1, 2)

    def test_empty(self):
        g = t_diag(t(F2, 1))
        assert fixed_interval(g) is None

    def test_matches_pointwise(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_g(rng, F2)
            iv = fixed_interval(g)
            for x in range(-4, 5):
                p = make_point(F2, x)
                inside = iv is not None and iv[0] <= x <= iv[1]
                assert fixes_point(g, p) == inside


class TestDistance:
    def test_same_point(self):
        p = make_point(F2, Fraction(1, 2), t(F2, -3))
        assert distance(p, p) == 0

    def test_translation_by_depth(self):
        g = x_plus(t(F2, -3))
        assert distance(act(g, origin(F2)), origin(F2)) == 6
        assert matrix_valuation(g) == -3

    def test_hanging_pair(self):
        p = make_point(F2, 5, t(F2, -6))
        q = make_point(F2, 5, t(F2, -6) + t(F2, -7))
        assert distance(p, q) == 4

    def test_isometry(self):
        rng = random.Random(14)
        for _ in range(60):
            g = random_g(rng, F2)
            p, q = random_point(rng, F2), random_point(rng, F2)
            assert distance(act(g, p), act(g, q)) == distance(p, q)

    def test_triangle_inequality(self):
        rng = random.Random(15)
        for _ in range(80):
            p, q, r = (random_point(rng, F3) for _ in range(3))
            assert distance(p, r) <= distance(p, q) + distance(q, r)

    def test_geodesic_characterization(self):
        rng = random.Random(16)
        for _ in range(25):
            p, q = random_point(rng, F2), random_point(rng, F2)
            d = distance(p, q)
            for z in geodesic(p, q, 4):
                assert distance(p, z) + distance(z, q) == d
            # a point off the segment fails the equation
            far = act(x_plus(t(F2, -30)), make_point(F2, 25))
            if distance(p, far) + distance(far, q) == d:
                assert far in geodesic(p, q, 1)


class TestRetractions:
    def test_on_apartment(self):
        p = make_point(F2, Fraction(7, 4))
        assert retract_plus(p) == retract_minus(p) == p.x

    def test_hanging(self):
        p = make_point(F2, 1, t(F2, -3))
        assert retract_plus(p) == 1
        assert retract_minus(p) == 5

    def test_characterization(self):
        rng = random.Random(17)
        for _ in range(150):
            p = random_point(rng, F2)
            assert (retract_plus(p) == retract_minus(p)) == p.tail.is_zero()

    def test_distance_to_apartment_height(self):
        rng = random.Random(18)
        for _ in range(100):
            p = random_point(rng, F3)
            lhs = distance(p, project_to_A(p))
            assert lhs == (retract_minus(p) - retract_plus(p)) / 2


class TestProjection:
    def test_branch_point(self):
        assert project_to_A(make_point(F2, 1, t(F2, -3))) == make_point(F2, 3)

    def test_fixed_on_apartment(self):
        p = make_point(F2, Fraction(-5, 2))
        assert project_to_A(p) == p

    def test_additivity(self):
        p = make_point(F2, 1, t(F2, -3))
        proj = project_to_A(p)
        for z in (-4, 0, 3, 7):
            zz = make_point(F2, z)
            assert distance(p, zz) == distance(p, proj) + distance(proj, zz)

    def test_projection_is_vertex(self):
        rng = random.Random(19)
        for _ in range(60):
            p = random_point(rng, F2)
            if not p.tail.is_zero():
                assert project_to_A(p).is_vertex()


class TestGeodesic:
    def test_constant(self):
        p = make_point(F2, 2, t(F2, -4))
        assert geodesic(p, p, 3) == [p] * 4

    def test_affine_in_apartment(self):
        pts = geodesic(make_point(F2, 0), make_point(F2, 2), 4)
        assert [z.x for z in pts] == [Fraction(k, 2) for k in range(5)]
        assert all(z.tail.is_zero() for z in pts)

    def test_through_branch_point(self):
        p = make_point(F2, 1, t(F2, -3))
        pts = geodesic(p, make_point(F2, 0), 5)
        assert make_point(F2, 3) in pts
        assert pts[0] == p and pts[-1] == make_point(F2, 0)

    def test_lambda_tree_median(self):
        # [x,y] n [x,z] = [x,m] with m at distance (d(x,y)+d(x,z)-d(y,z))/2
        rng = random.Random(20)
        for _ in range(40):
            x, y, z = (random_point(rng, F2) for _ in range(3))
            m = (distance(x, y) + distance(x, z) - distance(y, z)) / 2
            assert m >= 0
            for s in (m / 2, m):
                if s <= distance(x, y) and s <= distance(x, z):
                    assert point_on_segment(x, y, s) == point_on_segment(x, z, s) or s > m
            if m < min(distance(x, y), distance(x, z)):
                eps = min(distance(x, y), distance(x, z)) - m
                s = m + eps / 2
                assert point_on_segment(x, y, s) != point_on_segment(x, z, s)

    def test_concatenation_is_geodesic(self):
        # segments [x,y], [y,z] meeting only at y concatenate to [x,z]
        rng = random.Random(21)
        for _ in range(40):
            x, y, z = (random_point(rng, F2) for _ in range(3))
            if distance(x, y) + distance(y, z) == distance(x, z):
                mid = point_on_segment(x, z, distance(x, y))
                assert mid == y


class TestIwasawa:
    def test_unipotent_passthrough(self):
        g = x_plus(t(F2, -2))
        u, n, k = iwasawa(g, +1)
        assert u.b == g.b and n.b.is_zero() and n.c.is_zero()
        assert k.a == F2.one() and k.b.is_zero() and k.c.is_zero()

    def test_antidiagonal(self):
        g = s_tilde(F2)
        u, n, k = iwasawa(g, +1)
        prod = u * n * k
        assert (prod.a, prod.b, prod.c, prod.d) == (g.a, g.b, g.c, g.d)

    def test_random_decompositions(self):
        rng = random.Random(22)
        for sign in (+1, -1):
            for _ in range(60):
                g = random_g(rng, F2)
                u, n, k = iwasawa(g, sign)
                prod = u * n * k
                assert (prod.a, prod.b, prod.c, prod.d) == (g.a, g.b, g.c, g.d)
                assert in_iwahori(k)
                if sign > 0:
                    assert u.c.is_zero() and u.a == F2.one() and u.d == F2.one()
                else:
                    assert u.b.is_zero() and u.a == F2.one() and u.d == F2.one()
                # k fixes the fundamental alcove pointwise
                for eps in (Fraction(1, 3), Fraction(1, 2)):
                    assert fixes_point(k, make_point(F2, eps))
                # the monomial part is the retraction of the alcove image
                for eps in (Fraction(1, 2), Fraction(1, 4)):
                    got = retract(act(g, make_point(F2, eps)), sign)
                    assert got == monomial_action(n, eps)


    def test_diagonal_is_its_own_monomial_part(self):
        g = t_diag(t(F2, 3))
        for sign in (+1, -1):
            u, n, k = iwasawa(g, sign)
            assert n.entries() == g.entries()
            assert u.entries() == mat_identity(F2).entries()
            assert k.entries() == mat_identity(F2).entries()

    def test_antidiagonal_negative_sign(self):
        g = s_tilde(F2)
        u, n, k = iwasawa(g, -1)
        assert (u * n * k).entries() == g.entries()
        assert u.b.is_zero() and in_iwahori(k)
        assert n.a.is_zero() and n.d.is_zero()

    @pytest.mark.parametrize("cfg", [Q2, Q3], ids=["Q2", "Q3"])
    def test_padic_decompositions(self, cfg):
        rng = random.Random(23)
        for sign in (+1, -1):
            for _ in range(20):
                g = random_g(rng, cfg)
                u, n, k = iwasawa(g, sign)
                assert (u * n * k).entries() == g.entries()
                assert in_iwahori(k)
                for eps in (Fraction(1, 2), Fraction(1, 4)):
                    assert retract(act(g, make_point(cfg, eps)), sign) == monomial_action(n, eps)


class TestNeighbors:
    def test_valency(self):
        assert len(neighbors(origin(F2))) == 3
        assert len(neighbors(origin(F3))) == 4

    def test_distinct_distance_one(self):
        for cfg in (F2, F3, Q2):
            for v in ball(origin(cfg), 2):
                nb = neighbors(v)
                assert len(set(nb)) == len(nb)
                assert all(distance(v, w) == 1 for w in nb)

    def test_symmetry(self):
        for v in ball(origin(F3), 2):
            for w in neighbors(v):
                assert v in neighbors(w)

    def test_two_in_own_apartment(self):
        # exactly two neighbors lie in v's own apartment x_plus(tail).A
        for v in (make_point(F2, 2, t(F2, -3)), origin(F2), make_point(F3, -1, t(F3, 0))):
            pull = x_plus(-v.tail)
            nb = neighbors(v)
            inside = [w for w in nb if act(pull, w).tail.is_zero()]
            assert len(inside) == 2

    def test_rejects_non_vertex(self):
        with pytest.raises(NotAVertex):
            neighbors(make_point(F2, Fraction(1, 2)))

    def test_ball_sizes(self):
        for cfg, p in ((F2, 2), (F3, 3)):
            for radius in range(4):
                want = 1 + (p + 1) * (p ** radius - 1) // (p - 1)
                assert len(ball(origin(cfg), radius)) == want


class TestOrbit:
    def test_examples(self):
        assert orbit_class(origin(F2)) == 0
        assert orbit_class(make_point(F2, 1)) == 1

    def test_invariance(self):
        rng = random.Random(23)
        verts = ball(origin(F2), 3)
        for _ in range(50):
            g = random_g(rng, F2)
            v = rng.choice(verts)
            assert orbit_class(act(g, v)) == orbit_class(v)

    def test_partition_of_ball(self):
        verts = ball(origin(F3), 3)
        classes = {orbit_class(v) for v in verts}
        assert classes == {0, 1}


class TestExchange:
    @pytest.mark.parametrize("aexp", ["1", "t", "t^2", "1+t"])
    def test_triple_intersection(self, aexp):
        from masure.fields import parse_element

        a = parse_element(F2, aexp)
        wa = a.valuation()
        g_b = x_minus(a)
        g_a2 = exchange_apartment(a)
        assert fixed_interval(g_b) == (-INF, wa)
        assert fixed_interval(g_a2) == (wa, INF)
        # the three apartments A, B = g_b.A, A'' = g_a2.A share exactly val(a)
        assert fixes_point(g_b, make_point(F2, wa))
        assert fixes_point(g_a2, make_point(F2, wa))

    def test_sundial_pointwise(self):
        a = t(F2, 1)
        g_b = x_minus(a)
        g_a2 = exchange_apartment(a)
        for k in range(5):
            assert act(g_b, make_point(F2, 1 + k)) == act(g_a2, make_point(F2, 1 - k))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            exchange_apartment(F2.zero())


class TestRetractSegment:
    def test_apartment_segment_single_piece(self):
        tp = retract_segment(make_point(F2, 0), make_point(F2, 3), -1)
        assert tp.values == (0, 3) and tp.breaks == (0, 1)
        assert tp.folds() == []

    def test_fold_at_branch(self):
        p = make_point(F2, 5, t(F2, -6))
        q = make_point(F2, 5, t(F2, -6) + t(F2, -7))
        tp = retract_segment(p, q, -1)
        assert tp.values == (7, 6, 9)
        folds = tp.folds()
        assert len(folds) == 1
        assert folds[0][1] == 6 and Fraction(folds[0][1]).denominator == 1
        # post-fold sign: away from the center -oo
        assert tp.velocity(len(tp.breaks) - 2) > 0

    def test_no_fold_toward_plus(self):
        p = make_point(F2, 1, t(F2, -3))
        q = make_point(F2, 4)
        tp = retract_segment(p, q, +1)
        assert tp.values == (1, 4) and tp.folds() == []

    def test_pointwise_oracle(self):
        rng = random.Random(24)
        for _ in range(40):
            p, q = random_point(rng, F2), random_point(rng, F2)
            if distance(p, q) == 0:
                continue
            for center in (+1, -1):
                tp = retract_segment(p, q, center)
                d = distance(p, q)
                for num in range(0, 13):
                    s = Fraction(num, 12) * d
                    want = retract(point_on_segment(p, q, s), center)
                    # evaluate the piecewise path at s/d
                    tt = s / d
                    for k in range(len(tp.breaks) - 1):
                        if tp.breaks[k] <= tt <= tp.breaks[k + 1]:
                            dt = tp.breaks[k + 1] - tp.breaks[k]
                            val = tp.values[k] + (tt - tp.breaks[k]) / dt * (
                                tp.values[k + 1] - tp.values[k])
                            assert val == want
                            break

    def test_at_most_one_fold_random(self):
        rng = random.Random(25)
        for _ in range(60):
            p, q = random_point(rng, F3), random_point(rng, F3)
            if distance(p, q) == 0:
                continue
            for center in (+1, -1):
                tp = retract_segment(p, q, center)
                folds = tp.folds()
                assert len(folds) <= 1
                for _, pos in folds:
                    assert Fraction(pos).denominator == 1
                if folds:
                    post = tp.velocity(len(tp.breaks) - 2)
                    assert (post > 0) == (center < 0)

    def test_degenerate(self):
        p = make_point(F2, 0)
        with pytest.raises(DegenerateSegment):
            retract_segment(p, p, +1)


class TestPointSyntax:
    def test_roundtrip(self):
        rng = random.Random(26)
        for cfg in (F2, F3, Q2):
            for _ in range(40):
                p = random_point(rng, cfg)
                assert parse_point(cfg, point_to_str(p)) == p

    def test_examples(self):
        assert parse_point(F2, "(1; t^-3)") == make_point(F2, 1, t(F2, -3))
        assert parse_point(F2, "(-3/2; 0)") == make_point(F2, Fraction(-3, 2))

    @pytest.mark.parametrize("text", ["(0; 0", "0; 0", "(0, 0)", "(a; 0)", "(1/0; 0)", "(0; zz)"])
    def test_malformed_is_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_point(F2, text)
