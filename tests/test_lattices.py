"""Lattice-class oracle: Smith normal form over the valuation ring."""

import itertools
import random

import pytest

from masure.fields import FieldConfig, Mat2, t_diag, x_plus
from masure.lattices import (
    Lattice,
    SingularLattice,
    column_normal_form,
    lattice_distance,
    smith_valuations,
    vertex_to_lattice,
)
from masure.tree import act, ball, distance, make_point, origin

F2 = FieldConfig.laurent(2)
Q3 = FieldConfig.padic(3)


def t(cfg, k):
    return cfg.uniformizer_pow(k)


class TestSmith:
    def test_diagonal(self):
        m = Mat2(t(F2, 1), F2.zero(), F2.zero(), t(F2, -1))
        assert smith_valuations(m) == (-1, 1)

    def test_unimodular(self):
        m = Mat2(F2.one(), t(F2, 3), F2.zero(), F2.one())
        assert smith_valuations(m) == (0, 0)

    def test_needs_pivoting(self):
        m = Mat2(t(F2, 2), t(F2, 1), t(F2, 1), t(F2, 2))
        v1, v2 = smith_valuations(m)
        assert v1 == 1
        # determinant valuation is preserved: t^2(t^2) - t(t) = t^2 + t^4
        assert v1 + v2 == (m.det()).valuation()

    def test_singular(self):
        with pytest.raises(SingularLattice):
            smith_valuations(Mat2(F2.one(), F2.one(), F2.one(), F2.one()))


class TestLatticeDistance:
    def test_self(self):
        l0 = vertex_to_lattice(origin(F2))
        assert lattice_distance(l0, l0) == 0

    def test_diag_conjugate(self):
        l0 = vertex_to_lattice(origin(F2))
        l1 = Lattice(t_diag(t(F2, 1)) * l0.basis)
        assert lattice_distance(l1, l0) == 2

    def test_scaling_invariance(self):
        l0 = vertex_to_lattice(make_point(F2, 2, t(F2, -1)))
        scaled = Lattice(Mat2(l0.basis.a * t(F2, 3), l0.basis.b * t(F2, 3),
                              l0.basis.c * t(F2, 3), l0.basis.d * t(F2, 3)))
        assert lattice_distance(l0, scaled) == 0

    def test_agrees_with_tree_distance(self):
        for cfg in (F2, Q3):
            verts = ball(origin(cfg), 3)
            lats = [vertex_to_lattice(v) for v in verts]
            for (i, v), (j, w) in itertools.combinations(enumerate(verts), 2):
                assert lattice_distance(lats[i], lats[j]) == distance(v, w)

    @pytest.mark.parametrize("cfg", [F2, Q3], ids=str)
    def test_action_compatible(self, cfg):
        rng = random.Random(31)
        verts = ball(origin(cfg), 2)
        for _ in range(40):
            v = rng.choice(verts)
            g = x_plus(t(cfg, rng.randint(-2, 2))) * t_diag(t(cfg, rng.randint(-1, 1)))
            lv = Lattice(g * vertex_to_lattice(v).basis)
            assert lattice_distance(lv, vertex_to_lattice(act(g, v))) == 0


class TestNormalForm:
    def test_vertex_form_is_fixed(self):
        v = make_point(F2, 2, t(F2, -3))
        lat = vertex_to_lattice(v)
        nf = column_normal_form(lat)
        assert (nf.a, nf.b, nf.c, nf.d) == (lat.basis.a, lat.basis.b,
                                            lat.basis.c, lat.basis.d)

    def test_class_preserved(self):
        rng = random.Random(32)
        for _ in range(30):
            v = rng.choice(ball(origin(F2), 3))
            lat = vertex_to_lattice(v)
            g = x_plus(t(F2, rng.randint(0, 2))) * t_diag(t(F2, rng.randint(-1, 1)))
            moved = Lattice(lat.basis * g)
            nf = column_normal_form(moved)
            assert lattice_distance(Lattice(nf), moved) == 0
            assert nf.c.is_zero()

    def test_non_vertex_rejected(self):
        from fractions import Fraction

        with pytest.raises(SingularLattice):
            vertex_to_lattice(make_point(F2, Fraction(1, 2)))
