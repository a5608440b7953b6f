"""Lattice-class oracle: Smith normal form over the valuation ring."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
F3 = FieldConfig.laurent(3)
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


def eliminated_valuations(m: Mat2) -> tuple[int, int]:
    """Test-local reference: row and column operations over O pivot on an
    entry of least valuation, clear its row and column, and read the
    valuations off the diagonal."""
    ents = [[m.a, m.b], [m.c, m.d]]
    pi, pj = min(((i, j) for i in range(2) for j in range(2)),
                 key=lambda ij: ents[ij[0]][ij[1]].valuation())
    if pi == 1:
        ents.reverse()
    if pj == 1:
        ents = [row[::-1] for row in ents]
    (p, b), (c, d) = ents
    # row 2 -= (c/p) row 1 leaves d - (c/p) b in the corner, and column 2 -=
    # (b/p) column 1 then clears b alone; both quotients lie in O
    d = d - (c / p) * b
    v1, v2 = p.valuation(), d.valuation()
    return (v1, v2) if v1 <= v2 else (v2, v1)


def _entries(cfg):
    """0, or pi^k times a unit u/w with u, w sums of digit * pi^i, k in [-4, 4]."""
    def build(k, num, den):
        unit = [sum((cfg.monomial(c, i) for i, c in enumerate(digits)), start=cfg.zero())
                for digits in (num, den)]
        return cfg.uniformizer_pow(k) * unit[0] / unit[1]

    digits = st.tuples(st.integers(1, cfg.p - 1),
                       *[st.integers(0, cfg.p - 1)] * 2)
    return st.one_of(st.just(cfg.zero()), st.builds(build, st.integers(-4, 4), digits, digits))


@pytest.mark.parametrize("cfg", [F2, F3, Q3], ids=str)
@settings(deadline=None)
@given(data=st.data())
def test_smith_matches_elimination(cfg, data):
    m = Mat2(*(data.draw(_entries(cfg)) for _ in range(4)))
    assume(not m.det().is_zero())
    assert smith_valuations(m) == eliminated_valuations(m)


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
