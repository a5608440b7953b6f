"""Hecke path verification: billiard property, fold chains, dominance."""

from fractions import Fraction

import pytest

from masure.fields import FieldConfig
from masure.hecke import (
    ChainWitness,
    HeckeError,
    PiecewisePath,
    PreconditionUnmet,
    RefutedWithinBound,
    check_dominance,
    check_height_bound,
    is_billiard,
    path_from_tree,
    positively_free_coroots,
    rank1_data,
    replay_chain,
    standard_chamber,
    verify_fold,
    verify_path,
)
from masure.kmdata import affine_sl2_data, finite_a2_data
from masure.tree import make_point, retract_segment

F2 = FieldConfig.laurent(2)
A1 = rank1_data()
AFF = affine_sl2_data()
A2 = finite_a2_data()


def t(k):
    return F2.uniformizer_pow(k)


def straight(a, b):
    return PiecewisePath((Fraction(0), Fraction(1)), (a, b))


def tree_fold_path():
    p = make_point(F2, 5, t(-6))
    q = make_point(F2, 5, t(-6) + t(-7))
    return path_from_tree(retract_segment(p, q, -1))


class TestPiecewisePath:
    def test_velocities(self):
        path = PiecewisePath((Fraction(0), Fraction(1, 4), Fraction(1)),
                             ((Fraction(7, 2),), (Fraction(3),), (Fraction(9, 2),)))
        assert path.velocity(0) == (-2,)
        assert path.velocity(1) == (2,)
        assert path.fold_times() == [1]

    def test_conservation(self):
        path = tree_fold_path()
        total = tuple(sum(v[k] * (path.breakpoints[i + 1] - path.breakpoints[i])
                          for i, v in enumerate(path.velocities()))
                      for k in range(1))
        assert total == path.displacement()

    def test_validation(self):
        with pytest.raises(HeckeError):
            PiecewisePath((Fraction(0),), ((Fraction(0),),))
        with pytest.raises(HeckeError):
            PiecewisePath((Fraction(0), Fraction(0), Fraction(1)),
                          ((Fraction(0),), (Fraction(0),), (Fraction(0),)))

    def test_positions_of_unequal_length(self):
        with pytest.raises(HeckeError, match="equal length"):
            PiecewisePath((Fraction(0), Fraction(1)), ((Fraction(0),), (Fraction(1), Fraction(5))))


class TestBilliard:
    def test_straight_segment(self):
        rep = is_billiard(A1, straight((Fraction(0),), (Fraction(2),)), (2,))
        assert rep.ok and all(w is not None and w.is_identity() for w in rep.witnesses)

    def test_tree_fold(self):
        path = tree_fold_path()
        rep = is_billiard(A1, path, (path.velocity(1)[0],))
        assert rep.ok
        # witnesses: reflection then identity
        assert rep.witnesses[0].length() == 1
        assert rep.witnesses[1].is_identity()

    def test_wrong_norm_rejected(self):
        bad = PiecewisePath((Fraction(0), Fraction(1, 2), Fraction(1)),
                            ((Fraction(0),), (Fraction(1),), (Fraction(3),)))
        rep = is_billiard(A1, bad, (2,))
        assert not rep.ok

    def test_zero_shape_rejected(self):
        with pytest.raises(HeckeError):
            is_billiard(A1, straight((Fraction(0),), (Fraction(1),)), (0,))

    def test_affine_shape(self):
        # straight affine path of shape nu = coroot direction
        nu = (Fraction(1), Fraction(0), Fraction(1))
        rep = is_billiard(AFF, straight((Fraction(0),) * 3, nu), nu)
        assert rep.ok


class TestVerifyFold:
    def test_rank1_single_reflection(self):
        # anchor on a wall, velocities +-s: one reflection suffices
        out = verify_fold(A1, (Fraction(7),), (Fraction(2),), (Fraction(-2),),
                          standard_chamber(A1, +1))
        assert isinstance(out, ChainWitness)
        assert len(out.roots) == 1
        # with respect to +C_f the chain root is the negative simple root
        assert out.roots[0].root.coeffs == (-1,)
        assert replay_chain(A1, standard_chamber(A1, +1), out)

    def test_trivial(self):
        out = verify_fold(A1, (Fraction(1),), (Fraction(2),), (Fraction(2),),
                          standard_chamber(A1, +1))
        assert isinstance(out, ChainWitness) and out.roots == ()

    def test_non_integral_anchor_refuted(self):
        out = verify_fold(A1, (Fraction(7, 3),), (Fraction(2),), (Fraction(-2),),
                          standard_chamber(A1, +1))
        assert isinstance(out, RefutedWithinBound)

    def test_minus_chamber_direction(self):
        out = verify_fold(A1, (Fraction(3),), (Fraction(-2),), (Fraction(2),),
                          standard_chamber(A1, -1))
        assert isinstance(out, ChainWitness)
        assert out.roots[0].root.coeffs == (1,)

    def test_wrong_direction_refuted(self):
        # with respect to +C_f a fold cannot raise the velocity
        out = verify_fold(A1, (Fraction(3),), (Fraction(-2),), (Fraction(2),),
                          standard_chamber(A1, +1))
        assert isinstance(out, RefutedWithinBound)

    def test_affine_fold(self):
        # reflect d-direction velocity by the finite simple root
        from masure.weyl import reflect_vector, simple_real_root

        xi = (Fraction(1), Fraction(0), Fraction(1))
        beta = simple_real_root(AFF, 1).negate()
        img = reflect_vector(AFF, beta, xi)
        out = verify_fold(AFF, (Fraction(0),) * 3, xi, tuple(img),
                          standard_chamber(AFF, +1), height_bound=5)
        assert isinstance(out, ChainWitness)
        assert replay_chain(AFF, standard_chamber(AFF, +1), out)

    def test_replay_rejects_tampering(self):
        out = verify_fold(A1, (Fraction(7),), (Fraction(2),), (Fraction(-2),),
                          standard_chamber(A1, +1))
        bad = ChainWitness((Fraction(7, 3),), out.roots, out.velocities)
        assert not replay_chain(A1, standard_chamber(A1, +1), bad)


class TestDominance:
    def test_straight(self):
        assert check_dominance(A1, straight((Fraction(0),), (Fraction(2),)), +1)

    def test_tree_fold_minusocenter(self):
        path = tree_fold_path()
        assert check_dominance(A1, path, -1)
        assert not check_dominance(A1, path, +1)

    def test_constructed_violation(self):
        # two folds with velocities 2 -> -2 -> 2 violate +C_f monotonicity
        path = PiecewisePath(
            (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)),
            ((Fraction(0),), (Fraction(2, 3),), (Fraction(0),), (Fraction(2, 3),)),
        )
        assert not check_dominance(A1, path, +1)

    def test_positively_free(self):
        assert positively_free_coroots(A1)
        assert positively_free_coroots(AFF)
        assert positively_free_coroots(A2)


class TestHeightBound:
    def test_straight_zero_mu(self):
        rep = check_height_bound(A1, straight((Fraction(0),), (Fraction(2),)),
                                 2, (1,), (0,))
        assert rep.holds and rep.mu_height == 0

    def test_tree_instance(self):
        # path 7/2 -> 3 -> 9/2 has shape 2*nu, mu = coroot, t* = 1/4 <= 1/2
        path = tree_fold_path()
        rep = check_height_bound(A1, path, 2, (1,), (1,))
        assert rep.holds
        assert rep.mu_height == 1
        assert rep.t_star == Fraction(1, 4)
        assert rep.bound == Fraction(1, 2)

    def test_mu_outside_cone(self):
        path = straight((Fraction(0),), (Fraction(3),))
        rep = check_height_bound(A1, path, 2, (1,), (-1,))
        assert not rep.holds and not rep.mu_in_cone

    def test_precondition(self):
        with pytest.raises(PreconditionUnmet):
            check_height_bound(A1, tree_fold_path(), 5, (1,), (0,))

    def test_shape_dimension_mismatch(self):
        # nu and mu of different lengths: an error, not a truncated comparison
        with pytest.raises(ValueError):
            check_height_bound(A1, straight((Fraction(0),), (Fraction(2),)), 2, (1, 7), (0,))

    def test_coroot_cone_dimension_mismatch(self):
        # rank-1 velocities against the rank-2 coroots of A2
        with pytest.raises(ValueError):
            check_dominance(A2, straight((Fraction(0),), (Fraction(2),)), -1)

    def test_synthetic_affine(self):
        # one fold through the finite wall: shape d*nu with nu = coroot-like
        from masure.weyl import reflect_vector, simple_real_root

        nu = (Fraction(1), Fraction(0), Fraction(1))
        d = Fraction(3)
        beta = simple_real_root(AFF, 1).negate()
        dnu = tuple(d * x for x in nu)
        bent = tuple(reflect_vector(AFF, beta, dnu))
        t0 = Fraction(1, 3)
        start = (Fraction(0),) * 3
        mid = tuple(t0 * v for v in bent)
        end = tuple(m + (1 - t0) * v for m, v in zip(mid, dnu))
        path = PiecewisePath((Fraction(0), t0, Fraction(1)), (start, mid, end))
        mu = tuple(d * x - (e - s) for x, e, s in zip(nu, end, start))
        rep = check_height_bound(AFF, path, d, nu, mu)
        assert rep.mu_in_cone and rep.holds


class TestVerifyPath:
    def test_tree_generated(self):
        path = tree_fold_path()
        rep = verify_path(A1, path, (2,), standard_chamber(A1, -1), 9, 6, 3)
        assert rep.verified
        for f in rep.folds:
            assert isinstance(f.witness, ChainWitness)
            assert replay_chain(A1, standard_chamber(A1, -1), f.witness)

    def test_hand_built_v_path(self):
        # 9 -> 7 -> 9 of speed 4: a valid Hecke path for the -C_f chamber
        path = PiecewisePath((Fraction(0), Fraction(1, 2), Fraction(1)),
                             ((Fraction(9, 2),), (Fraction(7, 2),), (Fraction(9, 2),)))
        rep = verify_path(A1, path, (2,), standard_chamber(A1, -1))
        assert rep.verified

    def test_off_wall_fold_fails(self):
        path = PiecewisePath((Fraction(0), Fraction(1, 2), Fraction(1)),
                             ((Fraction(19, 4),), (Fraction(15, 4),), (Fraction(19, 4),)))
        rep = verify_path(A1, path, (2,), standard_chamber(A1, -1))
        assert not rep.verified
