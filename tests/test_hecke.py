"""Hecke path verification: billiard property, fold chains, dominance."""

import itertools
import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masure import hecke
from masure.fields import FieldConfig
from masure.hecke import (
    ChainWitness,
    HeckeError,
    NoChain,
    PiecewisePath,
    RefutedWithinBound,
    check_dominance,
    fold_size,
    is_billiard,
    path_from_tree,
    positively_free_coroots,
    replay_chain,
    standard_chamber,
    verify_fold,
    verify_path,
)
from masure.kmdata import (
    affine_sl2_data,
    finite_a1_data,
    finite_a2_data,
    minimal_realization,
    rank2_data,
    validate,
    validate_data,
)
from masure.linalg import combination_system, fm_feasible
from masure.tree import make_point, retract_segment
from masure.weyl import enumerate_real_roots, weyl_element

F2 = FieldConfig.laurent(2)
A1 = finite_a1_data()
AFF = affine_sl2_data()
A2 = finite_a2_data()
AFF_MIN = minimal_realization(validate([[2, -2], [-2, 2]]))
AFF_A2 = minimal_realization(validate([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))
# the coroots (1, 0) and (-1, 0) are dependent: no coroot coordinates
NON_COFREE = validate_data([[2, -2], [-2, 2]], 2, [(2, 0), (-2, 1)], [(1, 0), (-1, 0)])


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
        assert rep.ok and all(w is not None and w.word == () for w in rep.witnesses)

    def test_tree_fold(self):
        path = tree_fold_path()
        rep = is_billiard(A1, path, (path.velocity(1)[0],))
        assert rep.ok
        # witnesses: reflection then identity
        assert rep.witnesses[0].length() == 1
        assert rep.witnesses[1].word == ()

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

    @pytest.mark.parametrize("word", [(0, 1, 0, 1, 0, 1, 0), (1, 0, 1, 0, 1, 0, 1, 0, 1)])
    def test_minus_tits_cone(self, word):
        # the antidominant lam lies in -X: the dominant images of -lam and
        # -w lam decide w lam, past the longest words tried
        lam = (-4, -3, -4)
        xi = weyl_element(AFF_MIN, word).act_y(lam)
        rep = is_billiard(AFF_MIN, straight((Fraction(0),) * 3, xi), lam)
        assert rep.ok and rep.witnesses[0].act_y(lam) == xi

    def test_certified_outside_is_not_searched(self, monkeypatch):
        # lam in X, xi certified outside X: no W-image of lam is xi
        def no_search(*args):
            raise AssertionError("word search")

        monkeypatch.setattr(hecke, "all_elements_up_to_length", no_search)
        rep = is_billiard(AFF_MIN, straight((Fraction(0),) * 3, (0, 0, -1)), (0, 0, 1))
        assert not rep.ok and rep.witnesses == (None,)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a level-0 shape lies outside "
                                           "X and -X, where only words of length <= 6 "
                                           "are tried")
    def test_level_zero_shape(self):
        lam = (1, 0, 0)
        xi = weyl_element(AFF_MIN, (0, 1, 0, 1, 0, 1, 0)).act_y(lam)
        assert is_billiard(AFF_MIN, straight((Fraction(0),) * 3, xi), lam).ok


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
        assert out == NoChain()

    def test_minus_chamber_direction(self):
        out = verify_fold(A1, (Fraction(3),), (Fraction(-2),), (Fraction(2),),
                          standard_chamber(A1, -1))
        assert isinstance(out, ChainWitness)
        assert out.roots[0].root.coeffs == (1,)

    def test_wrong_direction_refuted(self):
        # with respect to +C_f a fold cannot raise the velocity
        out = verify_fold(A1, (Fraction(3),), (Fraction(-2),), (Fraction(2),),
                          standard_chamber(A1, +1))
        assert out == NoChain()
        assert fold_size(A1, (Fraction(-2),), (Fraction(2),), standard_chamber(A1, +1)) == 0

    def test_affine_fold(self):
        # reflect d-direction velocity by the finite simple root
        from masure.weyl import reflect_vector, simple_real_root

        xi = (Fraction(1), Fraction(0), Fraction(1))
        beta = simple_real_root(AFF, 1).negate()
        img = reflect_vector(AFF, beta, xi)
        out = verify_fold(AFF, (Fraction(0),) * 3, xi, tuple(img),
                          standard_chamber(AFF, +1))
        assert isinstance(out, ChainWitness)
        assert replay_chain(AFF, standard_chamber(AFF, +1), out)

    @pytest.mark.parametrize("data, xi_minus, xi_plus, length, size", [
        # roots of height 9 and 19: past the old default height bound 9
        (AFF_MIN, (1, 0, 0), (-19, -20, 0), 2, 40),
        # one root of height 10
        (AFF_A2, (3, 1, -2, -2), (-1, -2, -5, -2), 1, 10),
    ], ids=["affine_A1", "affine_A2"])
    def test_chains_past_the_old_height_bound(self, data, xi_minus, xi_plus, length, size):
        chamber = standard_chamber(data, +1)
        assert fold_size(data, xi_minus, xi_plus, chamber) == size
        out = verify_fold(data, (0,) * data.rank, xi_minus, xi_plus, chamber)
        assert isinstance(out, ChainWitness) and len(out.roots) == length
        assert max(abs(r.height()) for r in out.roots) > 9
        assert replay_chain(data, chamber, out)

    def test_dependent_coroots_keep_fixed_bounds(self):
        # r_{alpha_1} carries (1, 0) to (-1, 0); nothing reaches (5, 7)
        chamber = standard_chamber(NON_COFREE, -1)
        out = verify_fold(NON_COFREE, (0, 0), (1, 0), (-1, 0), chamber)
        assert isinstance(out, ChainWitness) and replay_chain(NON_COFREE, chamber, out)
        assert verify_fold(NON_COFREE, (0, 0), (1, 0), (5, 7), chamber) == RefutedWithinBound(9, 3)
        assert fold_size(NON_COFREE, (1, 0), (-1, 0), chamber) == 0

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

    def test_segments_dominate_on_both_sides(self):
        # a segment has no fold: its one velocity is its displacement
        for data, v in ((A1, (Fraction(-2),)), (AFF, (Fraction(1), Fraction(0), Fraction(3)))):
            path = straight((Fraction(0),) * data.rank, v)
            assert check_dominance(data, path, +1) and check_dominance(data, path, -1)

    def test_dependent_coroots(self):
        # the coroots (1, 0) and (-1, 0) of a non-cofree affine datum: the
        # coroot cone is the whole line y = 0, so Fourier-Motzkin meets a
        # kernel direction, and a fold may keep the endpoint comparison at 0
        data = validate_data([[2, -2], [-2, 2]], 2, [(2, 0), (-2, 1)], [(1, 0), (-1, 0)])
        assert not positively_free_coroots(data)
        along = PiecewisePath((Fraction(0), Fraction(1, 2), Fraction(1)),
                              ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2)),
                               (Fraction(0), Fraction(1))))
        across = PiecewisePath(along.breakpoints,
                               ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2)),
                                (Fraction(2), Fraction(0))))
        assert along.fold_times() == across.fold_times() == [1]
        for sign in (+1, -1):
            assert check_dominance(data, straight((Fraction(0),) * 2, (Fraction(3), Fraction(5))),
                                   sign)
            # velocities (2, 1) -> (-2, 1) differ along the line, (2, 1) -> (2, -1) across it
            assert check_dominance(data, along, sign)
            assert not check_dominance(data, across, sign)

    @pytest.mark.parametrize("data", [A2, AFF_MIN, AFF_A2, rank2_data(1, 5)])
    def test_coroot_coordinates_agree_with_fourier_motzkin(self, data):
        # independent coroots: the order is read off the coroot coordinates
        zero = (Fraction(0),) * data.rank
        mid = tuple(Fraction(1, k + 2) for k in range(data.rank))
        for d in itertools.product((-1, 0, 1), repeat=data.rank):
            if not any(d):
                continue
            # velocities 2 mid, then 2 mid - d
            path = PiecewisePath((Fraction(0), Fraction(1, 2), Fraction(1)),
                                 (zero, mid, tuple(2 * x - Fraction(y, 2) for x, y in zip(mid, d))))
            for sign in (1, -1):
                ref = fm_feasible(combination_system(data.simple_coroots,
                                                     tuple(sign * x for x in d)))
                assert check_dominance(data, path, sign) == ref

    def test_coroot_cone_dimension_mismatch(self):
        # rank-1 velocities against the rank-2 coroots of A2
        with pytest.raises(ValueError):
            check_dominance(A2, straight((Fraction(0),), (Fraction(2),)), -1)


class TestVerifyPath:
    def test_straight_segment_has_no_fold(self):
        rep = verify_path(A1, straight((Fraction(0),), (Fraction(2),)), (2,),
                          standard_chamber(A1, +1))
        assert rep.verified and rep.folds == ()

    def test_tree_fold_lowers_the_shape_by_a_coroot(self):
        # 7/2 -> 3 -> 9/2: shape 2, displacement 2 - alpha^vee, one fold on
        # the wall x = 3 at time 1/4 <= 1/2
        path = tree_fold_path()
        assert path.fold_times() == [1]
        assert path.breakpoints[1] == Fraction(1, 4) and path.positions[1] == (3,)
        assert (2 - path.displacement()[0],) == tuple(A1.simple_coroots[0])
        rep = verify_path(A1, path, (2,), standard_chamber(A1, -1))
        assert [f.time for f in rep.folds] == [Fraction(1, 4)]

    def test_shape_dimension_mismatch(self):
        # a rank-2 shape against rank-1 data: an error, not a truncated comparison
        with pytest.raises(ValueError):
            verify_path(A1, straight((Fraction(0),), (Fraction(2),)), (2, 7),
                        standard_chamber(A1, +1))

    def test_synthetic_affine_fold(self):
        # one fold through the wall of alpha_1 at time 1/3: the bent piece is
        # r_beta(3 nu) with beta = -alpha_1, the rest is 3 nu
        from masure.weyl import reflect_vector, simple_real_root

        dnu = (Fraction(3), Fraction(0), Fraction(3))
        beta = simple_real_root(AFF, 1).negate()
        bent = tuple(reflect_vector(AFF, beta, dnu))
        t0 = Fraction(1, 3)
        start = (Fraction(0),) * 3
        mid = tuple(t0 * v for v in bent)
        end = tuple(m + (1 - t0) * v for m, v in zip(mid, dnu))
        path = PiecewisePath((Fraction(0), t0, Fraction(1)), (start, mid, end))
        minus = verify_path(AFF, path, dnu, standard_chamber(AFF, -1))
        assert minus.verified
        (fold,) = minus.folds
        assert fold.time == t0 and fold.position == mid
        assert replay_chain(AFF, standard_chamber(AFF, -1), fold.witness)
        # the same fold bends the wrong way for the fundamental chamber
        plus = verify_path(AFF, path, dnu, standard_chamber(AFF, +1))
        assert plus.billiard.ok and not plus.dominance and not plus.verified
        assert plus.folds[0].witness == NoChain()

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


# ---------------------------------------------------------------------------
# cross-check against the bounded search the fold search replaced: roots of
# height <= 12 and chains of <= 3 reflections, breadth first

CROSS_DATA = {
    "A2": A2,
    "affine_A1": AFF_MIN,
    "rank2_1_5": rank2_data(1, 5),
    "affine_A2": AFF_A2,
}


@cache
def _bounded_candidates(name: str, chamber: int):
    data = CROSS_DATA[name]
    out = []
    for pos in enumerate_real_roots(data, 12).roots:
        beta = pos.negate() if chamber > 0 else pos
        out.append((beta, tuple(int(x) for x in data.root_covector(beta.root))))
    out.sort(key=lambda bc: (abs(bc[0].height()), bc[0].root.coeffs))
    return out


def _bounded_chain(name, anchor, start, goal, chamber):
    """The length of the first chain the bounded search finds, or None;
    on vectors scaled to integers."""
    if start == goal:
        return 0
    m = math.lcm(*(x.denominator for x in start + goal + anchor))
    start, goal, anchor = ([int(x * m) for x in v] for v in (start, goal, anchor))
    cands = [(b, cov) for b, cov in _bounded_candidates(name, chamber)
             if sum(x * y for x, y in zip(cov, anchor)) % m == 0]
    frontier, seen = [tuple(start)], {tuple(start)}
    for length in range(1, 4):
        nxt = []
        for cur in frontier:
            for beta, cov in cands:
                c = sum(x * y for x, y in zip(cov, cur))
                if c >= 0:
                    continue
                img = tuple(x - c * h for x, h in zip(cur, beta.coroot))
                if img == tuple(goal):
                    return length
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return None


halves = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2]))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CROSS_DATA)), chamber=st.sampled_from([1, -1]),
       data_=st.data())
def test_fold_search_finds_every_bounded_chain(name, chamber, data_):
    # in-orbit pairs: xi_plus = w xi_minus for a word of length <= 4
    data = CROSS_DATA[name]
    xi = tuple(data_.draw(st.lists(halves, min_size=data.rank, max_size=data.rank)))
    word = data_.draw(st.lists(st.integers(0, data.n - 1), min_size=1, max_size=4))
    anchor = tuple(data_.draw(st.lists(halves, min_size=data.rank, max_size=data.rank)))
    goal = weyl_element(data, word).act_y(xi)
    ref = _bounded_chain(name, anchor, xi, goal, chamber)
    out = verify_fold(data, anchor, xi, goal, chamber)
    if isinstance(out, ChainWitness):
        assert replay_chain(data, chamber, out)
        assert ref is None or len(out.roots) <= ref
    else:
        assert out == NoChain() and ref is None


def _orbit_within(data, lam, max_len):
    """{w lam : l(w) <= max_len}, by simple reflections v - alpha_i(v) alpha_i^vee."""
    orbit = {lam}
    for _ in range(max_len):
        orbit |= {tuple(x - data.pair(root, v) * c for x, c in zip(v, coroot))
                  for v in orbit for root, coroot in zip(data.simple_roots, data.simple_coroots)}
    return orbit


def test_billiard_against_words_of_length_9():
    # on affine A1, lam of nonzero level lies in X or -X, and every w lam with
    # l(w) <= 9 is billiard; at level 0 those with l(w) <= 6 are.  Every True
    # replays, and -lam, of the opposite level, is off the orbit.
    zero = (Fraction(0),) * 3
    for lam in [*itertools.product((0, 1), (0, 1), (-1, 1)), (1, 0, 0), (0, -1, 0)]:
        level = sum(AFF_MIN.pair(root, lam) for root in AFF_MIN.simple_roots)
        reached = _orbit_within(AFF_MIN, tuple(map(Fraction, lam)), 9 if level else 6)
        for xi in reached:
            rep = is_billiard(AFF_MIN, straight(zero, xi), lam)
            assert rep.ok and rep.witnesses[0].act_y(lam) == xi
        if level:
            assert not is_billiard(AFF_MIN, straight(zero, tuple(-x for x in lam)), lam).ok
