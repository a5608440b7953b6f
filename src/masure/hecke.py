"""Piecewise-affine path model and Hecke-path verification for any root
datum with integral value group.

A path is billiard when every one-sided velocity lies in the Weyl orbit
of the shape (dominant images on the Tits cone X and on -X, a bounded word
search elsewhere); a fold is verified by exhibiting a chain of reflections
r_{beta_1}, ..., r_{beta_k} carrying the incoming velocity to the
outgoing one, where each beta is negative on the reference chamber,
negative on the velocity it reflects, and takes an integer value on the
fold point (the fold sits on a wall of each beta).  The fold bounds its
own search: a chain lowers the velocity in the coroot order, so with
independent coroots only finitely many chains can explain it, and a fold
no chain explains gets NoChain.  Only a realization with dependent coroots
falls back to fixed bounds, and a miss there is RefutedWithinBound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .cone import InCone, NotInCone, normalize_to_dominant
from .kmdata import KacMoodyData, finite_a1_data
from .linalg import combination_system, fm_feasible
from .weyl import (
    RealRoot,
    WeylElement,
    all_elements_up_to_length,
    enumerate_real_roots,
    positive_root_closure,
    reflect_vector,
)


class HeckeError(ValueError):
    pass


Vec = tuple[Fraction, ...]


def _vec(v) -> Vec:
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class PiecewisePath:
    """Breakpoints 0 = t_0 < ... < t_n = 1 with positions; affine pieces."""

    breakpoints: tuple[Fraction, ...]
    positions: tuple[Vec, ...]

    def __post_init__(self) -> None:
        ts = self.breakpoints
        if len(ts) < 2 or ts[0] != 0 or ts[-1] != 1:
            raise HeckeError("breakpoints must run from 0 to 1")
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise HeckeError("breakpoints must increase")
        if len(self.positions) != len(ts):
            raise HeckeError("one position per breakpoint")
        if len({len(pos) for pos in self.positions}) != 1:
            raise HeckeError("positions must have equal length")

    @property
    def pieces(self) -> int:
        return len(self.breakpoints) - 1

    def velocity(self, k: int) -> Vec:
        dt = self.breakpoints[k + 1] - self.breakpoints[k]
        return tuple((a - b) / dt for a, b in
                     zip(self.positions[k + 1], self.positions[k], strict=True))

    def velocities(self) -> list[Vec]:
        return [self.velocity(k) for k in range(self.pieces)]

    def fold_times(self) -> list[int]:
        """Indices k of interior breakpoints where the velocity changes."""
        return [k for k in range(1, self.pieces)
                if self.velocity(k - 1) != self.velocity(k)]

    def displacement(self) -> Vec:
        return tuple(a - b for a, b in zip(self.positions[-1], self.positions[0], strict=True))


def path_from_tree(tree_path) -> PiecewisePath:
    """Rank-1 embedding of a tree retraction image: apartment coordinate x
    maps to (x/2) in the A_1 coroot line, so walls land on Z."""
    return PiecewisePath(
        tuple(tree_path.breaks),
        tuple((Fraction(v) / 2,) for v in tree_path.values),
    )


def rank1_data() -> KacMoodyData:
    return finite_a1_data()


# ---------------------------------------------------------------------------
# billiard property

@dataclass(frozen=True)
class BilliardReport:
    ok: bool
    witnesses: tuple[WeylElement | None, ...]  # per piece; None when not found


# Where neither X nor -X decides, is_billiard tries the words of length
# <= BILLIARD_WORDS, after greedy runs of <= BILLIARD_CAP reflections.
BILLIARD_WORDS = 6
BILLIARD_CAP = 4 * (BILLIARD_WORDS + 1) + 40


def _orbit_witness(data: KacMoodyData, lam: Vec, target: Vec, dominant) -> WeylElement | None:
    """w with w.lam = target, or None.  X is W-stable with one dominant
    image per orbit (Kac, Prop. 3.12): for a sign s with s lam and s target
    in X the images decide, and with one in X and the other certified
    outside, target is off the orbit.  Otherwise a bounded word search."""
    for sign in (1, -1):
        cl, ct = (dominant(tuple(sign * x for x in v)) for v in (lam, target))
        if isinstance(cl, InCone) and isinstance(ct, InCone):
            if cl.image != ct.image:
                return None
            w = ct.w.inverse() * cl.w
            return w if w.act_y(lam) == target else None
        if {type(cl), type(ct)} == {InCone, NotInCone}:
            return None
    return next((w for w in all_elements_up_to_length(data, BILLIARD_WORDS)
                 if w.act_y(lam) == target), None)


def is_billiard(data: KacMoodyData, path: PiecewisePath, shape) -> BilliardReport:
    lam = _vec(shape)
    if all(x == 0 for x in lam):
        raise HeckeError("shape must be nonzero")
    dominant = cache(lambda v: normalize_to_dominant(data, v, BILLIARD_CAP))
    wits = tuple(_orbit_witness(data, lam, v, dominant) for v in path.velocities())
    return BilliardReport(all(w is not None for w in wits), wits)


# ---------------------------------------------------------------------------
# fold chains

@dataclass(frozen=True)
class ChainWitness:
    anchor: Vec
    roots: tuple[RealRoot, ...]
    velocities: tuple[Vec, ...]  # xi_0 .. xi_k


@dataclass(frozen=True)
class NoChain:
    """No chain carries the fold: every chain that could was searched."""


@dataclass(frozen=True)
class RefutedWithinBound:
    height_bound: int
    max_reflections: int


def replay_chain(data: KacMoodyData, chamber: int, witness: ChainWitness) -> bool:
    """Re-evaluate every clause of the chain conditions."""
    xs = witness.velocities
    if len(xs) != len(witness.roots) + 1:
        return False
    for i, beta in enumerate(witness.roots):
        prev, nxt = xs[i], xs[i + 1]
        if tuple(reflect_vector(data, beta, prev)) != tuple(nxt):
            return False
        if data.eval_root(beta.root, prev) >= 0:
            return False
        if data.eval_root(beta.root, witness.anchor).denominator != 1:
            return False
        if not _negative_on_chamber(beta, chamber):
            return False
    return True


def _negative_on_chamber(beta: RealRoot, chamber: int) -> bool:
    """beta < 0 on chamber * C_f  iff  chamber * beta is a negative root."""
    return beta.root.is_negative() if chamber > 0 else beta.root.is_positive()


def _candidates(data: KacMoodyData, chamber: int, anchor: Vec, positive: tuple[RealRoot, ...],
                coords) -> list[tuple[RealRoot, tuple[int, ...], tuple[int, ...] | None]]:
    """(beta, its covector, coords(+-beta)) for the signs beta of the
    positive roots that are negative on the chamber, with an integral value
    on the anchor; in (height, coords) order."""
    out = []
    for pos in positive:
        beta = pos.negate() if chamber > 0 else pos
        cov = tuple(int(x) for x in data.root_covector(beta.root))
        if sum(x * y for x, y in zip(cov, anchor, strict=True)).denominator == 1:
            out.append((beta, cov, coords(pos)))
    out.sort(key=lambda c: (abs(c[0].height()), c[0].root.coeffs))
    return out


def _cone_coordinates(data: KacMoodyData, y: Vec) -> tuple[Fraction, ...] | None:
    """The coordinates of y in the independent simple coroots when they are
    all >= 0, else None (y off the coroot cone)."""
    c = data.coroot_coordinates(y)
    return c if c is not None and all(x >= 0 for x in c) else None


def _fold_box(data: KacMoodyData, xi_minus: Vec, xi_plus: Vec,
              chamber: int) -> tuple[int, tuple[Fraction, ...]] | None:
    """(d, D) for data with independent coroots: D = s(xi_minus - xi_plus)
    in simple-coroot coordinates, s the chamber sign, and d the common
    denominator of the alpha_j(xi_minus); None when D is off the coroot
    cone."""
    sign = 1 if chamber > 0 else -1
    diff = _cone_coordinates(data, tuple(sign * (a - b) for a, b in zip(xi_minus, xi_plus, strict=True)))
    if diff is None:
        return None
    return math.lcm(*(data.pair(root, xi_minus).denominator for root in data.simple_roots)), diff


def fold_size(data: KacMoodyData, xi_minus, xi_plus, chamber: int) -> int:
    """d * ht(D) (see _fold_box), the most reflections a chain for the fold
    can take: verify_fold searches that deep and through the positive roots
    whose coroot is <= d * D.  0 when D is off the coroot cone, and when the
    coroots are dependent, where the search has fixed bounds."""
    box = data.independent_coroots and _fold_box(data, _vec(xi_minus), _vec(xi_plus), chamber)
    return math.floor(box[0] * sum(box[1])) if box else 0


# A realization with dependent simple coroots gives a fold no coroot box:
# there the search keeps to roots of height <= DEPENDENT_HEIGHT and chains of
# <= DEPENDENT_REFLECTIONS steps, and a miss is RefutedWithinBound.
DEPENDENT_HEIGHT, DEPENDENT_REFLECTIONS = 9, 3


def verify_fold(data: KacMoodyData, anchor, xi_minus, xi_plus,
                chamber: int) -> ChainWitness | NoChain | RefutedWithinBound:
    """The shortest chain carrying xi_minus to xi_plus, or NoChain.

    Each step subtracts c gamma^vee (chamber +) or adds it (chamber -), with
    gamma^vee a positive coroot and c > 0 a value of a root on a W-image of
    xi_minus, so c is in (1/d) Z.  With independent coroots the chain writes
    D = sum c_i gamma_i^vee (see _fold_box): every gamma_i^vee is <= d * D,
    every state lies between xi_plus and xi_minus, and the chain has at most
    d * ht(D) steps, so the search is finite and a miss is a proof.  The
    monotonicity of positive folds: Gaussent-Rousseau, Ann. Inst. Fourier
    58 (2008); Kapovich-Millson, Groups Geom. Dyn. 2 (2008).  Ties between
    shortest chains resolve by the (height, coords) candidate order.
    """
    a = _vec(anchor)
    start, goal = _vec(xi_minus), _vec(xi_plus)
    if start == goal:
        return ChainWitness(a, (), (start,))
    if not data.independent_coroots:
        cands = _candidates(data, chamber, a, enumerate_real_roots(data, DEPENDENT_HEIGHT).roots,
                            lambda pos: None)
        return (_shortest_chain(a, start, goal, cands, None, DEPENDENT_REFLECTIONS)
                or RefutedWithinBound(DEPENDENT_HEIGHT, DEPENDENT_REFLECTIONS))
    box = _fold_box(data, start, goal, chamber)
    if box is None:
        return NoChain()
    d, diff = box
    cap = tuple(d * x for x in diff)
    # the positive roots with coroot <= d D: some simple reflection lowers a
    # non-simple positive coroot to a positive one, whose root is positive,
    # so each of them closes down to a simple root inside the box
    positive = positive_root_closure(data, lambda v, coroot: all(
        c <= b for c, b in zip(data.coroot_coordinates(coroot), cap)))
    cands = _candidates(data, chamber, a, positive,
                        lambda pos: tuple(int(x) for x in data.coroot_coordinates(pos.coroot)))
    return _shortest_chain(a, start, goal, cands, diff, math.floor(d * sum(diff))) or NoChain()


def _shortest_chain(a: Vec, start: Vec, goal: Vec, cands: list, rest: Vec | None,
                    max_steps: int) -> ChainWitness | None:
    """Breadth-first search, at most max_steps reflections deep, for the
    first chain from start to goal through cands = (beta, covector, k).
    With rest the coroot coordinates of s(start - goal), k holds those of
    the positive coroot -s beta^vee, and a state whose own rest has a
    negative coordinate is dropped.  Every vector is scaled by the common
    denominator m, so the search runs on integers."""
    m = math.lcm(*(x.denominator for x in start + goal + (rest or ())))

    def scaled(v: Vec) -> tuple[int, ...]:
        return tuple(x.numerator * (m // x.denominator) for x in v)

    s0, g = scaled(start), scaled(goal)
    frontier = [(s0, rest and scaled(rest), ())]
    seen = {s0}
    for _ in range(max_steps):
        nxt = []
        for cur, r, chain in frontier:
            for beta, cov, k in cands:
                c = sum(x * y for x, y in zip(cov, cur))
                if c >= 0:
                    continue
                r_img = r and tuple(x + c * y for x, y in zip(r, k))
                if r_img and min(r_img) < 0:
                    continue
                img = tuple(x - c * h for x, h in zip(cur, beta.coroot))  # r_beta(cur)
                if img in seen:
                    continue
                if img == g:
                    steps = chain + ((beta, img),)
                    return ChainWitness(a, tuple(b for b, _ in steps), (start,) + tuple(
                        tuple(Fraction(x, m) for x in v) for _, v in steps))
                seen.add(img)
                nxt.append((img, r_img, chain + ((beta, img),)))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# dominance

def positively_free_coroots(data: KacMoodyData) -> bool:
    """No nonzero nonnegative combination of the coroots vanishes: true of
    independent coroots, which the datum's cached coroot frame tells, and
    asked of Fourier-Motzkin for dependent ones."""
    if data.independent_coroots:
        return True
    ineqs = combination_system(data.simple_coroots, (0,) * data.rank)
    ineqs.append(((Fraction(1),) * data.n, Fraction(1)))
    return not fm_feasible(ineqs)


def check_dominance(data: KacMoodyData, path: PiecewisePath, chamber_sign: int) -> bool:
    """One-sided velocities are monotone for the coroot-cone order:
    decreasing for the fundamental chamber, increasing for its opposite;
    plus the endpoint comparison with the displacement.  Independent coroots
    read the order off their coordinates; dependent ones ask Fourier-Motzkin."""
    vels = path.velocities()
    sign = -1 if chamber_sign < 0 else 1
    for u, w in [*zip(vels, vels[1:]), (vels[0], path.displacement())]:
        diff = tuple(sign * (a - b) for a, b in zip(u, w, strict=True))
        if not (_cone_coordinates(data, diff) is not None if data.independent_coroots
                else fm_feasible(combination_system(data.simple_coroots, diff))):
            return False
    # diff is now the endpoint comparison, which a path with a fold must
    # make strict when the coroots are positively free
    return not (path.fold_times() and positively_free_coroots(data) and not any(diff))


# ---------------------------------------------------------------------------
# combined report

@dataclass(frozen=True)
class FoldVerdict:
    time: Fraction
    position: Vec
    witness: ChainWitness | NoChain | RefutedWithinBound


@dataclass(frozen=True)
class HeckeReport:
    billiard: BilliardReport
    folds: tuple[FoldVerdict, ...]
    dominance: bool

    @property
    def verified(self) -> bool:
        return (self.billiard.ok and self.dominance
                and all(isinstance(f.witness, ChainWitness) for f in self.folds))


def verify_path(data: KacMoodyData, path: PiecewisePath, shape,
                chamber: int, height_bound: int = 9,
                word_bound: int = 6, max_reflections: int = 3) -> HeckeReport:
    """Full verification: billiard property, a chain per fold, dominance.
    ``height_bound``, ``word_bound`` and ``max_reflections`` are unused: the
    fold and the Tits cone bound each search (see verify_fold, is_billiard)."""
    bil = is_billiard(data, path, shape)
    folds = []
    for k in path.fold_times():
        w = verify_fold(data, path.positions[k], path.velocity(k - 1),
                        path.velocity(k), chamber)
        folds.append(FoldVerdict(path.breakpoints[k], path.positions[k], w))
    dom = check_dominance(data, path, chamber)
    return HeckeReport(bil, tuple(folds), dom)


def standard_chamber(data: KacMoodyData, sign: int) -> int:
    """The chamber sign * C_f, as the sign +1 or -1 that the fold and
    dominance checks take; the same for every datum."""
    return 1 if sign > 0 else -1
