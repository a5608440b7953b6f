"""Piecewise-affine path model and Hecke-path verification for any root
datum with integral value group.

A path is billiard when every one-sided velocity lies in the Weyl orbit
of the shape; a fold is verified by exhibiting a chain of reflections
r_{beta_1}, ..., r_{beta_k} carrying the incoming velocity to the
outgoing one, where each beta is negative on the reference chamber,
negative on the velocity it reflects, and takes an integer value on the
fold point (the fold sits on a wall of each beta).  Verification is a
bounded search: verdicts record the bounds used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cone import InCone, normalize_to_dominant
from .kmdata import KacMoodyData, finite_a1_data
from .linalg import combination_system, fm_feasible
from .weyl import (
    RealRoot,
    WeylElement,
    all_elements_up_to_length,
    enumerate_real_roots,
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


def _orbit_witness(data: KacMoodyData, lam: Vec, target: Vec, cap: int,
                   word_bound: int) -> WeylElement | None:
    """w with w.lam = target, via dominant representatives when certified,
    else a bounded direct search."""
    cl = normalize_to_dominant(data, lam, cap)
    ct = normalize_to_dominant(data, target, cap)
    if isinstance(cl, InCone) and isinstance(ct, InCone):
        if cl.image != ct.image:
            return None
        w = ct.w.inverse() * cl.w
        return w if w.act_y(lam) == target else None
    for w in all_elements_up_to_length(data, word_bound):
        if w.act_y(lam) == target:
            return w
    return None


def is_billiard(data: KacMoodyData, path: PiecewisePath, shape,
                word_bound: int = 6) -> BilliardReport:
    lam = _vec(shape)
    if all(x == 0 for x in lam):
        raise HeckeError("shape must be nonzero")
    cap = 4 * (word_bound + 1) + 40
    wits = []
    for v in path.velocities():
        wits.append(_orbit_witness(data, lam, v, cap, word_bound))
    return BilliardReport(all(w is not None for w in wits), tuple(wits))


# ---------------------------------------------------------------------------
# fold chains

@dataclass(frozen=True)
class ChainWitness:
    anchor: Vec
    roots: tuple[RealRoot, ...]
    velocities: tuple[Vec, ...]  # xi_0 .. xi_k


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


def admissible_roots(data: KacMoodyData, chamber: int, anchor,
                     height_bound: int) -> list[RealRoot]:
    """Real roots of |height| <= bound, negative on the chamber, with an
    integral value on the anchor; deterministic (height, coords) order."""
    a = _vec(anchor)
    out = []
    for pos in enumerate_real_roots(data, height_bound).roots:
        for beta in (pos, pos.negate()):
            if not _negative_on_chamber(beta, chamber):
                continue
            if data.eval_root(beta.root, a).denominator != 1:
                continue
            out.append(beta)
    out.sort(key=lambda r: (abs(r.height()), r.root.coeffs))
    return out


def verify_fold(data: KacMoodyData, anchor, xi_minus, xi_plus,
                chamber: int, height_bound: int = 9,
                max_reflections: int = 3) -> ChainWitness | RefutedWithinBound:
    """Breadth-first search for a chain carrying xi_minus to xi_plus.

    Shortest chain wins; ties resolve by the (height, coords) candidate
    order.
    """
    a = _vec(anchor)
    start, goal = _vec(xi_minus), _vec(xi_plus)
    if start == goal:
        return ChainWitness(a, (), (start,))
    cands = admissible_roots(data, chamber, a, height_bound)
    frontier: list[tuple[Vec, tuple[RealRoot, ...], tuple[Vec, ...]]] = [
        (start, (), (start,))
    ]
    seen = {start}
    for _ in range(max_reflections):
        nxt = []
        for cur, roots, vels in frontier:
            for beta in cands:
                if data.eval_root(beta.root, cur) >= 0:
                    continue
                img = tuple(reflect_vector(data, beta, cur))
                if img == goal:
                    return ChainWitness(a, roots + (beta,), vels + (img,))
                if img in seen:
                    continue
                seen.add(img)
                nxt.append((img, roots + (beta,), vels + (img,)))
        frontier = nxt
    return RefutedWithinBound(height_bound, max_reflections)


# ---------------------------------------------------------------------------
# dominance

def positively_free_coroots(data: KacMoodyData) -> bool:
    """No nonzero nonnegative combination of the coroots vanishes."""
    ineqs = combination_system(data.simple_coroots, (0,) * data.rank)
    ineqs.append(((Fraction(1),) * data.n, Fraction(1)))
    return not fm_feasible(ineqs)


def check_dominance(data: KacMoodyData, path: PiecewisePath, chamber_sign: int) -> bool:
    """One-sided velocities are monotone for the coroot-cone order:
    decreasing for the fundamental chamber, increasing for its opposite;
    plus the endpoint comparison with the displacement."""
    vels = path.velocities()
    sign = -1 if chamber_sign < 0 else 1
    for u, w in [*zip(vels, vels[1:]), (vels[0], path.displacement())]:
        diff = tuple(sign * (a - b) for a, b in zip(u, w, strict=True))
        if not fm_feasible(combination_system(data.simple_coroots, diff)):
            return False
    # diff is now the endpoint comparison
    is_segment = len(path.fold_times()) == 0
    if not is_segment and positively_free_coroots(data):
        if all(x == 0 for x in diff):
            return False
    return True


# ---------------------------------------------------------------------------
# combined report

@dataclass(frozen=True)
class FoldVerdict:
    time: Fraction
    position: Vec
    witness: ChainWitness | RefutedWithinBound


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
    """Full verification: billiard property, a chain per fold, dominance."""
    bil = is_billiard(data, path, shape, word_bound)
    folds = []
    for k in path.fold_times():
        w = verify_fold(data, path.positions[k], path.velocity(k - 1),
                        path.velocity(k), chamber, height_bound, max_reflections)
        folds.append(FoldVerdict(path.breakpoints[k], path.positions[k], w))
    dom = check_dominance(data, path, chamber)
    return HeckeReport(bil, tuple(folds), dom)


def standard_chamber(data: KacMoodyData, sign: int) -> int:
    """The chamber sign * C_f, as the sign +1 or -1 that the fold and
    dominance checks take; the same for every datum."""
    return 1 if sign > 0 else -1
