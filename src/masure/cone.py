"""Tits cone membership with certificates, prenilpotent pairs and closed
root intervals.

Membership certificates are exact.  Greedy normalization handles every
vector of the cone.  Outside it, one certificate serves every type: a ray
c of {c >= 0, A c <= 0} (``kmdata.imaginary_rays``) gives phi = sum c_j
alpha_j >= 0 on the W-stable Tits cone (Kac, Infinite-dimensional Lie
algebras, Prop. 3.12, applied to -phi), so phi < 0 at a greedy iterate
refutes v.  It reads only A and p_i = alpha_i(v), so the verdict is the
same in every realization.  Other vectors report Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kmdata import KacMoodyData, RootVector, imaginary_rays, simple_root_vector
from .weyl import (
    RealRoot,
    WeylElement,
    _right_q,
    all_elements_up_to_length,
    inversion_set,
    reflection,
    simple_reflect,
    weyl_element,
)


class ConeError(ValueError):
    pass


class PairNotPrenilpotent(ConeError):
    pass


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class InCone:
    w: WeylElement          # w.v is the dominant image
    image: tuple            # in the closure of the fundamental chamber
    steps: int


@dataclass(frozen=True)
class NotInCone:
    reason: str
    witness: object = None


@dataclass(frozen=True)
class Unknown:
    steps: int


Certificate = InCone | NotInCone | Unknown


def default_cap(v) -> int:
    return 10 * (1 + sum(abs(Fraction(x).numerator) + Fraction(x).denominator for x in v))


RAY_REASON = "sum c_j alpha_j < 0 at a greedy iterate, for a ray c of {c >= 0, A c <= 0}"


def normalize_to_dominant(data: KacMoodyData, v, cap: int | None = None) -> Certificate:
    """Greedily reflect at the smallest negative simple root until dominant,
    refuting v at the first iterate where c.p < 0 for a ray c with A c != 0,
    with the witness (c, step).  Inside the Tits cone the run terminates;
    when the cap runs out, the rays with A c = 0 may still refute v."""
    vv = tuple(Fraction(x) for x in v)
    if cap is None:
        cap = default_cap(vv)
    if cap < 1:
        raise ConeError("cap must be >= 1")
    return _greedy(data, vv, cap) or _refute(data, vv) or Unknown(cap)


def _greedy(data: KacMoodyData, cur: tuple, cap: int) -> InCone | NotInCone | None:
    """The greedy run on cur; None when it is undecided after cap reflections."""
    a = data.matrix.entries
    rays = imaginary_rays(data.matrix)[0]
    p, word = _chamber_coords(data, cur), []
    for step in range(cap + 1):
        ray = next((c for c in rays if _dot(c, p) < 0), None)
        if ray is not None:
            return NotInCone(RAY_REASON, (ray, step))
        i = next((i for i, x in enumerate(p) if x < 0), None)
        if i is None:
            return InCone(weyl_element(data, tuple(word)), cur, step)
        cur = simple_reflect(data, i, cur)
        # alpha_j(r_i v) = alpha_j(v) - alpha_i(v) a_ij
        p = tuple(x - p[i] * y for x, y in zip(p, a[i]))
        word.insert(0, i)
    return None


def _chamber_coords(data: KacMoodyData, v) -> tuple[Fraction, ...]:
    return tuple(data.pair(root, v) for root in data.simple_roots)


def _dot(c, p):
    return sum(x * y for x, y in zip(c, p))


def _refute(data: KacMoodyData, v) -> NotInCone | None:
    """A ray c with A c = 0 spans a W-invariant phi (delta of an affine
    block): phi(v) < 0 refutes v, and so does phi(v) = 0 with some p_j != 0
    where c_j != 0.  _greedy leaves these rays to the cap, as the delta
    criterion was: read first, they end the whole-cap runs on affine data, a
    speed-up that waits for a benchmark whose peak RSS does not grow with
    its query count."""
    p = _chamber_coords(data, v)
    for c in imaginary_rays(data.matrix)[1]:
        phi = _dot(c, p)
        if phi < 0:
            return NotInCone(RAY_REASON, (c, 0))
        if phi == 0 and any(x != 0 for x, y in zip(p, c) if y):
            return NotInCone("delta(v) = 0 but v is not inessential", (c, 0))
    return None


# ---------------------------------------------------------------------------
# prenilpotent pairs

@dataclass(frozen=True)
class Prenilpotent:
    to_positive: WeylElement   # sends both roots into Delta_+
    to_negative: WeylElement   # sends both roots into Delta_-


@dataclass(frozen=True)
class NotPrenilpotent:
    reason: str


@dataclass(frozen=True)
class UnknownWithinBound:
    bound: int


def search_prenilpotent(data: KacMoodyData, alpha: RealRoot, beta: RealRoot,
                        max_len: int) -> Prenilpotent | UnknownWithinBound:
    """Pure word search: conclusive only when both witnesses are found.
    The reference that prenilpotent_pair is checked against.

    One BFS pass over the elements of length <= max_len keeps the first
    that sends both roots into Delta_+ and the first that sends both into
    Delta_-, and stops when it holds both.
    """
    wp = wn = None
    for w in all_elements_up_to_length(data, max_len):
        images = (w.act_root(alpha.root), w.act_root(beta.root))
        if wp is None and all(v.is_positive() for v in images):
            wp = w
        elif wn is None and all(v.is_negative() for v in images):
            wn = w
        if wp is not None and wn is not None:
            return Prenilpotent(wp, wn)
    return UnknownWithinBound(max_len)


def prenilpotent_pair(data: KacMoodyData, alpha: RealRoot, beta: RealRoot,
                      bound: int = 8) -> Prenilpotent | NotPrenilpotent:
    """With ab = alpha(beta^vee) and ba = beta(alpha^vee), the pair is not
    prenilpotent iff ab < 0 and ab * ba >= 4; witnesses come from D =
    <r_alpha, r_beta>.  If ab * ba < 4, D is finite of order 2m and fixes a
    point of the open Tits cone (a point of the cone is interior iff its
    stabilizer is finite: Kac, Infinite-dimensional Lie algebras, Prop.
    3.12); the D-images of the fundamental chamber fill the 2m sectors
    around it, so the words of length <= m from either side give every sign
    pattern.  Otherwise only ab > 0 is prenilpotent, and one reflection is
    enough: for alpha, beta > 0, beta - ba alpha and alpha - ab beta are not
    both positive (else alpha >= ab ba alpha >= 4 alpha); for alpha > 0 >
    beta, r_beta sends both roots into Delta_+ and r_alpha both into
    Delta_-.  The rule reads only A and the pairings, so it holds in every
    realization and rank.  ``bound`` is unused: nothing is searched for.
    """
    ab = data.eval_root(alpha.root, beta.coroot)
    ba = data.eval_root(beta.root, alpha.coroot)
    if ab < 0 and ab * ba >= 4:
        return NotPrenilpotent(f"alpha(beta^vee) = {ab} and beta(alpha^vee) = {ba}: "
                               "negative, with product >= 4")
    m = {0: 2, 1: 3, 2: 4, 3: 6}.get(ab * ba, 1)  # |D| = 2m when ab * ba < 4
    refl = (reflection(data, alpha), reflection(data, beta))
    # (word, images of alpha and beta) by length; walk[t + 1] extends walk[max(t - 1, 0)]
    walk = [((), (alpha.root, beta.root))]
    for t in range(2 * m):
        r = refl[(t + t // 2) % 2]
        word, images = walk[max(t - 1, 0)]
        walk.append((r.word + word, tuple(r.act_root(v) for v in images)))
    witnesses = [next((_shortened(data, word, images, sign) for word, images in walk
                       if all(sign(v) for v in images)), None)
                 for sign in (RootVector.is_positive, RootVector.is_negative)]
    if None in witnesses:  # pragma: no cover - the walk reaches every sign pattern
        raise ConeError(f"no witness among the {len(walk)} words of <r_alpha, r_beta>")
    return Prenilpotent(*witnesses)


def _shortened(data: KacMoodyData, word, images, sign) -> WeylElement:
    """w = word, reduced, less left descents r_i whose removal keeps each
    w(gamma) in sign: the leading letter first, then the others by index.
    r_i is a left descent iff w^-1(alpha_i), column i of the action of
    w^-1 on roots, is negative."""
    word = weyl_element(data, word).word
    inv_q = weyl_element(data, tuple(reversed(word))).q_mat
    while True:
        for i in word[:1] + tuple(range(data.n)):
            if not all(row[i] <= 0 for row in inv_q):
                continue
            alpha_i = simple_root_vector(data.n, i)
            moved = [v - alpha_i.scale(_dot(data.matrix.entries[i], v.coeffs)) for v in images]
            if all(sign(v) for v in moved):
                word = word[1:] if word[:1] == (i,) else weyl_element(data, (i,) + word).word
                images, inv_q = moved, _right_q(data, inv_q, i)
                break
        else:
            return weyl_element(data, word)


def closed_interval(data: KacMoodyData, alpha: RealRoot, beta: RealRoot,
                    bound: int = 8) -> list[RootVector]:
    """[alpha, beta] = {alpha, beta} plus the real roots p*alpha + q*beta
    with p, q >= 1.  Droppable candidates are bounded through the witness
    pair: every combination lands in Inv(w_neg w_pos^{-1}).  ``bound`` is
    unused, as in prenilpotent_pair."""
    verdict = prenilpotent_pair(data, alpha, beta)
    if isinstance(verdict, NotPrenilpotent):
        raise PairNotPrenilpotent(verdict.reason)
    if alpha.root == beta.root:
        return [alpha.root]
    out = [alpha.root, beta.root]
    # p*alpha + q*beta is a real root iff its image under the positivity
    # witness lies in Inv(w_neg w_pos^{-1}): the image is a positive
    # combination of two positive roots and the negativity witness sends it
    # negative, and conversely every inversion pulls back to a real root.
    wmix = verdict.to_negative * verdict.to_positive.inverse()
    inv_coords = {r.root.coeffs for r in inversion_set(data, wmix)}
    hmax = max((sum(c) for c in inv_coords), default=0)
    wa = verdict.to_positive.act_root(alpha.root)
    wb = verdict.to_positive.act_root(beta.root)
    ha, hb = wa.height(), wb.height()
    if min(ha, hb) <= 0:  # pragma: no cover - witnesses guarantee positivity
        raise ConeError("positivity witness failed")
    p = 1
    while p * ha + hb <= hmax:
        q = 1
        while p * ha + q * hb <= hmax:
            if (wa.scale(p) + wb.scale(q)).coeffs in inv_coords:
                out.append(alpha.root.scale(p) + beta.root.scale(q))
            q += 1
        p += 1
    # alpha != +-beta are linearly independent, so every p*alpha + q*beta is new
    return sorted(out, key=lambda v: (v.height(), v.coeffs))
