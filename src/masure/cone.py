"""Tits cone membership with certificates, vectorial faces, sphericity,
prenilpotent pairs and closed root intervals.

Membership certificates are exact.  Greedy normalization handles every
vector of the cone; outside it, type-specific witnesses decide for finite
type (vacuous), affine type (the delta criterion, A delta = 0) and data
whose W-invariant form is Lorentzian (``kmdata.lorentzian_form``:
symmetrizable hyperbolic type, which holds every rank-2 indefinite A).
Other vectors and types report Unknown.

Where the form exists, write (v|v) = p^T M p in the chamber coordinates
p_i = alpha_i(v).  The Tits cone lies in the closed nappe of {(v|v) <= 0}
that holds the fundamental chamber, on which (v|rho^vee) = p^T M 1 <= 0.
These tests read only A and the pairings, so they give the same verdict
in every realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kmdata import (
    KacMoodyData,
    KMClass,
    RootVector,
    classify,
    decompose,
    delta_coefficients,
    lorentzian_form,
    simple_root_vector,
)
from .weyl import (
    RealRoot,
    WeylElement,
    all_elements_up_to_length,
    inversion_set,
    length_and_reduce,
    reflection,
    simple_reflect,
    weyl_element,
)


class ConeError(ValueError):
    pass


class NotInTitsCone(ConeError):
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


def _neg_index(data: KacMoodyData, v) -> int | None:
    for i in range(data.n):
        if data.pair(data.simple_roots[i], v) < 0:
            return i
    return None


def normalize_to_dominant(data: KacMoodyData, v, cap: int | None = None) -> Certificate:
    """Greedily reflect at the smallest negative simple root until dominant.

    Inside the Tits cone the procedure terminates.  When the W-invariant
    form is Lorentzian, a spacelike v, or a v in the past nappe, is refuted
    before any reflection, with the form value as witness.  Otherwise, when
    the cap runs out, the affine delta criterion provides a checkable
    refutation, and other vectors get Unknown.
    """
    vv = tuple(Fraction(x) for x in v)
    if cap is None:
        cap = default_cap(vv)
    if cap < 1:
        raise ConeError("cap must be >= 1")
    form = lorentzian_form(data.matrix)
    if form is not None:
        p = _chamber_coords(data, vv)
        norm = _form_value(form, p, p)
        if norm > 0:
            return NotInCone("v is spacelike: (v|v) > 0", norm)
        nappe = _form_value(form, p, (1,) * data.n)
        if nappe > 0:
            return NotInCone("v lies in the past nappe: (v|rho^vee) > 0", nappe)
    return _greedy(data, vv, cap) or _refute(data, vv) or Unknown(cap)


def _greedy(data: KacMoodyData, v: tuple, cap: int) -> InCone | None:
    """The greedy run on v; None when it is not dominant after cap reflections."""
    cur = v
    word: list[int] = []
    for step in range(cap + 1):
        i = _neg_index(data, cur)
        if i is None:
            return InCone(weyl_element(data, tuple(word)), cur, step)
        cur = simple_reflect(data, i, cur)
        word.insert(0, i)
    return None


def _chamber_coords(data: KacMoodyData, v) -> tuple[Fraction, ...]:
    return tuple(data.pair(root, v) for root in data.simple_roots)


def _form_value(form, p, q) -> Fraction:
    """p^T form q."""
    return sum((x * c * y for x, row in zip(p, form) for c, y in zip(row, q)), start=Fraction(0))


def _refute(data: KacMoodyData, v) -> NotInCone | None:
    """The affine delta criterion against v; None when it does not apply."""
    delta = delta_coefficients(data)
    if delta is None:
        return None
    p = _chamber_coords(data, v)
    dv = sum(c * x for c, x in zip(delta, p))
    if dv < 0:
        return NotInCone("delta(v) < 0", dv)
    if dv == 0 and any(x != 0 for x in p):
        return NotInCone("delta(v) = 0 but v is not inessential", dv)
    return None


# ---------------------------------------------------------------------------
# faces

@dataclass(frozen=True)
class FaceDescriptor:
    """The face sign * w.F(J) with F(J) = {alpha_j = 0 on J, alpha_i > 0 off J}."""

    w: WeylElement
    subset: tuple[int, ...]
    sign: int  # +1 or -1


def face_of(data: KacMoodyData, v, cap: int | None = None) -> FaceDescriptor:
    for u, sign in ((v, +1), (tuple(-Fraction(x) for x in v), -1)):
        cert = normalize_to_dominant(data, u, cap)
        if isinstance(cert, InCone):
            j = tuple(i for i in range(data.n)
                      if data.pair(data.simple_roots[i], cert.image) == 0)
            return FaceDescriptor(cert.w.inverse(), j, sign)
    raise NotInTitsCone(f"no face certificate for {v}")


def is_spherical(data: KacMoodyData, subset) -> bool:
    """True iff every indecomposable block of the principal submatrix A_J is
    of finite type, i.e. the fixator <r_j : j in J> is finite."""
    idx = tuple(sorted(set(int(j) for j in subset)))
    if not idx:
        return True
    sub = data.matrix.submatrix(idx)
    for comp in decompose(sub):
        if classify(sub.submatrix(comp)) != KMClass.FINITE:
            return False
    return True


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
    """w = word, reduced, less the left letters r_i whose removal keeps each w(gamma) in sign."""
    _, word = length_and_reduce(data, word)
    k = 0
    for i in word:
        alpha_i = simple_root_vector(data.n, i)
        moved = [v - alpha_i.scale(sum(a * x for a, x in zip(data.matrix.entries[i], v.coeffs)))
                 for v in images]
        if not all(sign(v) for v in moved):
            break
        images, k = moved, k + 1
    return weyl_element(data, word[k:])


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
