"""Small exact linear algebra over Fraction: elimination, kernels, and
Fourier-Motzkin feasibility for weak rational inequality systems: the
one elimination of each kind that ``kmdata`` and ``hecke`` decide with.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]


def rref(rows) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Q and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r], strict=True)]
        pivots.append(c)
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows) -> list[Vec]:
    """Basis of the right kernel {v : A v = 0}."""
    m, pivots = rref(rows)
    if not m:
        return []
    ncols = len(m[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Fourier-Motzkin
#
# An inequality is (coeffs, const) meaning  sum coeffs[j] x_j >= const.

Ineq = tuple[Vec, Fraction]


def _normalize(ineq: Ineq) -> Ineq:
    coeffs, const = ineq
    nz = [abs(x) for x in coeffs if x != 0]
    if not nz:
        return coeffs, const
    scale = max(nz)
    return tuple(x / scale for x in coeffs), const / scale


def fm_feasible(ineqs: list[Ineq]) -> bool:
    """Feasibility of a finite system of weak inequalities over Q: eliminate
    x_0, x_1, ... in turn and test the variable-free remainder."""
    nvars = len(ineqs[0][0]) if ineqs else 0
    system = {_normalize(iq) for iq in ineqs}
    for var in range(nvars):
        pos, neg, new = [], [], set()
        for coeffs, const in system:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, const))
            elif c < 0:
                neg.append((coeffs, const))
            else:
                new.add((coeffs, const))
        for cp, kp in pos:
            for cn, kn in neg:
                # a x_var >= ... and -b x_var >= ... combine to eliminate x_var
                a, b = cp[var], -cn[var]
                coeffs = tuple(b * x + a * y for x, y in zip(cp, cn, strict=True))
                new.add(_normalize((coeffs, b * kp + a * kn)))
        system = new
    return all(const <= 0 for _, const in system)


def combination_system(vectors: Sequence[Sequence], target: Sequence) -> list[Ineq]:
    """Inequalities in c for: c >= 0 and sum c_i vectors[i] = target."""
    k = len(vectors)
    ineqs: list[Ineq] = []
    for row, t in zip(zip(*vectors, strict=True), target, strict=True):
        row, t = tuple(Fraction(x) for x in row), Fraction(t)
        ineqs += [(row, t), (tuple(-x for x in row), -t)]
    for j in range(k):
        ineqs.append((tuple(Fraction(int(i == j)) for i in range(k)), Fraction(0)))
    return ineqs
