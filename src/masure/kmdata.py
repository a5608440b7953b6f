"""Generalized Cartan matrices and root data.

Validation of the three matrix axioms, decomposition into indecomposable
blocks, the finite/affine/indefinite trichotomy by the sign of the solution
of A u = (1, ..., 1) or of the kernel of A (Kac, Thm 4.3), the extreme rays
of {c >= 0, A c <= 0}, and free realizations (lattices plus simple
roots/coroots with the compatibility pairing).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .linalg import kernel_basis, rank, rref


class KMError(ValueError):
    pass


class NotKacMoody(KMError):
    def __init__(self, axiom: int, i: int, j: int, message: str):
        super().__init__(f"axiom {axiom} violated at ({i},{j}): {message}")
        self.axiom = axiom
        self.i = i
        self.j = j


class Decomposable(KMError):
    pass


class KMClass(Enum):
    FINITE = "finite"
    AFFINE = "affine"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class KacMoodyMatrix:
    """Integer matrix with 2's on the diagonal, non-positive off-diagonal
    entries and a symmetric zero pattern."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def transpose(self) -> "KacMoodyMatrix":
        n = self.n
        return KacMoodyMatrix(tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)))

    def submatrix(self, idx: tuple[int, ...]) -> "KacMoodyMatrix":
        return KacMoodyMatrix(tuple(tuple(self.entries[i][j] for j in idx) for i in idx))

    # The type and the rays depend on the entries alone, and cone queries on
    # one datum ask for them on every call: each is computed once per matrix
    # and lives as long as it does.

    @cached_property
    def _kind(self) -> "KMClass":
        return _classify(self)

    @cached_property
    def _rays(self) -> tuple[tuple["Ray", ...], tuple["Ray", ...]]:
        return _imaginary_rays(self)


def validate(rows) -> KacMoodyMatrix:
    entries = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise KMError("matrix is not square")
    for i in range(n):
        if entries[i][i] != 2:
            raise NotKacMoody(1, i, i, f"diagonal entry {entries[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if entries[i][j] > 0:
                raise NotKacMoody(2, i, j, f"off-diagonal entry {entries[i][j]} > 0")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise NotKacMoody(3, i, j, "zero pattern is not symmetric")
    return KacMoodyMatrix(entries)


def decompose(a: KacMoodyMatrix) -> list[tuple[int, ...]]:
    """Connected components of i ~ j iff a[i][j] != 0, as sorted index tuples."""
    n = a.n
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and a[i, j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def classify(a: KacMoodyMatrix) -> KMClass:
    """Trichotomy for an indecomposable matrix (Kac, Infinite-dimensional
    Lie algebras, Thm 4.3): finite iff some u > 0 has A u > 0, affine iff
    corank 1 with some u > 0 in the kernel, indefinite otherwise.

    A finite A has A^-1 > 0, so it is the invertible A whose solution of
    A u = (1, ..., 1) is positive; an affine A is the singular one whose
    kernel is a line through a positive vector.
    """
    return a._kind


def _classify(a: KacMoodyMatrix) -> KMClass:
    if len(decompose(a)) != 1:
        raise Decomposable("classification requires an indecomposable matrix")
    n = a.n
    m, pivots = rref([row + (1,) for row in a.entries])
    if pivots == list(range(n)):
        return KMClass.FINITE if all(row[n] > 0 for row in m) else KMClass.INDEFINITE
    kernel = kernel_basis(a.entries)  # a 1 on the free column: a positive line gives u > 0
    if len(kernel) == 1 and all(x > 0 for x in kernel[0]):
        return KMClass.AFFINE
    return KMClass.INDEFINITE


@dataclass(frozen=True)
class RootVector:
    """Element of the root lattice Q in simple-root coordinates."""

    coeffs: tuple[int, ...]

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(x + y for x, y in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(x - y for x, y in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-x for x in self.coeffs))

    def scale(self, k: int) -> "RootVector":
        return RootVector(tuple(k * x for x in self.coeffs))

    def height(self) -> int:
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def is_positive(self) -> bool:
        """All coordinates >= 0 and not zero."""
        return all(x >= 0 for x in self.coeffs) and not self.is_zero()

    def is_negative(self) -> bool:
        return all(x <= 0 for x in self.coeffs) and not self.is_zero()

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.coeffs) + ")"


def simple_root_vector(n: int, i: int) -> RootVector:
    return RootVector(tuple(1 if j == i else 0 for j in range(n)))


@dataclass(frozen=True)
class KacMoodyData:
    """Matrix plus a free realization: dual lattices X, Y of rank ``rank``,
    simple roots as integer covectors on Y, simple coroots as integer
    vectors in Y, pairing alpha_j(alpha_i^vee) = a[i][j]."""

    matrix: KacMoodyMatrix
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    simple_coroots: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.matrix.n

    def pair(self, root_covector: tuple, y_vec: tuple) -> Fraction:
        """Evaluate a covector on a vector of Y tensor Q."""
        return sum((Fraction(a) * Fraction(b) for a, b in zip(root_covector, y_vec, strict=True)),
                   start=Fraction(0))

    def root_covector(self, v: RootVector) -> tuple[Fraction, ...]:
        """Covector on Y of the lattice element sum v_i alpha_i."""
        out = [Fraction(0)] * self.rank
        for i, c in enumerate(v.coeffs):
            if c:
                for k in range(self.rank):
                    out[k] += c * self.simple_roots[i][k]
        return tuple(out)

    def eval_root(self, v: RootVector, y_vec: tuple) -> Fraction:
        return self.pair(self.root_covector(v), y_vec)

    # Every fold search and dominance test on one datum asks for the coroot
    # frame: it is computed once per datum and lives as long as it does.

    @cached_property
    def _coroot_frame(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None:
        """(e, L, N) with integer rows, L H = e 1 and N H = 0, where the
        columns of H are the simple coroots, read off one rref of [H | 1];
        None when the coroots are dependent."""
        n, r = self.n, self.rank
        m, pivots = rref([[h[k] for h in self.simple_coroots] + [int(k == j) for j in range(r)]
                          for k in range(r)])
        if pivots[:n] != list(range(n)):
            return None
        e = math.lcm(*(x.denominator for row in m for x in row))
        return e, *(tuple(tuple(int(x * e) for x in row[n:]) for row in rows)
                    for rows in (m[:n], m[n:]))

    @property
    def independent_coroots(self) -> bool:
        return self._coroot_frame is not None

    def coroot_coordinates(self, y_vec: tuple) -> tuple[Fraction, ...] | None:
        """The c with y_vec = sum c_i alpha_i^vee, or None when y_vec is off
        the span of the simple coroots, which must be independent."""
        e, left, annihilator = self._coroot_frame
        if any(sum(x * y for x, y in zip(row, y_vec, strict=True)) for row in annihilator):
            return None
        return tuple(Fraction(sum(x * y for x, y in zip(row, y_vec, strict=True))) / e
                     for row in left)


def validate_data(matrix, rank_, simple_roots, simple_coroots) -> KacMoodyData:
    a = validate(matrix) if not isinstance(matrix, KacMoodyMatrix) else matrix
    roots = tuple(tuple(int(x) for x in r) for r in simple_roots)
    coroots = tuple(tuple(int(x) for x in r) for r in simple_coroots)
    n = a.n
    if len(roots) != n or len(coroots) != n:
        raise KMError("need one simple root and one simple coroot per index")
    for fam in (roots, coroots):
        for r in fam:
            if len(r) != rank_:
                raise KMError(f"vector {r} does not have length {rank_}")
    for i in range(n):
        for j in range(n):
            pairing = sum(roots[j][k] * coroots[i][k] for k in range(rank_))
            if pairing != a[i, j]:
                raise KMError(
                    f"pairing alpha_{j}(alpha_{i}^vee) = {pairing} != a[{i}][{j}] = {a[i, j]}"
                )
    if rank(roots) != n:
        raise KMError("simple roots are not linearly independent")
    return KacMoodyData(a, rank_, roots, coroots)


def minimal_realization(a: KacMoodyMatrix) -> KacMoodyData:
    """Standard minimal free (and cofree) realization, rank 2n - rank(A).

    Coroots are the first n standard basis vectors of Z^r; the covector of
    alpha_j is column j of A extended by rows of an identity block on the
    non-pivot columns, which makes the roots independent.
    """
    n = a.n
    pivots = rref(a.entries)[1]
    free_cols = [c for c in range(n) if c not in pivots]
    r = n + len(free_cols)
    coroots = tuple(tuple(1 if k == i else 0 for k in range(r)) for i in range(n))
    roots = []
    for j in range(n):
        cov = [a[i, j] for i in range(n)]
        cov += [1 if j == c else 0 for c in free_cols]
        roots.append(tuple(cov))
    return validate_data(a, r, tuple(roots), coroots)


def affine_sl2_data() -> KacMoodyData:
    """The standard rank-3 realization of [[2,-2],[-2,2]].

    Y has basis (coroot of the finite node, central element c, scaling
    element d); index 0 is the affine node, so delta = alpha_0 + alpha_1
    is the covector (0, 0, 1) and d = (0, 0, 1) has delta(d) = 1.
    """
    a = validate([[2, -2], [-2, 2]])
    roots = ((-2, 0, 1), (2, 0, 0))
    coroots = ((-1, 1, 0), (1, 0, 0))
    return validate_data(a, 3, roots, coroots)


def finite_a1_data() -> KacMoodyData:
    return minimal_realization(validate([[2]]))


def finite_a2_data() -> KacMoodyData:
    return minimal_realization(validate([[2, -1], [-1, 2]]))


def rank2_data(a: int, b: int) -> KacMoodyData:
    """Minimal realization of [[2,-a],[-b,2]]."""
    return minimal_realization(validate([[2, -a], [-b, 2]]))


Ray = tuple[int, ...]

# The largest indefinite block whose rays are enumerated when A^-1 <= 0
# fails, from C(2m, m - 1) kernels: 792 at m = 6 take 0.45 s, 3003 at m = 7
# 2.4 s (off-diagonal -3, 2-core x86-64 VM, Python 3.11.7).  A larger such
# block gives no ray.
RAYS_MAX_BLOCK = 6


def imaginary_rays(a: KacMoodyMatrix) -> tuple[tuple[Ray, ...], tuple[Ray, ...]]:
    """The extreme rays of {c >= 0, A c <= 0}, the chamber side of the
    imaginary cone (Kac, 5.3), as sorted primitive integer vectors, split into
    those with A c != 0 and the W-invariant ones with A c = 0.  By Kac, Thm
    4.3, a finite block has none, an affine one only delta, with A c = 0, and
    an indefinite one only rays with A c != 0."""
    return a._rays


def _imaginary_rays(a: KacMoodyMatrix) -> tuple[tuple[Ray, ...], tuple[Ray, ...]]:
    moving, invariant = set(), set()
    for comp in decompose(a):
        block = a.submatrix(comp)
        kind = classify(block)
        if kind != KMClass.FINITE:
            rays = invariant if kind == KMClass.AFFINE else moving
            for c in _block_rays(block, kind):
                scale = math.lcm(*(x.denominator for x in c))
                ray = [0] * a.n
                for i, x in zip(comp, c):
                    ray[i] = int(x * scale)
                g = math.gcd(*ray)
                rays.add(tuple(x // g for x in ray))
    return tuple(sorted(moving)), tuple(sorted(invariant))


def _block_rays(block: KacMoodyMatrix, kind: KMClass) -> list[tuple[Fraction, ...]]:
    """The extreme rays of an affine or indefinite block, unscaled.  When A
    is invertible with A^-1 <= 0, as for symmetrizable hyperbolic A, {A c <=
    0} = {-A^-1 y : y >= 0} lies in c >= 0, so its rays are the columns of
    -A^-1: one inversion at any size.  Otherwise each ray is the kernel of
    m - 1 of the 2m constraints that meets all 2m."""
    m = block.n
    inverse, pivots = rref([row + tuple(int(i == j) for j in range(m))
                            for i, row in enumerate(block.entries)])
    if pivots[:m] == list(range(m)) and all(x <= 0 for row in inverse for x in row[m:]):
        return [tuple(-row[m + j] for row in inverse) for j in range(m)]
    # one row g per constraint g.c >= 0: c_i >= 0, and -(A c)_i >= 0
    rows = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    rows += [tuple(-x for x in row) for row in block.entries]
    tight_sets = []
    if kind == KMClass.AFFINE:  # the kernel of A, spanned by delta > 0
        tight_sets = [block.entries]
    elif m <= RAYS_MAX_BLOCK:
        tight_sets = itertools.combinations(rows, m - 1)
    rays = []
    for tight in tight_sets:
        basis = kernel_basis(tight)
        if len(basis) == 1:
            rays += [c for c in (basis[0], tuple(-x for x in basis[0]))
                     if all(sum(g * x for g, x in zip(row, c)) >= 0 for row in rows)]
    return rays

