"""Lattice model of the tree's vertex set: full-rank O-lattices in F^2 up
to scaling, with the graph distance computed from elementary divisors
(Smith normal form over the valuation ring, read off the entry and
determinant valuations).  Used as an independent oracle for the
canonical-coordinates distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Mat2, matrix_valuation, tail_reduce
from .tree import TreePoint


class SingularLattice(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    """O-span of the columns of an invertible basis matrix."""

    basis: Mat2

    def __post_init__(self) -> None:
        if self.basis.det().is_zero():
            raise SingularLattice("basis columns are dependent")


def vertex_to_lattice(v: TreePoint) -> Lattice:
    """Lattice class of a vertex: x_plus(tail) applied to O + O pi^x."""
    if not v.is_vertex():
        raise SingularLattice(f"{v} is not a vertex")
    cfg = v.config
    x = int(v.x)
    pix = cfg.uniformizer_pow(x)
    return Lattice(Mat2(cfg.one(), v.tail * pix, cfg.zero(), pix))


def smith_valuations(m: Mat2) -> tuple[int, int]:
    """Valuations (v1, v2), v1 <= v2, of the elementary divisors of an
    invertible 2x2 matrix over the valuation ring's fraction field: v1 is
    the least entry valuation (the gcd of the 1x1 minors) and v1 + v2 the
    valuation of the determinant.
    """
    det = m.det()
    if det.is_zero():
        raise SingularLattice("singular matrix has no elementary divisors")
    v1 = matrix_valuation(m)
    return v1, det.valuation() - v1


def lattice_distance(l1: Lattice, l2: Lattice) -> int:
    """|v1 - v2| for the elementary divisors of the change of basis."""
    n = l2.basis.inverse() * l1.basis
    v1, v2 = smith_valuations(n)
    return abs(v1 - v2)


def column_normal_form(lat: Lattice) -> Mat2:
    """Canonical basis of the lattice class.

    Triangularize by column operations over O, normalize the pivots to
    uniformizer powers, reduce the off-diagonal entry modulo the first
    pivot, and scale the class so the first pivot is 1.
    """
    cfg = lat.basis.a.config
    b11, b12 = lat.basis.a, lat.basis.b
    b21, b22 = lat.basis.c, lat.basis.d
    # kill the bottom-left entry
    if not b21.is_zero():
        if b22.is_zero() or b21.valuation() <= b22.valuation():
            # col2 -= (b22/b21) col1 zeroes b22, then swap
            f = b22 / b21
            b12, b22 = b12 - f * b11, cfg.zero()
            b11, b12 = b12, b11
            b21, b22 = b22, b21
        else:
            f = b21 / b22
            b11, b21 = b11 - f * b12, cfg.zero()
    # normalize the pivots to uniformizer powers: divide column 2 by the unit
    # of b22 (column 1 by that of b11 leaves b12 alone)
    v1, v2 = b11.valuation(), b22.valuation()
    b12 = b12 / (b22 / cfg.uniformizer_pow(v2))
    # reduce the off-diagonal entry modulo b11 * O
    b12 = tail_reduce(b12, v1).value
    # scale the class: first pivot becomes 1
    return Mat2(cfg.one(), b12 * cfg.uniformizer_pow(-v1),
                cfg.zero(), cfg.uniformizer_pow(v2 - v1))
