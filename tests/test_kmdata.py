"""Generalized Cartan matrices: axioms, blocks, trichotomy, realizations."""

from fractions import Fraction

import pytest

from masure.cli import _data_arg
from masure.kmdata import (
    Decomposable,
    KacMoodyData,
    KMClass,
    NotKacMoody,
    RootVector,
    affine_sl2_data,
    classify,
    data_to_json,
    decompose,
    delta_coefficients,
    minimal_realization,
    rank2_data,
    validate,
    validate_data,
)
from masure.linalg import kernel_basis, rank


class TestValidate:
    def test_valid(self):
        m = validate([[2, -1], [-1, 2]])
        assert m[0, 1] == -1

    def test_asymmetric_zero(self):
        with pytest.raises(NotKacMoody) as exc:
            validate([[2, -1], [0, 2]])
        assert exc.value.axiom == 3

    def test_positive_offdiag(self):
        with pytest.raises(NotKacMoody) as exc:
            validate([[2, 1], [1, 2]])
        assert exc.value.axiom == 2

    def test_bad_diagonal(self):
        with pytest.raises(NotKacMoody) as exc:
            validate([[1]])
        assert exc.value.axiom == 1

    def test_not_square(self):
        with pytest.raises(ValueError):
            validate([[2, -1]])


class TestDecompose:
    def test_connected(self):
        assert decompose(validate([[2, -1], [-1, 2]])) == [(0, 1)]

    def test_two_blocks(self):
        assert decompose(validate([[2, 0], [0, 2]])) == [(0,), (1,)]

    def test_chain(self):
        m = validate([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert decompose(m) == [(0, 1, 2)]


class TestClassify:
    def test_affine(self):
        assert classify(validate([[2, -2], [-2, 2]])) == KMClass.AFFINE

    def test_indefinite(self):
        assert classify(validate([[2, -1], [-5, 2]])) == KMClass.INDEFINITE

    def test_a1(self):
        assert classify(validate([[2]])) == KMClass.FINITE

    def test_decomposable_rejected(self):
        with pytest.raises(Decomposable):
            classify(validate([[2, 0], [0, 2]]))

    def test_size2_closed_form(self):
        for a in range(1, 13):
            for b in range(1, 13):
                if a * b > 12:
                    continue
                got = classify(validate([[2, -a], [-b, 2]]))
                want = (KMClass.FINITE if a * b <= 3
                        else KMClass.AFFINE if a * b == 4
                        else KMClass.INDEFINITE)
                assert got == want

    def test_transpose_agreement(self):
        mats = [[[2, -1], [-3, 2]], [[2, -2], [-2, 2]],
                [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                [[2, -2, 0], [-1, 2, -1], [0, -1, 2]]]
        for rows in mats:
            m = validate(rows)
            assert classify(m) == classify(m.transpose())

    def test_rank_invariants(self):
        fin = validate([[2, -1], [-1, 2]])
        assert rank([list(r) for r in fin.entries]) == 2  # det != 0
        aff = validate([[2, -2], [-2, 2]])
        assert rank([list(r) for r in aff.entries]) == 1  # corank exactly 1
        kern = kernel_basis([list(r) for r in aff.entries])
        assert len(kern) == 1


class TestRealization:
    def test_a1_minimal(self):
        d = minimal_realization(validate([[2]]))
        assert d.rank == 1
        assert d.simple_roots == ((2,),)
        assert d.simple_coroots == ((1,),)
        assert d.pair(d.simple_roots[0], d.simple_coroots[0]) == 2

    def test_affine_minimal(self):
        m = validate([[2, -2], [-2, 2]])
        d = minimal_realization(m)
        assert d.rank == 3  # 2n - rank = 4 - 1
        for i in range(2):
            for j in range(2):
                assert d.pair(d.simple_roots[j], d.simple_coroots[i]) == m[i, j]

    def test_roots_free(self):
        d = minimal_realization(validate([[2, -2], [-2, 2]]))
        assert rank([list(r) for r in d.simple_roots]) == 2

    def test_bad_user_data(self):
        with pytest.raises(ValueError):
            validate_data([[2]], 1, [(1,)], [(1,)])  # pairing 1 != 2

    def test_dependent_roots_rejected(self):
        # pairing holds but the two roots are proportional
        with pytest.raises(ValueError):
            validate_data([[2, -2], [-2, 2]], 1, [(2,), (-2,)], [(1,), (-1,)])

    def test_standard_affine_datum(self):
        d = affine_sl2_data()
        assert d.rank == 3
        delta = delta_coefficients(d)
        assert delta == (1, 1)
        # delta vanishes on coroots, is 1 on the scaling direction
        dv = tuple(a + b for a, b in zip(d.simple_roots[0], d.simple_roots[1]))
        assert dv == (0, 0, 1)

    def test_non_cofree_accepted(self):
        # free roots, dependent coroots: accepted (cofreeness not required)
        d = validate_data([[2, -2], [-2, 2]], 2, [(2, 0), (-2, 1)], [(1, 0), (-1, 0)])
        assert isinstance(d, KacMoodyData)

    def test_non_free_rejected(self):
        # dependent roots: rejected
        with pytest.raises(ValueError):
            validate_data([[2, -2], [-2, 2]], 1, [(2,), (-2,)], [(1,), (-1,)])


class TestHeight:
    def test_examples(self):
        assert RootVector((1, 2)).height() == 3
        assert RootVector((0, 0)).height() == 0
        assert RootVector((0, -1)).height() == -1


def test_json_roundtrip():
    for data in (affine_sl2_data(), rank2_data(1, 5), minimal_realization(validate([[2]]))):
        text = data_to_json(data)
        back = _data_arg(text)
        assert back == data
        assert data_to_json(back) == text


def test_json_matrix_only():
    d = _data_arg('{"matrix": [[2,-1],[-1,2]]}')
    assert d.rank == 2
