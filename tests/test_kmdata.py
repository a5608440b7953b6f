"""Generalized Cartan matrices: axioms, blocks, trichotomy, realizations."""

import itertools
import json
import math

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
    decompose,
    finite_a2_data,
    imaginary_rays,
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
        delta = imaginary_rays(d.matrix)[1][0]
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
        text = json.dumps({
            "matrix": [list(row) for row in data.matrix.entries],
            "realization": {"rank": data.rank,
                            "simple_roots": [list(r) for r in data.simple_roots],
                            "simple_coroots": [list(r) for r in data.simple_coroots]},
        })
        assert _data_arg(text) == data


def test_json_matrix_only():
    d = _data_arg('{"matrix": [[2,-1],[-1,2]]}')
    assert d.rank == 2


# ---------------------------------------------------------------------------
# Kac's principal-minor criterion (Infinite-dimensional Lie algebras, 4.3 and
# 4.7), hyperbolic type (4.10) and symmetrizability (exercise 2.1), computed
# here from integer determinants, independently of classify and linalg.

def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _adjugate(m):
    n = len(m)
    return [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def _principal(m, idx):
    return [[m[i][j] for j in idx] for i in idx]


def kac_class(m) -> str:
    """For indecomposable m: finite iff every principal minor is positive,
    affine iff det m = 0 and every proper one is positive."""
    n = len(m)
    proper = [_det(_principal(m, idx)) for k in range(1, n)
              for idx in itertools.combinations(range(n), k)]
    if all(x > 0 for x in proper):
        full = _det(m)
        if full > 0:
            return "finite"
        if full == 0:
            return "affine"
    return "indefinite"


def is_hyperbolic(m) -> bool:
    """Indecomposable and indefinite, and every block of every proper
    principal submatrix is finite or affine."""
    n = len(m)
    if len(decompose(validate(m))) != 1 or kac_class(m) != "indefinite":
        return False
    for i in range(n):
        sub = _principal(m, [j for j in range(n) if j != i])
        if any(kac_class(_principal(sub, block)) == "indefinite"
               for block in decompose(validate(sub))):
            return False
    return True


def is_symmetrizable(m) -> bool:
    """a[i1][i2] a[i2][i3] ... a[ik][i1] equals the product around the
    reversed cycle, for every cycle of distinct indices."""
    n = len(m)
    for k in range(3, n + 1):
        for cyc in itertools.permutations(range(n), k):
            hops = list(zip(cyc, cyc[1:] + cyc[:1]))
            fwd, back = 1, 1
            for i, j in hops:
                fwd, back = fwd * m[i][j], back * m[j][i]
            if fwd != back:
                return False
    return True


def gcms(n: int, lowest: int = -3):
    """Every n x n GCM with off-diagonal entries >= lowest."""
    pairs = list(itertools.combinations(range(n), 2))
    values = [(0, 0)] + list(itertools.product(range(lowest, 0), repeat=2))
    for choice in itertools.product(values, repeat=len(pairs)):
        m = [[2] * n for _ in range(n)]
        for (i, j), (x, y) in zip(pairs, choice):
            m[i][j], m[j][i] = x, y
        yield m


GCMS_3 = [m for m in gcms(3) if len(decompose(validate(m))) == 1]
# the affine 2 x 2 and 3 x 3 GCMs with entries >= -4 and >= -3: A_1^(1), A_2^(2)
# and its transpose, and the 25 of rank 3 (twisted ones and C_2^(1) included)
AFFINE_GCMS = ([[[2, -a], [-b, 2]] for a, b in ((1, 4), (2, 2), (4, 1))]
               + [m for m in GCMS_3 if kac_class(m) == "affine"])
HYPERBOLIC_3 = [m for m in GCMS_3 if is_hyperbolic(m)]


def _hyperbolic_4() -> list:
    """The hyperbolic 4 x 4 GCMs with entries >= -3: every 3 x 3 principal
    submatrix has only finite and affine blocks, so extend those."""
    tame = [m for m in gcms(3)
            if all(kac_class(_principal(m, b)) != "indefinite" for b in decompose(validate(m)))]
    keys = {tuple(map(tuple, m)) for m in tame}
    values = [(0, 0)] + list(itertools.product(range(-3, 0), repeat=2))
    out = []
    for top in tame:
        for col in itertools.product(values, repeat=3):
            m = [row + [c] for row, (c, _) in zip(top, col)] + [[r for _, r in col] + [2]]
            if all(tuple(map(tuple, _principal(m, [j for j in range(4) if j != i]))) in keys
                   for i in range(3)) and is_hyperbolic(m):
                out.append(m)
    return out


HYPERBOLIC_4 = _hyperbolic_4()
SYMMETRIZABLE_HYPERBOLIC = [m for m in HYPERBOLIC_3 + HYPERBOLIC_4 if is_symmetrizable(m)]


def test_classify_matches_principal_minors():
    assert len(GCMS_3) == 972
    for m in GCMS_3:
        assert classify(validate(m)).value == kac_class(m), m


def test_classify_matches_principal_minors_4x4_sample():
    # every 7th indecomposable 4 x 4 GCM with entries >= -2, and the hyperbolic ones >= -3
    sample = [m for m in gcms(4, -2) if len(decompose(validate(m))) == 1][::7]
    assert len(sample) == 2158
    for m in sample + HYPERBOLIC_4:
        assert classify(validate(m)).value == kac_class(m), m


def test_delta_is_the_kernel_of_a():
    assert len(AFFINE_GCMS) == 28
    for m in AFFINE_GCMS:
        delta = imaginary_rays(validate(m))[1][0]
        assert all(x > 0 for x in delta) and math.gcd(*delta) == 1, m
        # delta vanishes on every simple coroot: sum_j a[i][j] delta_j = 0
        assert all(sum(x * d for x, d in zip(row, delta)) == 0 for row in m), m
    assert imaginary_rays(validate([[2, -1], [-4, 2]]))[1] == ((1, 2),)  # A_2^(2)
    c21 = validate([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])
    assert imaginary_rays(c21)[1] == ((1, 2, 1),)  # C_2^(1)
    assert imaginary_rays(finite_a2_data().matrix)[1] == ()


def test_hyperbolic_4_sample():
    assert len(HYPERBOLIC_4) == 915
    assert sum(map(is_symmetrizable, HYPERBOLIC_4)) == 645


# ---------------------------------------------------------------------------
# the extreme rays of {c >= 0, A c <= 0}

@pytest.mark.parametrize("rows, rays", [
    ([[2, -1], [-1, 2]], ()),
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], ((1, 1, 1),)),
    ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], ((1, 1, 0), (2, 2, 1), (3, 4, 2))),
    ([[2, -1], [-5, 2]], ((1, 2), (2, 5))),
    ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], ((1, 1, 1), (3, 4, 2), (3, 5, 4))),
    ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -2, 2]],
     ((0, 0, 1, 1), (0, 1, 2, 2), (0, 2, 4, 3), (1, 2, 3, 2), (1, 2, 3, 3))),
    ([[2, -2, 0], [-2, 2, 0], [0, 0, 2]], ((1, 1, 0),)),
    ([[2, -3, 0, 0], [-3, 2, 0, 0], [0, 0, 2, -1], [0, 0, -4, 2]],
     ((0, 0, 1, 2), (2, 3, 0, 0), (3, 2, 0, 0))),
], ids=["A2", "affine_A2", "pool hyperbolic", "rank2_1_5", "non-symmetrizable", "rank 4",
        "affine + A1", "hyperbolic + twisted affine"])
def test_ray_sets(rows, rays):
    moving, invariant = imaginary_rays(validate(rows))
    assert tuple(sorted(moving + invariant)) == rays
    # the W-invariant rays are those with A c = 0
    assert invariant == tuple(c for c in rays if not any(_apply(rows, c)))


def _apply(m, c) -> list:
    return [sum(a * x for a, x in zip(row, c)) for row in m]


def _enumerated_rays(m) -> tuple:
    """Test-local: the primitive c >= 0 with A c <= 0 that span the kernel of
    n - 1 of the 2n constraints c_i >= 0 and -(A c)_i >= 0, each kernel read
    off the signed maximal minors."""
    n = len(m)
    rows = [[int(i == j) for j in range(n)] for i in range(n)] + [[-x for x in r] for r in m]
    rays = set()
    for tight in itertools.combinations(rows, n - 1):
        c = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in tight]) for j in range(n)]
        for c in ([c, [-x for x in c]] if any(c) else []):
            if min(_apply(rows, c)) >= 0:
                rays.add(tuple(x // math.gcd(*c) for x in c))
    return tuple(sorted(rays))


def test_rays_match_the_enumeration():
    # the rays of a block with A^-1 <= 0 are read off one inversion, the
    # others enumerated; both agree with a test-local enumeration on every
    # indecomposable 3 x 3 GCM and every hyperbolic 4 x 4 one
    inverted = 0
    for m in GCMS_3 + HYPERBOLIC_4:
        moving, invariant = imaginary_rays(validate(m))
        assert tuple(sorted(moving + invariant)) == _enumerated_rays(m), m
        det = _det(m)
        inverted += bool(det) and all(x * det <= 0 for row in _adjugate(m) for x in row)
    assert inverted == 1199


def _over_extended_a(k):
    """A_k^(1) extended by a node joined to node 0: a cycle of k + 1 nodes
    and one more, hyperbolic for k <= 7."""
    edges = [(i, (i + 1) % (k + 1)) for i in range(k + 1)] + [(0, k + 1)]
    return _simply_laced(k + 2, edges)


def _simply_laced(n, edges):
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    return m


# symmetrizable hyperbolic data of rank 5 to 10, where the rays are read off
# one inversion: E10 is the tree with arms of 1, 2 and 6 nodes at node 0
LARGE_HYPERBOLIC = {
    "A3++": _over_extended_a(3),
    "A4++": _over_extended_a(4),
    "D4++": _simply_laced(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)]),
    "A7++": _over_extended_a(7),
    "E10": _simply_laced(10, [(0, 1), (0, 2), (2, 3)] + [(i, i + 1) for i in range(4, 9)]
                         + [(0, 4)]),
}


@pytest.mark.parametrize("rows", LARGE_HYPERBOLIC.values(), ids=LARGE_HYPERBOLIC.keys())
def test_large_hyperbolic_rays_are_the_columns_of_minus_the_inverse(rows):
    # c >= 0 with A c = -k e_i for each i: then -A^-1 >= 0, and {A c <= 0}
    # is the simplicial cone on these n rays
    n = len(rows)
    moving, invariant = imaginary_rays(validate(rows))
    assert invariant == () and len(moving) == n
    hit = set()
    for c in moving:
        assert min(c) >= 0 and math.gcd(*c) == 1
        (i,) = [i for i, y in enumerate(_apply(rows, c)) if y]
        assert _apply(rows, c)[i] < 0
        hit.add(i)
    assert hit == set(range(n))


def test_rays_are_extreme_and_span_the_interior():
    # Kac, Thm 4.3: {c >= 0, A c <= 0} is 0 for finite A, the ray of delta
    # for affine A, and holds some c > 0 with A c < 0 for indefinite A
    for m in GCMS_3:
        moving, invariant = imaginary_rays(validate(m))
        rays = moving + invariant
        for c in rays:
            assert min(c) >= 0 and math.gcd(*c) == 1, m
            ac = [sum(a * x for a, x in zip(row, c)) for row in m]
            assert max(ac) <= 0, m
            # extreme: c != 0 spans the kernel of the constraints tight at c,
            # so two of them are independent
            tight = [[int(i == j) for j in range(3)] for i in range(3) if c[i] == 0]
            tight += [row for row, y in zip(m, ac) if y == 0]
            assert any(r[i] * s[j] != r[j] * s[i] for r, s in itertools.combinations(tight, 2)
                       for i, j in itertools.combinations(range(3), 2)), m
        kind = kac_class(m)
        if kind == "finite":
            assert rays == (), m
        elif kind == "affine":
            assert len(rays) == 1 and all(sum(a * x for a, x in zip(row, rays[0])) == 0
                                          for row in m), m
        else:
            total = [sum(col) for col in zip(*rays)]
            assert min(total) > 0, m
            assert max(sum(a * x for a, x in zip(row, total)) for row in m) < 0, m


# ---------------------------------------------------------------------------
# the type at ranks 5 to 10, past the reach of the principal-minor oracle

def _star(*arms):
    """Simply-laced tree: arms of the given lengths at the centre, node 0."""
    edges, n = [], 1
    for length in arms:
        edges += [(0 if k == 0 else n + k - 1, n + k) for k in range(length)]
        n += length
    return _simply_laced(n, edges)


def _path(n):
    return _simply_laced(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n):
    return _simply_laced(n, [(i, (i + 1) % n) for i in range(n)])


def _affine_d(n):
    """D_n^(1): a path 1 .. n - 1 with one more leaf at node 2 and at node n - 2."""
    return _simply_laced(n + 1, [(i, i + 1) for i in range(1, n - 1)] + [(0, 2), (n - 2, n)])


def _twisted_d5():
    """D_5^(2): a path of 5 nodes, both end bonds double, delta = (1, 1, 1, 1, 1)."""
    m = _path(5)
    m[0][1], m[4][3] = -2, -2
    return m


LARGE_TYPES = {
    "A5": (_path(5), "finite"), "A10": (_path(10), "finite"),
    "D5": (_star(1, 1, 2), "finite"), "D10": (_star(1, 1, 7), "finite"),
    "E6": (_star(1, 2, 2), "finite"), "E7": (_star(1, 2, 3), "finite"),
    "E8": (_star(1, 2, 4), "finite"),
    "A4^(1)": (_cycle(5), "affine"), "A9^(1)": (_cycle(10), "affine"),
    "D5^(1)": (_affine_d(5), "affine"), "D9^(1)": (_affine_d(9), "affine"),
    "E6^(1)": (_star(2, 2, 2), "affine"), "E7^(1)": (_star(1, 3, 3), "affine"),
    "E8^(1)": (_star(1, 2, 5), "affine"), "D5^(2)": (_twisted_d5(), "affine"),
    "E10": (LARGE_HYPERBOLIC["E10"], "indefinite"),
    "cycle 10 + chord": (_simply_laced(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)]),
                         "indefinite"),
}


@pytest.mark.parametrize("rows, kind", LARGE_TYPES.values(), ids=LARGE_TYPES.keys())
def test_large_types(rows, kind):
    m = validate(rows)
    assert 5 <= m.n <= 10
    assert classify(m).value == classify(m.transpose()).value == kind
