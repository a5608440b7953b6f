"""Weyl words, lengths, inversion sets, real-root enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import masure.weyl
from masure.kmdata import (
    RootVector,
    affine_sl2_data,
    finite_a1_data,
    finite_a2_data,
    minimal_realization,
    rank2_data,
    simple_root_vector,
    validate,
)
from masure.weyl import (
    all_elements_up_to_length,
    brute_inversion_set,
    enumerate_real_roots,
    find_real_root,
    inversion_set,
    reflect_vector,
    reflection,
    simple_real_root,
    simple_reflect,
    weyl_element,
)

AFF = affine_sl2_data()
A2 = finite_a2_data()
R15 = rank2_data(1, 5)


class TestSimpleReflect:
    def test_negates_own_coroot(self):
        v = AFF.simple_coroots[1]
        assert simple_reflect(AFF, 1, v) == tuple(-c for c in v)

    def test_fixes_wall(self):
        # alpha_1 = (2,0,0) vanishes on (0,1,0)
        v = (0, 1, 0)
        assert simple_reflect(AFF, 1, v) == v

    def test_involution(self):
        v = (3, -2, 5)
        assert simple_reflect(AFF, 1, simple_reflect(AFF, 1, v)) == tuple(map(int, v))


def _coords(rs):
    return {r.root.coeffs for r in rs.roots}


class TestReducedWord:
    def test_square_is_identity(self):
        assert weyl_element(AFF, (1, 1)).word == ()

    def test_infinite_dihedral_word(self):
        w = weyl_element(AFF, (1, 0, 1, 0))
        assert (w.length(), w.word) == (4, (1, 0, 1, 0))
        # oracle: the brute-force inversion count over roots of height <= 9
        assert len(brute_inversion_set(AFF, w, 9)) == 4

    def test_braid_relation_a2(self):
        w1 = weyl_element(A2, (1, 0, 1))
        w2 = weyl_element(A2, (0, 1, 0))
        assert w1.length() == 3
        assert w1.y_mat == w2.y_mat

    def test_descent_criterion(self):
        # l(r_i w) < l(w) iff w^{-1}.alpha_i is a negative root
        for w in all_elements_up_to_length(AFF, 5):
            for i in range(2):
                lower = weyl_element(AFF, (i,) + w.word).length() < w.length()
                image = w.inverse().act_root(simple_root_vector(2, i))
                assert lower == image.is_negative()


class TestInversionSets:
    def test_identity(self):
        assert inversion_set(AFF, weyl_element(AFF, ())) == []

    def test_r0_r1(self):
        w = weyl_element(AFF, (0, 1))
        got = {r.root.coeffs for r in inversion_set(AFF, w)}
        assert got == {(0, 1), (1, 2)}  # alpha_1 and alpha_0 + 2 alpha_1
        # both roots indeed map negative
        for r in inversion_set(AFF, w):
            assert w.act_root(r.root).is_negative()

    def test_longest_a2(self):
        w = weyl_element(A2, (0, 1, 0))
        got = {r.root.coeffs for r in inversion_set(A2, w)}
        assert got == {(1, 0), (0, 1), (1, 1)}

    def test_matches_brute_force(self):
        for data in (AFF, A2, R15):
            for w in all_elements_up_to_length(data, 6):
                inv = inversion_set(data, w)
                assert len(inv) == w.length()
                low = {r.root.coeffs for r in inv if r.height() <= 40}
                assert low == brute_inversion_set(data, w, 40)

    def test_witnesses_valid(self):
        w = weyl_element(AFF, (0, 1, 0, 1))
        for r in inversion_set(AFF, w):
            u = weyl_element(AFF, r.witness_word)
            assert u.act_root(simple_root_vector(2, r.witness_index)) == r.root


class TestEnumeration:
    def test_affine_h5(self):
        rs = enumerate_real_roots(AFF, 5)
        assert _coords(rs) == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert {h: len(v) for h, v in rs.by_height().items()} == {1: 2, 3: 2, 5: 2}

    def test_affine_form(self):
        for r in enumerate_real_roots(AFF, 21).roots:
            m, n = r.root.coeffs
            assert abs(m - n) == 1

    def test_a2(self):
        assert _coords(enumerate_real_roots(A2, 2)) == {(1, 0), (0, 1), (1, 1)}

    def test_height_one_is_simple(self):
        for data in (AFF, A2, R15):
            rs = enumerate_real_roots(data, 1)
            assert _coords(rs) == {simple_root_vector(data.n, i).coeffs
                                       for i in range(data.n)}

    def test_no_duplicates(self):
        rs = enumerate_real_roots(R15, 20)
        assert len(rs.roots) == len(_coords(rs))

    def test_witness_reflection_negates(self):
        for r in enumerate_real_roots(AFF, 9).roots:
            w = reflection(AFF, r)
            assert w.act_root(r.root) == -r.root

    def test_closure_under_simple_reflections(self):
        bound = 9
        for data in (AFF, R15):
            rs = enumerate_real_roots(data, bound)
            coords = _coords(rs)
            for r in rs.roots:
                for i in range(data.n):
                    img = weyl_element(data, (i,)).act_root(r.root)
                    if img.is_positive() and img.height() <= bound:
                        assert img.coeffs in coords
                    elif img.is_negative():
                        assert (-img).coeffs in coords


class TestReflection:
    def test_simple(self):
        r = reflection(AFF, simple_real_root(AFF, 1))
        assert r.word == (1,)

    def test_conjugate(self):
        # alpha_0 + 2 alpha_1 = r_1(alpha_0): reflection is r_1 r_0 r_1
        rs = enumerate_real_roots(AFF, 3)
        alpha = rs.find(RootVector((1, 2)))
        w = reflection(AFF, alpha)
        assert w.y_mat == weyl_element(AFF, (1, 0, 1)).y_mat
        # fixes the wall ker(alpha); covector is (2, 0, 1)
        assert AFF.root_covector(alpha.root) == (2, 0, 1)
        for kernel_vec in ((1, 0, -2), (0, 1, 0)):
            assert AFF.eval_root(alpha.root, kernel_vec) == 0
            assert w.act_y(kernel_vec) == kernel_vec

    def test_involution(self):
        for alpha in enumerate_real_roots(R15, 9).roots:
            w = reflection(R15, alpha)
            assert (w * w).word == ()

    def test_displayed_formula(self):
        for alpha in enumerate_real_roots(AFF, 7).roots:
            w = reflection(AFF, alpha)
            for v in [(1, 2, 3), (0, 1, 0), (-2, 5, 1)]:
                assert w.act_y(v) == reflect_vector(AFF, alpha, v)


def test_group_elements_counts():
    # infinite dihedral: 1 identity + 2 per length
    els = all_elements_up_to_length(AFF, 8)
    assert len(els) == 17
    assert sorted(w.length() for w in els) == sorted([0] + [l for l in range(1, 9) for _ in range(2)])


# ---------------------------------------------------------------------------
# The incremental kernel against the from-scratch algorithm it replaced:
# full matrix products of regenerated simple matrices, the normal form by
# peeling the smallest right descent, and a BFS that rebuilds every
# candidate from its word.

KERNEL_DATA = {
    "A1": finite_a1_data(),
    "A2": A2,
    "affine_sl2": AFF,
    "rank2_1_5": R15,
    "affine_A2": minimal_realization(validate([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])),
    "hyperbolic": minimal_realization(validate([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])),
    "rank3_nonsym": minimal_realization(validate([[2, -1, 0], [-2, 2, -3], [0, -1, 2]])),
}


def _ref_mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _ref_simple_q(data, i):
    n = data.n
    return tuple(tuple((1 if j == k else 0) - (data.matrix[i, j] if k == i else 0)
                       for j in range(n)) for k in range(n))


def _ref_simple_y(data, i):
    r = data.rank
    root, coroot = data.simple_roots[i], data.simple_coroots[i]
    return tuple(tuple((1 if row == k else 0) - root[k] * coroot[row] for k in range(r))
                 for row in range(r))


def _ref_product(data, word):
    q = tuple(tuple(int(i == j) for j in range(data.n)) for i in range(data.n))
    y = tuple(tuple(int(i == j) for j in range(data.rank)) for i in range(data.rank))
    for i in word:
        q = _ref_mat_mul(q, _ref_simple_q(data, i))
        y = _ref_mat_mul(y, _ref_simple_y(data, i))
    return q, y


def _ref_element(data, word):
    """(word, q_mat, y_mat) of the normal form of ``word``."""
    q, _ = _ref_product(data, word)
    rev = []
    while True:
        descents = [i for i in range(data.n) if all(row[i] <= 0 for row in q)]
        if not descents:
            break
        rev.append(descents[0])
        q = _ref_mat_mul(q, _ref_simple_q(data, descents[0]))
    reduced = tuple(reversed(rev))
    return (reduced, *_ref_product(data, reduced))


def _ref_bfs(data, max_len):
    seen = {_ref_element(data, ())[2]}
    layer = [_ref_element(data, ())]
    out = list(layer)
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for i in range(data.n):
                cand = _ref_element(data, w[0] + (i,))
                if len(cand[0]) == len(w[0]) + 1 and cand[2] not in seen:
                    seen.add(cand[2])
                    nxt.append(cand)
        out += nxt
        layer = nxt
    return out


@st.composite
def _datum_and_word(draw):
    name = draw(st.sampled_from(sorted(KERNEL_DATA)))
    n = KERNEL_DATA[name].n
    return name, tuple(draw(st.lists(st.integers(0, n - 1), max_size=14)))


@settings(max_examples=300, deadline=None)
@given(_datum_and_word())
def test_weyl_element_matches_from_scratch(case):
    name, word = case
    data = KERNEL_DATA[name]
    w = weyl_element(data, word)
    assert (w.word, w.q_mat, w.y_mat) == _ref_element(data, word)
    assert weyl_element(data, w.word).word == w.word


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(KERNEL_DATA)), st.data())
def test_all_elements_match_from_scratch_bfs(name, draw):
    data = KERNEL_DATA[name]
    max_len = draw.draw(st.integers(0, 8 if data.n <= 2 else 6), label="max_len")
    got = [(w.word, w.q_mat, w.y_mat) for w in all_elements_up_to_length(data, max_len)]
    assert got == _ref_bfs(data, max_len)


# ---------------------------------------------------------------------------
# roots by descent against the enumeration

POOL = ("A2", "affine_sl2", "rank2_1_5", "affine_A2", "hyperbolic")
SIGNED_ROOTS = {name: {s.root.coeffs: s for r in enumerate_real_roots(KERNEL_DATA[name], 36).roots
                       for s in (r, r.negate())}
                for name in POOL}


@pytest.mark.parametrize("name", POOL)
def test_find_real_root_matches_enumeration(name):
    data = KERNEL_DATA[name]
    for want in SIGNED_ROOTS[name].values():
        if abs(want.height()) > 30:
            continue
        got = find_real_root(data, want.root)
        assert (got.root, got.coroot) == (want.root, want.coroot)
        w = weyl_element(data, got.witness_word)
        assert w.act_root(simple_root_vector(data.n, got.witness_index)) == want.root
        assert w.act_y(data.simple_coroots[got.witness_index]) == want.coroot


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(POOL), st.data())
def test_find_real_root_rejects_non_roots(name, draw):
    data = KERNEL_DATA[name]
    v = tuple(draw.draw(st.lists(st.integers(-12, 12), min_size=data.n, max_size=data.n)))
    found = find_real_root(data, RootVector(v))
    assert (found is not None) == (v in SIGNED_ROOTS[name])


# ---------------------------------------------------------------------------
# reflections and inversion sets from the matrices, against words

RANK4 = minimal_realization(validate([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2],
                                      [0, 0, -2, 2]]))
WORD_DATA = {**{name: KERNEL_DATA[name] for name in POOL}, "rank4": RANK4}


@pytest.mark.parametrize("name", sorted(WORD_DATA))
def test_reflection_matches_the_conjugate_word(name):
    """r_alpha read off x - alpha(x) alpha^vee is the element w r_i w^-1 of
    the witness, with the same normal form and matrices."""
    data = WORD_DATA[name]
    for pos in enumerate_real_roots(data, 9).roots:
        for alpha in (pos, pos.negate()):
            w = alpha.witness_word
            got = reflection(data, alpha)
            want = weyl_element(data, w + (alpha.witness_index,) + tuple(reversed(w)))
            assert (got.word, got.q_mat, got.y_mat) == (want.word, want.q_mat, want.y_mat)


@pytest.mark.parametrize("data, word", [(AFF, (0, 1) * 20), (RANK4, (0, 1, 2, 3) * 8),
                                        (KERNEL_DATA["hyperbolic"], (0, 1, 2) * 10)])
def test_inversion_set_makes_one_update_per_letter(monkeypatch, data, word):
    w = weyl_element(data, word)
    calls = []
    right_q = masure.weyl._right_q
    monkeypatch.setattr(masure.weyl, "_right_q",
                        lambda *args: calls.append(args[2]) or right_q(*args))
    inv = inversion_set(data, w)
    assert len(w.word) == len(word) and len(inv) == len(calls) == len(word)
    assert calls == list(reversed(w.word))


@st.composite
def _rank3_word(draw):
    name = draw(st.sampled_from(sorted(n for n, d in WORD_DATA.items() if d.n >= 3)))
    n = WORD_DATA[name].n
    return name, tuple(draw(st.lists(st.integers(0, n - 1), max_size=40)))


@settings(max_examples=60, deadline=None)
@given(_rank3_word())
def test_inversion_set_by_column_updates(case):
    """Inv(w) is the l(w) distinct positive roots that w sends negative (so
    it is all of Inv(w)), its low part is the brute-force one, and every
    witness is a reduced word of length its position that rebuilds the root
    and coroot."""
    name, word = case
    data = WORD_DATA[name]
    w = weyl_element(data, word)
    inv = inversion_set(data, w)
    coords = {r.root.coeffs for r in inv}
    assert len(coords) == len(inv) == w.length()
    assert all(r.root.is_positive() and w.act_root(r.root).is_negative() for r in inv)
    assert {c for c in coords if sum(c) <= 12} == brute_inversion_set(data, w, 12)
    for m, r in enumerate(inv):
        u = weyl_element(data, r.witness_word)
        assert u.length() == len(r.witness_word) == m  # reduced
        assert u.act_root(simple_root_vector(data.n, r.witness_index)) == r.root
        assert u.act_y(data.simple_coroots[r.witness_index]) == r.coroot
