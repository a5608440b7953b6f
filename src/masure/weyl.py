"""Weyl group elements as words with exact integer matrix actions, plus
real-root enumeration with coroots and reflection witnesses.

Word convention: the tuple (i_1, ..., i_k) denotes the composite
r_{i_1} ∘ r_{i_2} ∘ ... ∘ r_{i_k}, i.e. r_{i_k} is applied to vectors
first.  With this reading, a reduced word (j_1, ..., j_k) has

    Inv(w) = { alpha_{j_k}, r_{j_k}(alpha_{j_{k-1}}), ...,
               r_{j_k} ... r_{j_2}(alpha_{j_1}) },

which the test suite cross-validates against the brute-force definition
{alpha in Delta_+ : w.alpha in Delta_-}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .kmdata import KacMoodyData, RootVector, simple_root_vector

IntMat = tuple[tuple[int, ...], ...]


@cache  # immutable, so one shared identity per n
def _identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_vec(a: IntMat, v) -> tuple:
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def _right_q(data: KacMoodyData, q: IntMat, i: int) -> IntMat:
    """q . r_i on root-lattice coordinates: column j becomes q_j - a[i][j] q_i."""
    ai = data.matrix.entries[i]
    return tuple(tuple(x - c * row[i] for x, c in zip(row, ai)) for row in q)


def _right_y(data: KacMoodyData, y: IntMat, i: int) -> IntMat:
    """y . r_i on Y: column k becomes y_k - alpha_i[k] (y alpha_i^vee)."""
    root, coroot = data.simple_roots[i], data.simple_coroots[i]
    out = []
    for row in y:
        t = sum(x * c for x, c in zip(row, coroot))
        out.append(tuple(x - t * c for x, c in zip(row, root)))
    return tuple(out)


def _first_descent(q: IntMat) -> int | None:
    """The smallest i with w.alpha_i (column i of q) negative, i.e.
    l(w r_i) < l(w); None for the identity."""
    for i in range(len(q)):
        if all(row[i] <= 0 for row in q):
            return i
    return None


@dataclass(frozen=True)
class WeylElement:
    data: KacMoodyData = field(compare=False)
    word: tuple[int, ...] = field(compare=False)  # reduced
    q_mat: IntMat = field(compare=False)
    y_mat: IntMat  # faithful action on Y for free data; used for equality

    def length(self) -> int:
        return len(self.word)

    def act_root(self, v: RootVector) -> RootVector:
        return RootVector(_mat_vec(self.q_mat, v.coeffs))

    def act_y(self, v) -> tuple:
        return _mat_vec(self.y_mat, tuple(Fraction(x) for x in v))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return weyl_element(self.data, self.word + other.word)

    def inverse(self) -> "WeylElement":
        return weyl_element(self.data, tuple(reversed(self.word)))

    def __hash__(self) -> int:
        return hash(self.y_mat)

    def __str__(self) -> str:
        return "e" if not self.word else ".".join(f"r{i}" for i in self.word)


def _element(data: KacMoodyData, q: IntMat, y: IntMat) -> WeylElement:
    """The element with matrices q and y.  Its word is the normal form, read
    off q by the descent criterion, l(w r_i) < l(w) iff w.alpha_i is a
    negative root: peel the smallest right descent until none is left."""
    rev: list[int] = []
    p = q
    while (i := _first_descent(p)) is not None:
        rev.append(i)
        p = _right_q(data, p, i)
    return WeylElement(data, tuple(reversed(rev)), q, y)


def identity_element(data: KacMoodyData) -> WeylElement:
    return _element(data, _identity(data.n), _identity(data.rank))


def simple_reflect(data: KacMoodyData, i: int, v) -> tuple:
    """r_i(v) = v - alpha_i(v) alpha_i^vee on Y tensor Q."""
    vv = tuple(Fraction(x) for x in v)
    c = data.pair(data.simple_roots[i], vv)
    return tuple(x - c * data.simple_coroots[i][k] for k, x in enumerate(vv))


def weyl_element(data: KacMoodyData, word) -> WeylElement:
    q, y = _identity(data.n), _identity(data.rank)
    for i in word:
        i = int(i)
        if not 0 <= i < data.n:
            raise ValueError(f"index {i} out of range")
        q, y = _right_q(data, q, i), _right_y(data, y, i)
    return _element(data, q, y)


@dataclass(frozen=True)
class RealRoot:
    """A real root with its coroot and a witness (w, i) with root = w.alpha_i."""

    root: RootVector
    coroot: tuple[int, ...]  # in Y coordinates
    witness_word: tuple[int, ...]
    witness_index: int

    def height(self) -> int:
        return self.root.height()

    def negate(self) -> "RealRoot":
        """-root with coroot -coroot; witness extends through the reflection."""
        return RealRoot(-self.root, tuple(-c for c in self.coroot),
                        self.witness_word + (self.witness_index,), self.witness_index)

    def __str__(self) -> str:
        return str(self.root)


def simple_real_root(data: KacMoodyData, i: int) -> RealRoot:
    return RealRoot(simple_root_vector(data.n, i), data.simple_coroots[i], (), i)


def reflection(data: KacMoodyData, alpha: RealRoot) -> WeylElement:
    """r_alpha, read off x - alpha(x) alpha^vee: on roots, column j of q is
    alpha_j - alpha_j(alpha^vee) alpha; on Y, y = I - alpha^vee (x) alpha."""
    c, h = alpha.root.coeffs, alpha.coroot
    at_h = [sum(x * z for x, z in zip(root, h)) for root in data.simple_roots]
    cov = [sum(ci * root[k] for ci, root in zip(c, data.simple_roots)) for k in range(data.rank)]
    q = tuple(tuple(int(r == j) - c[r] * at_h[j] for j in range(data.n)) for r in range(data.n))
    y = tuple(tuple(int(k == m) - h[k] * cov[m] for m in range(data.rank))
              for k in range(data.rank))
    return _element(data, q, y)


def reflect_vector(data: KacMoodyData, alpha: RealRoot, v) -> tuple:
    """r_alpha(v) = v - alpha(v) alpha^vee on Y tensor Q."""
    vv = tuple(Fraction(x) for x in v)
    c = data.eval_root(alpha.root, vv)
    return tuple(x - c * alpha.coroot[k] for k, x in enumerate(vv))


@dataclass(frozen=True)
class RootSet:
    """Positive real roots of height <= bound, in (height, coords) order."""

    data: KacMoodyData = field(compare=False)
    bound: int
    roots: tuple[RealRoot, ...]

    def by_height(self) -> dict[int, list[RealRoot]]:
        out: dict[int, list[RealRoot]] = {}
        for r in self.roots:
            out.setdefault(r.height(), []).append(r)
        return out

    def find(self, v: RootVector) -> RealRoot | None:
        for r in self.roots:
            if r.root == v:
                return r
        return None


def enumerate_real_roots(data: KacMoodyData, bound: int) -> RootSet:
    """The positive real roots of height <= bound: lowering a non-simple
    positive real root by a simple reflection that lowers its height keeps
    it positive, so they close down to the simple roots."""
    if bound < 1:
        raise ValueError("height bound must be >= 1")
    return RootSet(data, bound, positive_root_closure(data, lambda v, coroot: v.height() <= bound))


def positive_root_closure(data: KacMoodyData, keep) -> tuple[RealRoot, ...]:
    """Breadth-first closure of the simple roots under simple reflections,
    keeping the positive roots v with keep(v, coroot), in (height, coords)
    order.  Every positive real root that keep accepts is reached when a
    chain of simple reflections lowers it to a simple root through roots
    that keep accepts.
    """
    a = data.matrix.entries
    found: dict[tuple[int, ...], RealRoot] = {}
    queue: list[RealRoot] = []
    for i in range(data.n):
        rr = simple_real_root(data, i)
        if keep(rr.root, rr.coroot):
            found[rr.root.coeffs] = rr
            queue.append(rr)
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        for i in range(data.n):
            # r_i v = v - <v, alpha_i^vee> alpha_i, r_i h = h - alpha_i(h) alpha_i^vee
            coords = list(cur.root.coeffs)
            coords[i] -= sum(x * y for x, y in zip(a[i], coords))
            coords = tuple(coords)
            v = RootVector(coords)
            if coords in found or not v.is_positive():
                continue
            t = sum(x * y for x, y in zip(data.simple_roots[i], cur.coroot))
            coroot = tuple(x - t * y for x, y in zip(cur.coroot, data.simple_coroots[i]))
            if not keep(v, coroot):
                continue
            rr = RealRoot(v, coroot, (i,) + cur.witness_word, cur.witness_index)
            found[coords] = rr
            queue.append(rr)
    return tuple(sorted(found.values(), key=lambda r: (r.height(), r.root.coeffs)))


def find_real_root(data: KacMoodyData, v: RootVector) -> RealRoot | None:
    """v as a real root with its coroot and a witness, or None if v is not
    a real root.

    Descent: while the height exceeds 1, reflect at some i with
    <v, alpha_i^vee> > 0, which lowers the height.  A positive real root
    other than alpha_i stays positive under r_i, and one of height > 1 has
    such an i, so v is a real root iff this reaches a simple root alpha_j
    with no negative coordinate on the way (Kac, section 5.1).  O(height n^2)
    time; the witness word may differ from the one enumerate_real_roots
    finds, the root and coroot do not.
    """
    if v.is_negative():
        found = find_real_root(data, -v)
        return None if found is None else found.negate()
    a = data.matrix.entries
    cur = list(v.coeffs)
    word: list[int] = []
    while sum(cur) > 1 and all(x >= 0 for x in cur):
        pairings = (sum(c * x for c, x in zip(row, cur)) for row in a)
        i, c = next(((i, c) for i, c in enumerate(pairings) if c > 0), (None, 0))
        if i is None:
            return None
        cur[i] -= c
        word.append(i)
    if sorted(cur) != [0] * (data.n - 1) + [1]:
        return None
    j = cur.index(1)
    coroot = data.simple_coroots[j]
    for i in reversed(word):
        t = sum(x * y for x, y in zip(data.simple_roots[i], coroot))
        coroot = tuple(x - t * y for x, y in zip(coroot, data.simple_coroots[i]))
    return RealRoot(v, coroot, tuple(word), j)


def inversion_set(data: KacMoodyData, w: WeylElement) -> list[RealRoot]:
    """Inv(w) from its reduced word, one column update per letter: with u
    the product of the letters read so far from the right, the next letter
    i gives the root u.alpha_i (column i of u's q) and the coroot
    u.alpha_i^vee, witnessed by the letters read.  Size equals l(w)."""
    q, y = _identity(data.n), _identity(data.rank)
    read: tuple[int, ...] = ()
    out: list[RealRoot] = []
    for i in reversed(w.word):
        root = RootVector(tuple(row[i] for row in q))
        out.append(RealRoot(root, _mat_vec(y, data.simple_coroots[i]), read, i))
        q, y = _right_q(data, q, i), _right_y(data, y, i)
        read += (i,)
    return out


def brute_inversion_set(data: KacMoodyData, w: WeylElement, bound: int) -> set[tuple[int, ...]]:
    """{alpha in Delta_+ with ht <= bound : w.alpha in Delta_-}, coordinates."""
    roots = enumerate_real_roots(data, bound)
    out = set()
    for r in roots.roots:
        if w.act_root(r.root).is_negative():
            out.add(r.root.coeffs)
    return out


def all_elements_up_to_length(data: KacMoodyData, max_len: int) -> list[WeylElement]:
    """All group elements of length <= max_len, BFS by length.

    Layer l+1 is every w r_i with w in layer l and w.alpha_i positive
    (so l(w r_i) = l(w) + 1), first occurrence kept.  Its normal form is
    read off layer l: with d the smallest right descent of v = w r_i, the
    word is w.word + (i,) if d == i, else the word of v r_d, which has
    length l, followed by d.
    """
    layer = [identity_element(data)]
    out = list(layer)
    for _ in range(max_len):
        prev = {w.y_mat: w.word for w in layer}
        seen: set[IntMat] = set()
        nxt = []
        for w in layer:
            for i in range(data.n):
                if not all(row[i] >= 0 for row in w.q_mat):
                    continue
                y = _right_y(data, w.y_mat, i)
                if y in seen:
                    continue
                seen.add(y)
                q = _right_q(data, w.q_mat, i)
                d = _first_descent(q)
                word = w.word + (i,) if d == i else prev[_right_y(data, y, d)] + (d,)
                nxt.append(WeylElement(data, word, q, y))
        out += nxt
        layer = nxt
    return out
