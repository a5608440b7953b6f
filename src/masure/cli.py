"""Command-line entry point.

Subcommands: classify, roots, weyl, cone, prenilpotent, tree (act, dist,
retract, geodesic, neighbors, ball, orbit, exchange), hecke, gm, uma,
selftest.  Exit codes: 0 success, 1 domain error, 2 usage error (a
malformed option value, including a field, point or element that does not
parse).

Exact values (fractions) are emitted as strings in JSON payloads so that
printing and parsing round-trip bit-exactly.  All randomness sits behind
--seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import acceptance, cone, hecke, kmdata, loop, tree, weyl
from .fields import FieldError, Mat2, ParseError, parse_element, parse_field


def _load_arg(text: str) -> str:
    """Inline payload, or @path to read a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return text


def _frac_str(x) -> str:
    return str(Fraction(x))


def _emit(obj, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(obj, indent=None, sort_keys=True))
    else:
        print(text if text is not None else json.dumps(obj, sort_keys=True))


class UsageError(ValueError):
    """Malformed command-line input; exit code 2."""


def _json_arg(text: str, option: str):
    text = _load_arg(text)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long or nesting too deep
        raise UsageError(f"{option} is not JSON: {exc}") from None


def _bounded(lo: int, hi: int | None = None):
    """An argparse type: an integer in lo..hi, or at least lo when hi is None.
    It carries lo and hi; it is named int, so that argparse reports a
    non-integer as an invalid int value."""
    def parse(text: str) -> int:
        n = int(text)
        if n < lo or hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"must be in {lo}..{'' if hi is None else hi}, "
                                             f"got {n}")
        return n
    parse.__name__, parse.lo, parse.hi = "int", lo, hi
    return parse


def _integer(x, option: str) -> int:
    """A JSON integer, or a string that spells one."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    raise UsageError(f"{option}: {x!r} is not an integer")


def _int_rows(x, option: str) -> list[list[int]]:
    """A nonempty JSON list of rows of integers."""
    if not (isinstance(x, list) and x and all(isinstance(row, list) for row in x)):
        raise UsageError(f"{option} must be a nonempty JSON list of rows, got {json.dumps(x)}")
    return [[_integer(v, option) for v in row] for row in x]


# The most indices of a --matrix or --data matrix.  On random dense GCMs
# (half the off-diagonal pairs set, entries -1..-3) and on the complete graphs
# with entries -1 and -3, at 32 indices classify takes at most 0.2 s, roots
# --max-height 1 and weyl --word 0 at most 0.45 s and cone 0.5-1.05 s; at 36
# cone takes up to 1.5 s (in process, 2-core x86-64 VM, Python 3.11.7).
MATRIX_MAX_INDICES = 32


def _gcm_arg(x, option: str) -> kmdata.KacMoodyMatrix:
    """A generalized Cartan matrix of at most MATRIX_MAX_INDICES indices."""
    rows = _int_rows(x, option)
    if len(rows) > MATRIX_MAX_INDICES:
        raise UsageError(f"{option} has {len(rows)} rows, more than {MATRIX_MAX_INDICES}")
    return kmdata.validate(rows)


_REALIZATION_KEYS = ("rank", "simple_roots", "simple_coroots")


def _data_arg(text: str) -> kmdata.KacMoodyData:
    """A root datum {"matrix": rows}, with an optional "realization"
    {"rank": r, "simple_roots": rows, "simple_coroots": rows}; without one,
    the minimal realization."""
    obj = _json_arg(text, "--data")
    real = obj.get("realization") if isinstance(obj, dict) else None
    real_ok = not real or isinstance(real, dict) and all(k in real for k in _REALIZATION_KEYS)
    if not (isinstance(obj, dict) and "matrix" in obj and real_ok):
        raise UsageError('--data must be a JSON object {"matrix": [[...]]} with an optional '
                         '"realization": {"rank": r, "simple_roots": [[...]], '
                         '"simple_coroots": [[...]]}')
    matrix = _gcm_arg(obj["matrix"], "--data matrix")
    if not real:
        return kmdata.minimal_realization(matrix)
    return kmdata.validate_data(matrix, _integer(real["rank"], "--data rank"),
                                _int_rows(real["simple_roots"], "--data simple_roots"),
                                _int_rows(real["simple_coroots"], "--data simple_coroots"))


def _rational(x, option: str) -> Fraction:
    """A JSON number, or a string that spells a rational without a decimal
    exponent (1e999999999 would build 10^999999999)."""
    if isinstance(x, str) and "e" in x.lower():
        raise UsageError(f"{option}: {x!r}: write it as an integer, a/b or a decimal")
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"{option}: {x!r} is not a rational")


def _vec_arg(text: str, dim: int) -> tuple[Fraction, ...]:
    return _vector(text.replace(" ", "").split(","), dim, text)


def _vector(coords, dim: int, shown) -> tuple[Fraction, ...]:
    """The list coords as a rational vector of length dim; errors name shown."""
    if not isinstance(coords, list):
        raise UsageError(f"{shown!r} is not a list of coordinates")
    vec = tuple(_rational(x, repr(shown)) for x in coords)
    if len(vec) != dim:
        raise UsageError(f"{shown!r} has {len(vec)} coordinates, expected {dim}")
    return vec


def _criteria_arg(text: str) -> list[int]:
    n = len(acceptance.ALL_CHECKS)
    try:
        numbers = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--criteria takes comma-separated numbers, got {text!r}") from None
    unknown = [k for k in numbers if not 1 <= k <= n]
    if unknown:
        raise UsageError(f"unknown criteria {unknown}; the criteria are 1-{n}")
    return numbers


def _word_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text in ("e", "-"):
        return ()
    return tuple(_integer(x, "--word") for x in text.replace(" ", "").split(","))


def _entries_2x2(text: str, option: str, kind: type, what: str) -> list:
    """The entries a, b, c, d of the 2x2 JSON matrix [[a,b],[c,d]] in text,
    each of type kind; what describes the entries and gives an example."""
    rows = _json_arg(text, option)
    if not (isinstance(rows, list) and len(rows) == 2
            and all(isinstance(row, list) and len(row) == 2
                    and all(isinstance(e, kind) for e in row) for row in rows)):
        raise UsageError(f"{option} must be a 2x2 JSON matrix of {what}; got {text!r}")
    return [e for row in rows for e in row]


def _mat_arg(cfg, text: str) -> Mat2:
    """The 2x2 JSON matrix [[a,b],[c,d]] of field-element strings."""
    entries = _entries_2x2(text, "--g", str, 'element strings, e.g. [["1","t"],["0","1"]]')
    return Mat2(*(parse_element(cfg, e, TREE_MAX_EXPONENT) for e in entries))


def _mat_out(g: Mat2) -> list[list[str]]:
    return [[str(g.a), str(g.b)], [str(g.c), str(g.d)]]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args) -> int:
    m = _gcm_arg(_json_arg(args.matrix, "--matrix"), "--matrix")
    comps = kmdata.decompose(m)
    if len(comps) == 1:
        cls = kmdata.classify(m).value
        _emit({"class": cls}, True)
    else:
        out = [{"indices": list(c), "class": kmdata.classify(m.submatrix(c)).value}
               for c in comps]
        _emit({"components": out}, True)
    return 0


# The largest roots --max-height.  The roots below a height multiply with the
# rank: at 128 the rank-4 matrix with all off-diagonal entries -1 takes 0.7-0.9 s,
# affine A3 0.02 s, but E10 44 s (1.3 s at 64; 2-core x86-64 VM, Python 3.11.7).
ROOTS_MAX_HEIGHT = 128


def _cmd_roots(args) -> int:
    data = _data_arg(args.data)
    rs = weyl.enumerate_real_roots(data, args.max_height)
    by_h = rs.by_height()
    if args.json:
        obj = {str(h): [list(r.root.coeffs) for r in v] for h, v in sorted(by_h.items())}
        _emit({"max_height": args.max_height, "by_height": obj}, True)
    else:
        for h in sorted(by_h):
            roots = " ".join(str(r.root) for r in by_h[h])
            print(f"height {h}: {roots}")
    return 0


# The most letters of a weyl --word; the element and its inversion set take
# one column update per letter, O(l n^2) at rank n.  128 letters take
# 0.01-0.02 s on E10, affine A3 and [[2,-3],[-3,2]], 0.1 s on a rank-20
# cycle with a chord, 0.25 s on a rank-32 one and 0.45 s on a random dense
# GCM of rank 32 (MATRIX_MAX_INDICES), the minimal realization included (in
# process, 2-core x86-64 VM, Python 3.11.7).
WEYL_MAX_WORD = 128


def _cmd_weyl(args) -> int:
    data = _data_arg(args.data)
    word = _word_arg(args.word)
    if len(word) > WEYL_MAX_WORD:
        raise UsageError(f"--word has {len(word)} letters, more than {WEYL_MAX_WORD}")
    w = weyl.weyl_element(data, word)
    inv = weyl.inversion_set(data, w)
    obj = {
        "length": w.length(),
        "reduced_word": list(w.word),
        "action_on_roots": [list(r) for r in w.q_mat],
        "action_on_y": [list(r) for r in w.y_mat],
        "inversion_set": [list(r.root.coeffs) for r in inv],
    }
    if args.json:
        _emit(obj, True)
    else:
        print(f"length {w.length()}, reduced word {list(w.word)}")
        print(f"inversions: {' '.join(str(r.root) for r in inv) or '(none)'}")
        print(f"action on Y: {obj['action_on_y']}")
    return 0


# The most greedy steps cone takes, the default cap (10 per unit of the
# vector's size) included.  A vector outside the Tits cone that no ray
# refutes early, such as one with delta(v) = 0 on affine data, runs the
# whole cap: 5000 steps take 0.8 s on [[2,-2],[-2,2]] and 1.3-1.4 s on
# affine A2 and A3 (2-core x86-64 VM, Python 3.11.7).
CONE_MAX_CAP = 5000


def _cmd_cone(args) -> int:
    data = _data_arg(args.data)
    v = _vec_arg(args.vector, data.rank)
    cap = args.cap or min(cone.default_cap(v), CONE_MAX_CAP)
    cert = cone.normalize_to_dominant(data, v, cap)
    if isinstance(cert, cone.InCone):
        obj = {"status": "in_cone", "word": list(cert.w.word),
               "image": [_frac_str(x) for x in cert.image], "steps": cert.steps}
    elif isinstance(cert, cone.NotInCone):
        ray, step = cert.witness
        obj = {"status": "not_in_cone", "reason": cert.reason, "ray": list(ray), "step": step}
    else:
        obj = {"status": "unknown", "steps": cert.steps}
    _emit(obj, True)
    return 0


# The largest sum of |coordinates| of a root that prenilpotent takes.  The
# witnesses grow with the reflection word, about twice the height on affine
# data, and shortening one reduces the word again for each letter it drops
# inside the word: with the simple root of the last index, the slowest roots
# of height 297-299 take 0.03 s on [[2,-2],[-2,2]], 0.04 s on
# [[2,-1],[-4,2]], 1.0 s on affine A2 and 2.2 s on affine A3 (in process,
# 2-core x86-64 VM, Python 3.11.7).
PRENILPOTENT_MAX_HEIGHT = 300


def _find_root(data: kmdata.KacMoodyData, text: str) -> weyl.RealRoot:
    coords = _vec_arg(text, data.n)
    if any(x.denominator != 1 for x in coords):
        raise UsageError(f"{text!r}: root coordinates must be integers")
    if sum(abs(x) for x in coords) > PRENILPOTENT_MAX_HEIGHT:
        raise UsageError(f"{text!r}: the coordinates sum to more than "
                         f"{PRENILPOTENT_MAX_HEIGHT} in absolute value, the highest root "
                         "prenilpotent takes")
    v = kmdata.RootVector(tuple(int(x) for x in coords))
    found = weyl.find_real_root(data, v)
    if found is None:
        raise cone.ConeError(f"{v} is not a real root")
    return found


def _cmd_prenilpotent(args) -> int:
    data = _data_arg(args.data)
    alpha = _find_root(data, args.alpha)
    beta = _find_root(data, args.beta)
    v = cone.prenilpotent_pair(data, alpha, beta)
    if isinstance(v, cone.Prenilpotent):
        interval = cone.closed_interval(data, alpha, beta)
        obj = {"verdict": "prenilpotent",
               "to_positive": list(v.to_positive.word),
               "to_negative": list(v.to_negative.word),
               "closed_interval": [list(r.coeffs) for r in interval]}
    else:
        obj = {"verdict": "not_prenilpotent", "reason": v.reason}
    _emit(obj, True)
    return 0


# The largest |x| of a point position, and |e| of an exponent t^e or of the
# valuation of a p-adic element, that the tree commands take.  The slowest
# command at this size is act with dense entries num/den whose terms run
# over t^-200..t^200: its Euclid on polynomials of degree 400 takes 0.85-1.1 s
# over F3(t), F7(t) and F101(t), and 1.0-2.3 s at 250, on a 2-core x86-64 VM
# under Python 3.11.7.
TREE_MAX_EXPONENT = 200

# The most points tree geodesic lists: at the TREE_MAX_EXPONENT cap 1000
# points print up to 0.8 MB in at most 0.25 s on the VM above.
GEODESIC_MAX_N = 1000

# The most vertices tree ball builds: the ball of radius 8 over F3(t)
# (13121 vertices) takes 0.94-0.96 s with its edges and printing in any
# format, and radius 12 over F2(t) (12286) 0.94 s, on a 2-core x86-64 VM
# under Python 3.11.7.  The time grows linearly in the count, for every q.
BALL_MAX_VERTICES = 14000

# A vertex's text grows with its tail: a tail term takes about 0.7 us to
# print, against 88 us to build and print a vertex near the origin.  So
# around a center whose tail spans s exponents a vertex counts
# 1 + s/BALL_TERMS_PER_VERTEX times toward BALL_MAX_VERTICES.
BALL_TERMS_PER_VERTEX = 128


def _ball_size(q: int, radius: int) -> int:
    """1 + sum_{k<=radius} (q+1) q^(k-1), the vertex count of a ball in the
    tree of degree q+1, counted no further than past BALL_MAX_VERTICES."""
    count, sphere = 1, q + 1
    for _ in range(radius):
        if count > BALL_MAX_VERTICES:
            break
        count += sphere
        sphere *= q
    return count


def _point(cfg, text: str) -> tree.TreePoint:
    return tree.parse_point(cfg, text, TREE_MAX_EXPONENT)


def _vertex_budget(center: tree.TreePoint, count: int, what: str) -> None:
    """Reject listing ``count`` vertices around ``center`` when they weigh
    more than BALL_MAX_VERTICES; ``what`` starts the message."""
    # the exponents in [val(tail), -x) that the center's tail spans
    span = 0 if center.tail.is_zero() else -math.floor(center.x) - center.tail.valuation()
    weight = 1 + Fraction(span, BALL_TERMS_PER_VERTEX)
    if count * weight > BALL_MAX_VERTICES:
        why = f" (each counts {weight} times: the center's tail spans {span} exponents)"
        raise UsageError(f"{what} more than {BALL_MAX_VERTICES} vertices, the most a tree "
                         "command lists" + (why if span else ""))


def _cmd_tree(args) -> int:
    cfg = parse_field(args.field)
    sub = args.tree_cmd
    if sub == "act":
        g = _mat_arg(cfg, args.g)
        p = _point(cfg, args.p)
        point = tree.point_to_str(tree.act(g, p))
        _emit({"point": point}, args.json, point)
    elif sub == "dist":
        d = tree.distance(_point(cfg, args.p), _point(cfg, args.q))
        _emit({"distance": _frac_str(d)}, args.json, str(d))
    elif sub == "retract":
        p = _point(cfg, args.p)
        if args.q is None:
            obj = {"plus": _frac_str(tree.retract_plus(p)),
                   "minus": _frac_str(tree.retract_minus(p))}
            _emit(obj, args.json, f"rho+ = {obj['plus']}, rho- = {obj['minus']}")
        else:
            q = _point(cfg, args.q)
            tp = tree.retract_segment(p, q, 1 if args.center == "+" else -1)
            obj = {"breakpoints": [_frac_str(t) for t in tp.breaks],
                   "values": [_frac_str(v) for v in tp.values],
                   "speed": _frac_str(tp.speed),
                   "folds": [[_frac_str(t), _frac_str(v)] for t, v in tp.folds()]}
            _emit(obj, args.json,
                  " -> ".join(obj["values"]) + f"   (breaks {obj['breakpoints']})")
    elif sub == "geodesic":
        p = _point(cfg, args.p)
        q = _point(cfg, args.q)
        pts = tree.geodesic(p, q, args.n)
        strs = [tree.point_to_str(z) for z in pts]
        _emit({"points": strs}, args.json, "\n".join(strs))
    elif sub == "neighbors":
        v = _point(cfg, args.p)
        _vertex_budget(v, cfg.p + 1, f"--field {cfg}: a vertex has")
        strs = [tree.point_to_str(w) for w in tree.neighbors(v)]
        _emit({"neighbors": strs}, args.json, "\n".join(strs))
    elif sub == "ball":
        center = _point(cfg, args.p) if args.p else tree.origin(cfg)
        _vertex_budget(center, _ball_size(cfg.p, args.radius),
                       f"--radius {args.radius}: the ball has")
        verts = tree.ball(center, args.radius)
        index = {v: i for i, v in enumerate(verts)}
        # every edge has an end within radius - 1, and the BFS lists those first
        inner = verts[:_ball_size(cfg.p, args.radius - 1)] if args.radius else []
        edges = sorted((index[v], index[w]) for v in inner for w in tree.neighbors(v)
                       if w in index and index[v] < index[w])
        if args.format == "dot":
            lines = ["graph tree {"]
            for v, i in index.items():
                lines.append(f'  n{i} [label="{tree.point_to_str(v)}"];')
            for i, j in edges:
                lines.append(f"  n{i} -- n{j};")
            lines.append("}")
            print("\n".join(lines))
        elif args.format == "json":
            _emit({"vertices": [tree.point_to_str(v) for v in verts],
                   "edges": [list(e) for e in edges]}, True)
        else:
            print(f"{len(verts)} vertices, {len(edges)} edges")
    elif sub == "orbit":
        orbit = tree.orbit_class(_point(cfg, args.p))
        _emit({"orbit_class": orbit}, args.json, str(orbit))
    elif sub == "exchange":
        a = parse_element(cfg, args.a, TREE_MAX_EXPONENT)
        g2 = tree.exchange_apartment(a)
        obj = {"g": _mat_out(g2),
               "vertex": _frac_str(a.valuation()),
               "fixed_interval": "[val(a), +oo)"}
        _emit(obj, args.json, f"g'' = {g2}; triple intersection at {a.valuation()}")
    else:  # pragma: no cover
        raise ValueError(f"unknown tree subcommand {sub}")
    return 0


def _parse_path(text: str, dim: int) -> hecke.PiecewisePath:
    obj = _json_arg(text, "--path")
    if not (isinstance(obj, dict) and isinstance(obj.get("breakpoints"), list)
            and isinstance(obj.get("positions"), list)):
        raise UsageError('--path must be a JSON object '
                         '{"breakpoints": [...], "positions": [[...], ...]}')
    return hecke.PiecewisePath(
        tuple(_rational(t, "--path breakpoint") for t in obj["breakpoints"]),
        tuple(_vector(pos, dim, pos) for pos in obj["positions"]),
    )


# The largest fold hecke verify searches, as d * ht(D) (hecke.fold_size),
# the most reflections a chain for the fold can take.  The search grows with
# it and with the rank.  From a start with alpha_j = 1 for every j, down by a
# D spread evenly over the coroots, which no chain explains, 64 takes 0.34 s
# on affine A3, 0.04 s on affine A2 and 0.02 s on the hyperbolic datum above;
# at rank 6 (affine A5) 24 takes 0.2 s, and at rank 10 (E10) 16 takes 0.3 s,
# 24 2.1 s and 64 far longer (2-core x86-64 VM, Python 3.11.7).
HECKE_MAX_FOLD = 64


def _path_json(path: hecke.PiecewisePath) -> dict:
    return {"breakpoints": [_frac_str(t) for t in path.breakpoints],
            "positions": [[_frac_str(x) for x in pos] for pos in path.positions]}


def _cmd_hecke(args) -> int:
    data = _data_arg(args.data)
    path = _parse_path(args.path, data.rank)
    shape = _vec_arg(args.shape, data.rank)
    chamber = hecke.standard_chamber(data, 1 if args.chamber == "+" else -1)
    for k in path.fold_times():
        size = hecke.fold_size(data, path.velocity(k - 1), path.velocity(k), chamber)
        if size > HECKE_MAX_FOLD:
            raise UsageError(f"the fold at time {_frac_str(path.breakpoints[k])} has d*ht(D) = "
                             f"{size}, more than the {HECKE_MAX_FOLD} searched")
    report = hecke.verify_path(data, path, shape, chamber)
    folds = []
    for f in report.folds:
        if isinstance(f.witness, hecke.ChainWitness):
            folds.append({
                "time": _frac_str(f.time),
                "verdict": "verified",
                "chain_roots": [list(r.root.coeffs) for r in f.witness.roots],
            })
        else:
            verdict = "no_chain" if isinstance(f.witness, hecke.NoChain) else "refuted_within_bound"
            folds.append({"time": _frac_str(f.time), "verdict": verdict})
    obj = {"billiard": report.billiard.ok, "dominance": report.dominance,
           "folds": folds, "verified": report.verified,
           "path": _path_json(path)}
    _emit(obj, True)
    return 0 if report.verified else 1


# The largest index gm accepts.  L_n has one monomial per partition of n, so
# the printed output grows about 1.2x per index; the cap bounds it at the
# 8349 monomials of L_32, which the partition sum builds and prints in about
# 0.15 s on a 2-core x86-64 VM under Python 3.11.7.
GM_MAX_N = 32


def _cmd_gm(args) -> int:
    p = loop.gm_poly(args.n)
    if args.json:
        obj = {",".join(map(str, e)): str(c) for e, c in sorted(p.items())}
        _emit({"n": args.n, "monomials": obj}, True)
    else:
        print(loop.poly_str(p))
    return 0


def _ring_arg(text: str) -> loop.SeriesRing:
    text = text.strip()
    if text in ("Q", "q"):
        return loop.SeriesRing(loop.QQ)
    if text.startswith("F") and text[1:].isdigit():
        try:
            return loop.SeriesRing(loop.GF, int(text[1:]))
        except (loop.LoopError, FieldError) as exc:  # not prime, or too large to decide
            raise UsageError(f"--ring {text}: {exc}") from None
    raise UsageError(f"unknown coefficient ring {text!r}; use Q or F<p>")


def _uma_matrix_arg(text: str, ring: loop.SeriesRing) -> list[list]:
    """The 2x2 JSON matrix of coefficient lists, as four coefficient lists."""
    cells = _entries_2x2(text, "--matrix", list,
                         "coefficient lists, e.g. [[[1],[0]],[[0],[1]]]")
    coeff = _rational if ring.kind == loop.QQ else _integer
    return [[coeff(c, "--matrix") for c in cell] for cell in cells]


# The largest uma --mod; each series stores all its coefficients.  Dense
# input over Q costs most: L D U of random factors with denominators <= 9
# takes 1.2-1.3 s at 512, 12.5 s at 1024 (2-core x86-64 VM, Python 3.11.7).
UMA_MAX_MOD = 512


def _cmd_uma(args) -> int:
    ring = _ring_arg(args.ring)
    m = loop.SeriesMatrix(*(loop.series(ring, cell, args.mod)
                            for cell in _uma_matrix_arg(args.matrix, ring)))
    if args.uma_cmd == "member":
        _emit({"member": loop.uma_membership(m)}, True)
        return 0
    low, diag, up = loop.uma_factorize(m)

    def ser(s: loop.TruncSeries) -> list[str]:
        return [str(c) for c in s.coeffs]

    _emit({"L": [[ser(low.a), ser(low.b)], [ser(low.c), ser(low.d)]],
           "D": [[ser(diag.a), ser(diag.b)], [ser(diag.c), ser(diag.d)]],
           "U": [[ser(up.a), ser(up.b)], [ser(up.c), ser(up.d)]]}, True)
    return 0


def _cmd_selftest(args) -> int:
    numbers = _criteria_arg(args.criteria) if args.criteria else None
    timed = []
    for k, check in enumerate(acceptance.ALL_CHECKS, 1):
        if numbers is None or k in numbers:
            start = time.perf_counter()
            result = check(args.seed)
            timed.append((result, time.perf_counter() - start))
    failed = sum(not r.ok for r, _ in timed)
    if args.json:
        for r, seconds in timed:
            _emit({"number": r.number, "name": r.name, "ok": r.ok, "detail": r.detail,
                   "seconds": round(seconds, 6)}, True)
        return 0 if failed == 0 else 1
    width = max(len(r.name) for r, _ in timed)
    for r, _ in timed:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.number:2d}  {r.name:<{width}}  [{r.detail}]")
    print(f"{len(timed) - failed}/{len(timed)} criteria passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Raises argparse's own usage errors, so that main prints them on one
    line; subparsers are built with the same class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):
        # argparse drops the value of --option=-- and stores an empty list
        if arg_strings == ["--"] and action.nargs is None:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="masure",
                 description="exact Bruhat-Tits tree / Kac-Moody computations")
    ap.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                    help="seed for randomized checks")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="finite/affine/indefinite trichotomy")
    p.add_argument("--matrix", required=True, help="JSON matrix or @file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("roots", help="positive real roots by height")
    p.add_argument("--data", required=True, help="root datum JSON or @file")
    p.add_argument("--max-height", type=_bounded(1, ROOTS_MAX_HEIGHT), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("weyl", help="length, reduced word, inversion set")
    p.add_argument("--data", required=True)
    p.add_argument("--word", required=True, help="comma-separated indices, e for identity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_weyl)

    p = sub.add_parser("cone", help="Tits cone membership certificate")
    p.add_argument("--data", required=True)
    p.add_argument("--vector", required=True, help="comma-separated rationals")
    p.add_argument("--cap", type=_bounded(1, CONE_MAX_CAP), default=None,
                   help=f"greedy steps, 1..{CONE_MAX_CAP} (default 10 per unit of the vector's "
                        f"size, at most {CONE_MAX_CAP})")
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("prenilpotent", help="prenilpotent pair verdict and interval")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", required=True,
                   help=f"root coordinates, summing to at most {PRENILPOTENT_MAX_HEIGHT} "
                        "in absolute value")
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=_cmd_prenilpotent)

    p = sub.add_parser("tree", help="Bruhat-Tits tree operations")
    tsub = p.add_subparsers(dest="tree_cmd", required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", required=True, help='e.g. "F2(t)" or "Q3"')
    common = argparse.ArgumentParser(add_help=False, parents=[field])
    common.add_argument("--json", action="store_true")
    q = tsub.add_parser("act", parents=[common])
    q.add_argument("--g", required=True, help='JSON [[a,b],[c,d]] of element strings')
    q.add_argument("--p", required=True, help='point "(x; tail)"')
    q = tsub.add_parser("dist", parents=[common])
    q.add_argument("--p", required=True)
    q.add_argument("--q", required=True)
    q = tsub.add_parser("retract", parents=[common])
    q.add_argument("--p", required=True)
    q.add_argument("--q", default=None, help="retract the segment [p,q] when given")
    q.add_argument("--center", choices=("+", "-"), default="-",
                   help="end at +oo or -oo")
    q = tsub.add_parser("geodesic", parents=[common])
    q.add_argument("--p", required=True)
    q.add_argument("--q", required=True)
    q.add_argument("--n", type=_bounded(1, GEODESIC_MAX_N), default=4)
    q = tsub.add_parser("neighbors", parents=[common])
    q.add_argument("--p", required=True)
    q = tsub.add_parser("ball", parents=[field])
    q.add_argument("--p", default=None, help="center vertex (default origin)")
    q.add_argument("--radius", type=_bounded(0), required=True,
                   help=f"at most {BALL_MAX_VERTICES} vertices (about 1 s): 12 over F2(t), "
                        "8 over F3(t) or Q3")
    q.add_argument("--format", choices=["text", "json", "dot"], default="text")
    q = tsub.add_parser("orbit", parents=[common])
    q.add_argument("--p", required=True)
    q = tsub.add_parser("exchange", parents=[common])
    q.add_argument("--a", required=True, help="nonzero field element")
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("hecke", help="verify a piecewise-affine path")
    hsub = p.add_subparsers(dest="hecke_cmd", required=True)
    q = hsub.add_parser("verify", help=f"each fold's d*ht(D) may be at most {HECKE_MAX_FOLD}")
    q.add_argument("--data", required=True)
    q.add_argument("--path", required=True,
                   help='JSON {"breakpoints": [...], "positions": [[...]]} or @file')
    q.add_argument("--shape", required=True)
    q.add_argument("--chamber", choices=("+", "-"), default="-",
                   help="sign of the reference chamber")
    p.set_defaults(fn=_cmd_hecke)

    p = sub.add_parser("gm", help="print a divided-power exponential coefficient")
    p.add_argument("--n", type=_bounded(0, GM_MAX_N), required=True,
                   help=f"index, 0..{GM_MAX_N} (L_{GM_MAX_N} takes about 0.15 s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_gm)

    p = sub.add_parser("uma", help="completed-unipotent membership / factorization")
    usub = p.add_subparsers(dest="uma_cmd", required=True)
    for name in ("member", "factorize"):
        q = usub.add_parser(name)
        q.add_argument("--matrix", required=True,
                       help="JSON 2x2 of coefficient lists (low degree first)")
        q.add_argument("--mod", type=_bounded(1, UMA_MAX_MOD), required=True,
                       help="modulus N >= 1 (mod t^N)")
        q.add_argument("--ring", default="F2", help="F<p> or Q")
    p.set_defaults(fn=_cmd_uma)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per criterion: number, name, ok, detail, seconds")
    p.set_defaults(fn=_cmd_selftest)
    return ap


# options whose values may start with "-", which argparse reads as a flag
# unless the value is written "--vector=-1,0"
_SIGNED_OPTIONS = ("--vector", "--alpha", "--beta", "--shape", "--a")


def _glue_signed(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_glue_signed(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except (UsageError, ParseError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
