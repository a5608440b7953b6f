"""CLI dispatch: outputs, exit codes, JSON round-trips."""

import argparse
import json
import time
from fractions import Fraction

import pytest
from test_cone import apply_word

from masure.cli import (
    BALL_MAX_VERTICES,
    BALL_TERMS_PER_VERTEX,
    CONE_MAX_CAP,
    GEODESIC_MAX_N,
    GM_MAX_N,
    HECKE_MAX_FOLD,
    MATRIX_MAX_INDICES,
    PRENILPOTENT_MAX_HEIGHT,
    ROOTS_MAX_HEIGHT,
    TREE_MAX_EXPONENT,
    UMA_MAX_MOD,
    WEYL_MAX_WORD,
    _ball_size,
    build_parser,
    main,
)
from masure.fields import PRIME_LIMIT, parse_field
from masure import tree
from masure.kmdata import affine_sl2_data
from masure.weyl import weyl_element


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("usage error: ")


def chain(n: int) -> str:
    """The root datum of the Cartan matrix of A_n, as --data."""
    return json.dumps({"matrix": [[2 if i == j else -(abs(i - j) == 1) for j in range(n)]
                                  for i in range(n)]})


class TestClassify:
    def test_affine(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "[[2,-2],[-2,2]]")
        assert code == 0
        assert json.loads(out) == {"class": "affine"}

    def test_components(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "[[2,0],[0,2]]")
        assert code == 0
        obj = json.loads(out)
        assert [c["class"] for c in obj["components"]] == ["finite", "finite"]

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "classify", "--matrix", "[[2,1],[1,2]]")
        assert code == 1 and "axiom" in err

    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "classify")
        assert_usage_error(code, out, err)
        assert err == ("usage error: masure classify: the following arguments are required: "
                       "--matrix\n")

    @pytest.mark.parametrize("matrix", ["5", "{}", "[]", "[1, 2]", '[[2,"a"],[0,2]]',
                                        "[[2,-1.5],[-1,2]]", "x",
                                        # more digits than int() takes, nesting deeper
                                        # than the decoder's recursion limit
                                        f"[[2,-{'1' * 5000}],[-1,2]]", "[" * 100000])
    def test_malformed_matrix(self, capsys, matrix):
        assert_usage_error(*run(capsys, "classify", "--matrix", matrix))

    def test_indices_budget(self, capsys):
        identity = [[2 if i == j else 0 for j in range(MATRIX_MAX_INDICES)]
                    for i in range(MATRIX_MAX_INDICES)]
        code, out, _ = run(capsys, "classify", "--matrix", json.dumps(identity))
        assert code == 0 and len(json.loads(out)["components"]) == MATRIX_MAX_INDICES
        big = [row + [0] for row in identity] + [[0] * MATRIX_MAX_INDICES + [2]]
        code, out, err = run(capsys, "classify", "--matrix", json.dumps(big))
        assert_usage_error(code, out, err)
        assert f"{MATRIX_MAX_INDICES + 1} rows, more than {MATRIX_MAX_INDICES}" in err


class TestTree:
    def test_dist_example(self, capsys):
        code, out, _ = run(capsys, "tree", "dist", "--field", "F2(t)",
                           "--p", "(0; 0)", "--q", "(1; t^-3)")
        assert code == 0 and out.strip() == "5"

    def test_act(self, capsys):
        code, out, _ = run(capsys, "tree", "act", "--field", "F2(t)",
                           "--g", '[["1","t^-3"],["0","1"]]', "--p", "(1; 0)")
        assert code == 0 and out.strip() == "(1; t^-3)"

    @pytest.mark.parametrize("g", ["5", '[["1"]]', "[[1,0],[0,1]]", '[["1","0"],["0"]]',
                                   '[["1","0"],["0","1"],["1","0"]]', '[["x","0"],["0","1"]]',
                                   "nope"])
    def test_act_malformed_matrix(self, capsys, g):
        assert_usage_error(*run(capsys, "tree", "act", "--field", "F2(t)",
                                "--g", g, "--p", "(1; 0)"))

    def test_retract_segment_json(self, capsys):
        code, out, _ = run(capsys, "tree", "retract", "--field", "F2(t)",
                           "--p", "(5; t^-6)", "--q", "(5; t^-6+t^-7)",
                           "--center", "-", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["values"] == ["7", "6", "9"]
        assert obj["folds"] == [["1/4", "6"]]

    @pytest.mark.parametrize("field, p", [("F2(t)", "(0; 0"), ("F2(t)", "(a; 0)"),
                                          ("F2(t)", "(1/0; 0)"), ("bogus", "(0; 0)")])
    def test_malformed_point_or_field(self, capsys, field, p):
        assert_usage_error(*run(capsys, "tree", "dist", "--field", field,
                                "--p", p, "--q", "(0; 0)"))

    @pytest.mark.parametrize("argv", [
        ("ball", "--field", "F2(t)", "--radius", "1", "--json"),
        ("retract", "--field", "F2(t)", "--p", "(0; 0)", "--q", "(1; 0)", "--center", "bogus"),
        ("retract", "--field", "F2(t)", "--p", "(0; 0)", "--q", "(1; 0)", "--center", "+inf"),
    ])
    def test_unknown_option_or_value(self, capsys, argv):
        assert_usage_error(*run(capsys, "tree", *argv))

    @pytest.mark.parametrize("argv", [("--field=--", "--p", "(0; 0)", "--q", "(1; 0)"),
                                      ("--field", "F2(t)", "--p=--", "--q", "(1; 0)")])
    def test_double_dash_value(self, capsys, argv):
        # argparse drops a value written --option=--, which reached the
        # handlers as an empty list
        assert_usage_error(*run(capsys, "tree", "dist", *argv))

    def test_ball_negative_radius(self, capsys):
        assert_usage_error(*run(capsys, "tree", "ball", "--field", "F2(t)", "--radius", "-1"))

    @pytest.mark.parametrize("field, radius", [("F2(t)", "40"), ("F2(t)", "13"),
                                               ("F3(t)", "9"), ("Q3", "1000000000")])
    def test_ball_over_budget(self, capsys, field, radius):
        code, out, err = run(capsys, "tree", "ball", "--field", field, "--radius", radius)
        assert_usage_error(code, out, err)
        assert str(BALL_MAX_VERTICES) in err

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 79])
    def test_ball_size_is_the_vertex_count(self, q):
        for radius in range(-1, 16):
            count = 1 + sum((q + 1) * q ** (k - 1) for k in range(1, radius + 1))
            got = _ball_size(q, radius)
            assert got == count if count <= BALL_MAX_VERTICES else got > BALL_MAX_VERTICES

    @pytest.mark.parametrize("field, radius", [("F2(t)", 0), ("F2(t)", 4), ("Q3", 3), ("F5(t)", 2)])
    def test_ball_edges(self, capsys, field, radius):
        code, out, _ = run(capsys, "tree", "ball", "--field", field, "--radius", str(radius),
                           "--format", "json")
        obj = json.loads(out)
        cfg = parse_field(field)
        verts = [tree.parse_point(cfg, v) for v in obj["vertices"]]
        index = {v: i for i, v in enumerate(verts)}
        edges = sorted((index[v], index[w]) for v in verts for w in tree.neighbors(v)
                       if w in index and index[v] < index[w])
        assert code == 0 and obj["edges"] == [list(e) for e in edges]
        assert len(verts) == _ball_size(cfg.p, radius) == len(edges) + 1

    def test_ball_dot(self, capsys):
        code, out, _ = run(capsys, "tree", "ball", "--field", "F2(t)",
                           "--radius", "1", "--format", "dot")
        assert code == 0
        assert out.startswith("graph tree {") and out.count("--") == 3

    def test_ball_json_counts(self, capsys):
        code, out, _ = run(capsys, "tree", "ball", "--field", "F3(t)",
                           "--radius", "2", "--format", "json")
        obj = json.loads(out)
        assert len(obj["vertices"]) == 17
        assert len(obj["edges"]) == 16

    def test_orbit(self, capsys):
        code, out, _ = run(capsys, "tree", "orbit", "--field", "Q2", "--p", "(1; 0)")
        assert code == 0 and out.strip() == "1"

    def test_neighbors_padic(self, capsys):
        code, out, _ = run(capsys, "tree", "neighbors", "--field", "Q3", "--p", "(0; 0)")
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_exchange(self, capsys):
        code, out, _ = run(capsys, "tree", "exchange", "--field", "F2(t)",
                           "--a", "t", "--json")
        assert code == 0
        assert json.loads(out)["vertex"] == "1"

    def test_geodesic(self, capsys):
        code, out, _ = run(capsys, "tree", "geodesic", "--field", "F2(t)",
                           "--p", "(1; t^-3)", "--q", "(0; 0)", "--n", "5")
        assert code == 0
        assert out.strip().splitlines()[2] == "(3; 0)"


class TestAlgebraCommands:
    def test_roots_json(self, capsys):
        code, out, _ = run(capsys, "roots", "--data", '{"matrix": [[2,-2],[-2,2]]}',
                           "--max-height", "5", "--json")
        obj = json.loads(out)
        assert obj["by_height"]["1"] == [[0, 1], [1, 0]]
        assert obj["by_height"]["5"] == [[2, 3], [3, 2]]

    def test_weyl(self, capsys):
        code, out, _ = run(capsys, "weyl", "--data", '{"matrix": [[2,-2],[-2,2]]}',
                           "--word", "1,0,1,0", "--json")
        obj = json.loads(out)
        assert obj["length"] == 4
        assert len(obj["inversion_set"]) == 4

    def test_weyl_word_not_integer(self, capsys):
        assert_usage_error(*run(capsys, "weyl", "--data", '{"matrix": [[2,-2],[-2,2]]}',
                                "--word", "1,a"))

    def test_cone(self, capsys):
        code, out, _ = run(capsys, "cone", "--data", '{"matrix": [[2,-1],[-5,2]]}',
                           "--vector", "1,0")
        assert json.loads(out)["status"] == "not_in_cone"

    HYPERBOLIC = '{"matrix": [[2,-2,0],[-2,2,-1],[0,-1,2]]}'

    RAY = "sum c_j alpha_j < 0 at a greedy iterate, for a ray c of {c >= 0, A c <= 0}"

    @pytest.mark.parametrize("vector, ray", [("1,0,0", [3, 4, 2]), ("1,1,1", [1, 1, 0])])
    def test_cone_hyperbolic_refuted(self, capsys, vector, ray):
        code, out, _ = run(capsys, "cone", "--data", self.HYPERBOLIC, "--vector", vector)
        assert code == 0 and json.loads(out) == {"status": "not_in_cone", "reason": self.RAY,
                                                 "ray": ray, "step": 0}

    def test_cone_hyperbolic_in_cone(self, capsys):
        code, out, _ = run(capsys, "cone", "--data", self.HYPERBOLIC, "--vector=-1,-1,-1")
        assert code == 0
        assert out == ('{"image": ["-1", "-1", "0"], "status": "in_cone", "steps": 1, '
                       '"word": [2]}\n')

    def test_cone_non_symmetrizable_refuted(self, capsys):
        # no Lorentzian form, and no answer but unknown before the rays
        code, out, _ = run(capsys, "cone", "--data",
                           '{"matrix": [[2,-2,-1],[-1,2,-1],[-1,-1,2]]}', "--vector", "1,0,0")
        assert code == 0 and json.loads(out) == {"status": "not_in_cone", "reason": self.RAY,
                                                 "ray": [1, 1, 1], "step": 0}

    def test_cone_decomposable(self, capsys):
        code, out, _ = run(capsys, "cone", "--data", '{"matrix": [[2,-2,0],[-2,2,0],[0,0,2]]}',
                           "--vector=-1,0,0,0")
        assert code == 0 and json.loads(out) == {
            "status": "not_in_cone", "reason": "delta(v) = 0 but v is not inessential",
            "ray": [1, 1, 0], "step": 0}

    @pytest.mark.parametrize("argv", [("cone", "--vector", "1,0", "--cap", "0"),
                                      ("cone", "--vector", "1,0", "--cap=--"),
                                      ("roots", "--max-height", "0")])
    def test_budget_below_one(self, capsys, argv):
        assert_usage_error(*run(capsys, argv[0], "--data", '{"matrix": [[2,-1],[-1,2]]}',
                                *argv[1:]))

    @pytest.mark.parametrize("argv", [
        ("cone", "--vector", "1"),
        ("cone", "--vector", "1,2,3,4"),
        ("prenilpotent", "--alpha", "1,0,0", "--beta", "0,1"),
    ])
    def test_dimension_mismatch(self, capsys, argv):
        code, out, err = run(capsys, argv[0], "--data", '{"matrix": [[2,-1],[-1,2]]}', *argv[1:])
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "expected 2" in err

    MALFORMED_DATA = [
        "5", "[1]", "x", "{}", '{"matrix": 5}', '{"matrix": []}', '{"matrix": [1, 2]}',
        '{"matrix": [[2,-1.5],[-1,2]]}', '{"matrix": [[2,true],[0,2]]}',
        '{"matrix": [[2,-1],[-1,2]], "realization": 5}',
        '{"matrix": [[2,-1],[-1,2]], "realization": {"rank": 2}}',
        '{"matrix": [[2,-1],[-1,2]], "realization": {"rank": [2], "simple_roots": [[2,-1],[-1,2]],'
        ' "simple_coroots": [[1,0],[0,1]]}}',
        '{"matrix": [[2,-1],[-1,2]], "realization": {"rank": 2, "simple_roots": 7,'
        ' "simple_coroots": [[1,0],[0,1]]}}',
        chain(MATRIX_MAX_INDICES + 1),
    ]
    DATA_COMMANDS = [
        ("roots", "--max-height", "2"),
        ("weyl", "--word", "0,1"),
        ("cone", "--vector", "1,0"),
        ("prenilpotent", "--alpha", "1,0", "--beta", "0,1"),
        ("hecke", "verify", "--path", '{"breakpoints": [0, 1], "positions": [[0, 0], [1, 0]]}',
         "--shape", "1,0"),
    ]

    @pytest.mark.parametrize("data", MALFORMED_DATA)
    @pytest.mark.parametrize("argv", DATA_COMMANDS, ids=lambda a: a[0])
    def test_malformed_data(self, capsys, argv, data):
        head = 2 if argv[0] == "hecke" else 1
        assert_usage_error(*run(capsys, *argv[:head], "--data", data, *argv[head:]))

    def test_data_indices_budget(self, capsys):
        # one index more is in MALFORMED_DATA
        code, out, _ = run(capsys, "roots", "--data", chain(MATRIX_MAX_INDICES),
                           "--max-height", "1", "--json")
        assert code == 0 and len(json.loads(out)["by_height"]["1"]) == MATRIX_MAX_INDICES

    def test_data_with_realization(self, capsys):
        real = ('{"matrix": [[2,-2],[-2,2]], "realization": {"rank": 3, '
                '"simple_roots": [[-2,0,1],[2,0,0]], "simple_coroots": [[-1,1,0],[1,0,0]]}}')
        code, out, _ = run(capsys, "weyl", "--data", real, "--word", "0,1", "--json")
        expected = weyl_element(affine_sl2_data(), (0, 1)).y_mat
        assert code == 0 and json.loads(out)["action_on_y"] == [list(r) for r in expected]

    def test_prenilpotent(self, capsys):
        code, out, _ = run(capsys, "prenilpotent", "--data",
                           '{"matrix": [[2,-1],[-1,2]]}',
                           "--alpha", "1,0", "--beta", "0,1")
        obj = json.loads(out)
        assert obj["verdict"] == "prenilpotent"
        assert obj["closed_interval"] == [[0, 1], [1, 0], [1, 1]]

    def test_prenilpotent_any_realization(self, capsys):
        # the same root datum in another basis of Y gives the same answer
        real = ('{"matrix": [[2,-1],[-5,2]], "realization": {"rank": 2, '
                '"simple_roots": [[2,-7],[-1,3]], "simple_coroots": [[1,0],[1,1]]}}')
        argv = ("--alpha", "1,0", "--beta", "1,1")
        minimal = run(capsys, "prenilpotent", "--data", '{"matrix": [[2,-1],[-5,2]]}', *argv)
        assert json.loads(minimal[1])["verdict"] == "prenilpotent"
        assert run(capsys, "prenilpotent", "--data", real, *argv) == minimal

    RANK3_REALIZATION = ('{"matrix": [[2,-1],[-5,2]], "realization": {"rank": 3, '
                         '"simple_roots": [[2,-5,0],[-1,2,1]], '
                         '"simple_coroots": [[1,0,0],[0,1,0]]}}')

    def test_cone_rank3_realization(self, capsys):
        # alpha_0^vee, refuted as in the minimal realization
        got = run(capsys, "cone", "--data", self.RANK3_REALIZATION, "--vector", "1,0,0")
        assert got[0] == 0 and json.loads(got[1]) == {"status": "not_in_cone", "reason": self.RAY,
                                                      "ray": [2, 5], "step": 0}
        assert run(capsys, "cone", "--data", '{"matrix": [[2,-1],[-5,2]]}', "--vector", "1,0") == got

    def test_prenilpotent_rank3_realization(self, capsys):
        argv = ("--alpha", "1,0", "--beta=-1,-1")
        got = run(capsys, "prenilpotent", "--data", self.RANK3_REALIZATION, *argv)
        assert got[0] == 0 and json.loads(got[1]) == {
            "verdict": "not_prenilpotent",
            "reason": "alpha(beta^vee) = -5 and beta(alpha^vee) = -1: negative, with product >= 4"}
        assert run(capsys, "prenilpotent", "--data", '{"matrix": [[2,-1],[-5,2]]}', *argv) == got

    def test_prenilpotent_high_root(self, capsys):
        # the root is found by descent, without enumerating the roots below it
        code, out, _ = run(capsys, "prenilpotent", "--data", '{"matrix": [[2,-2],[-2,2]]}',
                           "--alpha", "149,150", "--beta", "1,0")
        assert code == 0
        assert json.loads(out) == {
            "verdict": "not_prenilpotent",
            "reason": "alpha(beta^vee) = -2 and beta(alpha^vee) = -2: negative, with product >= 4"}

    def test_prenilpotent_witnesses_of_a_high_root(self, capsys):
        # one reflection is a witness; no word search has to reach its length
        code, out, _ = run(capsys, "prenilpotent", "--data", '{"matrix": [[2,-2],[-2,2]]}',
                           "--alpha", "50,51", "--beta", "0,1")
        obj = json.loads(out)
        assert code == 0 and obj["verdict"] == "prenilpotent"
        for root in ((50, 51), (0, 1)):
            assert min(apply_word([[2, -2], [-2, 2]], obj["to_positive"], root)) >= 0
            assert max(apply_word([[2, -2], [-2, 2]], obj["to_negative"], root)) <= 0

    @pytest.mark.parametrize("alpha", ["2,0", "1,-1", "0,0", "3,1"])
    def test_prenilpotent_not_a_root(self, capsys, alpha):
        code, out, err = run(capsys, "prenilpotent", "--data", '{"matrix": [[2,-2],[-2,2]]}',
                             "--alpha", alpha, "--beta", "1,0")
        assert code == 1 and out == "" and err.strip().endswith("is not a real root")

    @pytest.mark.parametrize("alpha", ["3/2,0", "1.5,0", "1,1/2"])
    def test_prenilpotent_fractional_root(self, capsys, alpha):
        assert_usage_error(*run(capsys, "prenilpotent", "--data", '{"matrix": [[2,-1],[-1,2]]}',
                                "--alpha", alpha, "--beta", "0,1"))

    # A_2^(2) has delta = alpha_0 + 2 alpha_1 and C_2^(1) has delta = alpha_0 +
    # 2 alpha_1 + alpha_2: both solve A delta = 0, not A^T delta = 0
    TWISTED = '{"matrix": [[2,-1],[-4,2]]}'
    C21 = '{"matrix": [[2,-1,0],[-2,2,-2],[0,-1,2]]}'

    @pytest.mark.parametrize("data, alpha, beta, to_negative", [
        (TWISTED, "1,0", "1,1", [1, 0]),
        (C21, "0,0,1", "1,1,0", [2, 1, 2, 1, 0]),
    ])
    def test_prenilpotent_non_symmetric_affine(self, capsys, data, alpha, beta, to_negative):
        code, out, _ = run(capsys, "prenilpotent", "--data", data, "--alpha", alpha,
                           "--beta", beta)
        obj = json.loads(out)
        assert code == 0 and obj["verdict"] == "prenilpotent"
        assert obj["to_positive"] == [] and obj["to_negative"] == to_negative

    def test_twisted_simple_roots_not_prenilpotent(self, capsys):
        code, out, _ = run(capsys, "prenilpotent", "--data", self.TWISTED,
                           "--alpha", "1,0", "--beta", "0,1")
        assert code == 0
        assert json.loads(out) == {
            "verdict": "not_prenilpotent",
            "reason": "alpha(beta^vee) = -4 and beta(alpha^vee) = -1: negative, with product >= 4"}

    @pytest.mark.parametrize("data, vector", [(TWISTED, "-3,0,1"), (C21, "-3,-2,-3,1")])
    def test_cone_non_symmetric_affine_not_refuted(self, capsys, data, vector):
        # delta(v) > 0, so v lies in the Tits cone; a cap of 1 leaves it undecided
        code, out, _ = run(capsys, "cone", "--data", data, f"--vector={vector}", "--cap", "1")
        assert code == 0 and json.loads(out) == {"status": "unknown", "steps": 1}
        code, out, _ = run(capsys, "cone", "--data", data, f"--vector={vector}")
        assert code == 0 and json.loads(out)["status"] == "in_cone"

    def test_gm(self, capsys):
        code, out, _ = run(capsys, "gm", "--n", "2")
        assert code == 0 and out.strip() == "1/2*Z2 + 1/2*Z1^2"
        assert run(capsys, "gm", "--n", "0")[:2] == (0, "1\n")

    @pytest.mark.parametrize("n", ["-1", str(GM_MAX_N + 1)])
    def test_gm_index_out_of_budget(self, capsys, n):
        code, out, err = run(capsys, "gm", "--n", n)
        assert_usage_error(code, out, err)
        assert f"0..{GM_MAX_N}" in err

    def test_uma_member(self, capsys):
        code, out, _ = run(capsys, "uma", "member", "--matrix",
                           "[[[1,0],[0,0]],[[0,1],[1,0]]]", "--mod", "2",
                           "--ring", "F2")
        assert code == 0 and json.loads(out)["member"] is True

    def test_uma_factorize_q(self, capsys):
        # L = [[1,0],[2t,1]], D = diag(1 + t/2, 1/(1 + t/2)), U = [[1,1/3],[0,1]]
        m = '[[["1","1/2"],["1/3","1/6"]],[["0","2","1"],["1","1/6","7/12"]]]'
        code, out, _ = run(capsys, "uma", "factorize", "--matrix", m, "--mod", "3",
                           "--ring", "Q")
        assert code == 0
        assert json.loads(out) == {
            "L": [[["1", "0", "0"], ["0", "0", "0"]], [["0", "2", "0"], ["1", "0", "0"]]],
            "D": [[["1", "1/2", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["1", "-1/2", "1/4"]]],
            "U": [[["1", "0", "0"], ["1/3", "0", "0"]], [["0", "0", "0"], ["1", "0", "0"]]]}

    @pytest.mark.parametrize("argv", [
        ("--matrix", "[[1,0],[0,1]]", "--mod", "3"),
        ("--matrix", "[[1,0]]", "--mod", "3"),
        ("--matrix", "[[[1]]]", "--mod", "4"),
        ("--matrix", "[[[1],[0]],[[0],[1],[2]]]", "--mod", "2"),
        ("--matrix", '{"a": 1}', "--mod", "2"),
        ("--matrix", "nope", "--mod", "2"),
        ("--matrix", "[[[1],[0]],[[0],[1]]]", "--mod", "0"),
        ("--matrix", '[[["x"],[0]],[[0],[1]]]', "--mod", "2"),
        ("--matrix", '[[["x"],[0]],[[0],[1]]]', "--mod", "2", "--ring", "Q"),
        ("--matrix", "[[[1],[0]],[[0],[true]]]", "--mod", "2"),
        ("--matrix", "[[[1],[0]],[[0],[1.5]]]", "--mod", "2", "--ring", "F5"),
        ("--matrix", "[[[1],[0]],[[0],[1]]]", "--mod", "2", "--ring", "F4"),
        ("--matrix", "[[[1],[0]],[[0],[1]]]", "--mod", "2", "--ring", "Z"),
    ])
    @pytest.mark.parametrize("cmd", ["member", "factorize"])
    def test_uma_malformed_input(self, capsys, cmd, argv):
        assert_usage_error(*run(capsys, "uma", cmd, *argv))


class TestHeckeCommand:
    PATH = ('{"breakpoints": ["0","1/4","1"], '
            '"positions": [["7/2"],["3"],["9/2"]]}')

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                           "--path", self.PATH, "--shape", "2", "--chamber", "-")
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        # payload round-trip: printing then parsing is the identity
        assert obj["path"] == json.loads(self.PATH)

    def test_shape_dimension_mismatch(self, capsys):
        code, out, err = run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                             "--path", self.PATH, "--shape", "2,9", "--chamber", "-")
        assert code == 2 and out == "" and "expected 1" in err

    def test_path_dimension_mismatch(self, capsys):
        bad = '{"breakpoints": [0, 1], "positions": [[0], [1, 5]]}'
        code, out, err = run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                             "--path", bad, "--shape", "2", "--chamber", "-")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "expected 1" in err

    @pytest.mark.parametrize("path", [
        '{"breakpoints": [0, 1]}',
        '{"positions": [[0], [1]]}',
        "[1]",
        '{"breakpoints": ["0", "a"], "positions": [[0], [1]]}',
    ])
    def test_malformed_path(self, capsys, path):
        assert_usage_error(*run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                                "--path", path, "--shape", "2"))

    @pytest.mark.parametrize("words", ["0", "6", "17"])
    def test_words_is_unknown(self, capsys, words):
        # the billiard test bounds its own word search: no option sets it
        code, out, err = run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                             "--path", self.PATH, "--shape", "2", "--words", words)
        assert_usage_error(code, out, err)
        assert "unrecognized arguments: --words" in err

    def test_no_chain(self, capsys):
        # the fold bends the wrong way for +C_f: no chain explains it
        code, out, _ = run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                           "--path", self.PATH, "--shape", "2", "--chamber", "+")
        assert code == 1
        assert json.loads(out)["folds"] == [{"time": "1/4", "verdict": "no_chain"}]

    @pytest.mark.parametrize("chamber", ["bogus", "plus"])
    def test_unknown_chamber(self, capsys, chamber):
        assert_usage_error(*run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                                "--path", self.PATH, "--shape", "2", "--chamber", chamber))

    def test_reject(self, capsys):
        bad = ('{"breakpoints": ["0","1/2","1"], '
               '"positions": [["19/4"],["15/4"],["19/4"]]}')
        code, out, _ = run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                           "--path", bad, "--shape", "2", "--chamber", "-")
        assert code == 1
        assert json.loads(out)["verified"] is False


class TestSignedValues:
    """Option values that start with "-" parse like the "--opt=value" form."""

    A2 = '{"matrix": [[2,-1],[-1,2]]}'
    PATH = '{"breakpoints": [0, 1], "positions": [[0, 0], [-1, 0]]}'

    @pytest.mark.parametrize("argv", [
        ("cone", "--data", A2, "--vector", "-1,0"),
        ("prenilpotent", "--data", A2, "--alpha", "-1,0", "--beta", "0,1"),
        ("prenilpotent", "--data", A2, "--alpha", "1,0", "--beta", "-1,-1"),
        ("hecke", "verify", "--data", A2, "--path", PATH, "--shape", "-1,0"),
        ("tree", "exchange", "--field", "F2(t)", "--json", "--a", "-t^2"),
        ("tree", "exchange", "--field", "Q3", "--json", "--a", "-1/3"),
    ])
    def test_same_as_equals_form(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        glued = list(argv[:-2]) + [f"{argv[-2]}={argv[-1]}"]
        assert run(capsys, *glued) == (code, out, err)

    def test_exchange_vertex(self, capsys):
        _, out, _ = run(capsys, "tree", "exchange", "--field", "F2(t)", "--json", "--a", "-t^2")
        assert json.loads(out)["vertex"] == "2"
        _, out, _ = run(capsys, "tree", "exchange", "--field", "Q3", "--json", "--a", "-1/3")
        assert json.loads(out)["vertex"] == "-1"

    @pytest.mark.parametrize("argv", [
        ("cone", "--data", A2, "--vector", "-x,0"),
        ("prenilpotent", "--data", A2, "--alpha", "-1,0", "--beta", "-"),
        ("tree", "exchange", "--field", "F3(t)", "--a", "-zz"),
        ("tree", "exchange", "--field", "Q3", "--a", "-1/3/3"),
    ])
    def test_malformed_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("usage error")


class TestDecimalExponent:
    """A rational written as text takes no decimal exponent: 1e999999999
    would build 10^999999999.  A JSON number keeps its exponent, which the
    float range bounds."""

    A2 = '{"matrix": [[2,-1],[-1,2]]}'
    PATH = '{"breakpoints": [0, 1], "positions": [[0, 0], [1, 0]]}'

    @pytest.mark.parametrize("argv", [
        ("cone", "--data", A2, "--vector", "1e999999999,0"),
        ("cone", "--data", A2, "--vector", "1e9,0"),
        ("prenilpotent", "--data", A2, "--alpha", "1e999999999,0", "--beta", "0,1"),
        ("hecke", "verify", "--data", A2, "--path", PATH, "--shape", "1e99999999,1"),
        ("hecke", "verify", "--data", A2, "--shape", "1,0",
         "--path", '{"breakpoints": ["0", "1E999999999"], "positions": [[0, 0], [1, 0]]}'),
        ("hecke", "verify", "--data", A2, "--shape", "1,0",
         "--path", '{"breakpoints": [0, 1], "positions": [[0, 0], ["1e999999999", 0]]}'),
        ("uma", "member", "--ring", "Q", "--mod", "2",
         "--matrix", '[[["1e999999999"],[0]],[[0],[1]]]'),
    ])
    def test_text_exponent_is_usage_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert_usage_error(code, out, err)
        assert "write it as an integer, a/b or a decimal" in err

    @pytest.mark.parametrize("argv, same", [
        (("hecke", "verify", "--data", A2, "--shape", "1,0", "--path",
          '{"breakpoints": [0, 1e0], "positions": [[0, 0], [1e0, 0]]}'),
         ("hecke", "verify", "--data", A2, "--shape", "1,0", "--path", PATH)),
        (("uma", "factorize", "--ring", "Q", "--mod", "2", "--matrix", "[[[1],[2e-1]],[[0],[1]]]"),
         ("uma", "factorize", "--ring", "Q", "--mod", "2", "--matrix",
          '[[[1],["1/5"]],[[0],[1]]]')),
    ])
    def test_json_number_exponent(self, capsys, argv, same):
        got = run(capsys, *argv)
        assert got[0] in (0, 1) and got[2] == "" and got == run(capsys, *same)


class TestSelftest:
    def test_subset(self, capsys):
        code, out, _ = run(capsys, "selftest", "--criteria", "1,2,10")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert [int(l.split()[1]) for l in lines] == [1, 2, 10]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "--criteria", "1,2,10", "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["number"] for r in rows] == [1, 2, 10]
        assert all(set(r) == {"number", "name", "ok", "detail", "seconds"} for r in rows)
        text_code, text, _ = run(capsys, "selftest", "--criteria", "1,2,10")
        marks = [line.split()[0] for line in text.splitlines()[:3]]
        assert [r["ok"] for r in rows] == [m == "PASS" for m in marks]
        assert code == text_code

    def test_seed_environment_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("MASURE_SEED", "abc")
        code, out, err = run(capsys, "selftest", "--criteria", "1")
        assert code == 0 and err == "" and out.startswith("PASS   1 ")

    @pytest.mark.parametrize("criteria", ["13", "1,0", "x"])
    def test_unknown_criteria(self, capsys, criteria):
        code, out, err = run(capsys, "selftest", "--criteria", criteria)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "criteria" in err


def test_data_file_argument(tmp_path, capsys):
    f = tmp_path / "data.json"
    f.write_text('{"matrix": [[2,-2],[-2,2]]}')
    code, out, _ = run(capsys, "roots", "--data", f"@{f}", "--max-height", "1", "--json")
    assert code == 0
    assert json.loads(out)["by_height"]["1"] == [[0, 1], [1, 0]]


class TestTreeSizeBudget:
    """Exponents and positions up to TREE_MAX_EXPONENT are taken, one more is
    a one-line usage error."""

    CAP = TREE_MAX_EXPONENT

    def test_laurent_exponent(self, capsys):
        code, out, _ = run(capsys, "tree", "exchange", "--field", "F2(t)", "--a",
                           f"t^-{self.CAP}+t^{self.CAP}", "--json")
        assert code == 0 and json.loads(out)["vertex"] == str(-self.CAP)
        for a in (f"t^-{self.CAP + 1}", f"t^{self.CAP + 1}", f"(1)/(1+t^{self.CAP + 1})"):
            code, out, err = run(capsys, "tree", "exchange", "--field", "F2(t)", "--a", a)
            assert_usage_error(code, out, err)
            assert str(self.CAP) in err

    def test_padic_valuation(self, capsys):
        big = 3 ** self.CAP
        code, out, _ = run(capsys, "tree", "exchange", "--field", "Q3", "--a", f"1/{big}",
                           "--json")
        assert code == 0 and json.loads(out)["vertex"] == str(-self.CAP)
        assert_usage_error(*run(capsys, "tree", "exchange", "--field", "Q3",
                                "--a", f"{3 * big}"))

    def test_matrix_entry(self, capsys):
        g = f'[["1","t^-{self.CAP}"],["0","1"]]'
        code, out, _ = run(capsys, "tree", "act", "--field", "F3(t)", "--g", g, "--p", "(0; 0)")
        assert code == 0 and out.strip() == f"(0; t^-{self.CAP})"
        g = f'[["1","t^-{self.CAP + 1}"],["0","1"]]'
        assert_usage_error(*run(capsys, "tree", "act", "--field", "F3(t)", "--g", g,
                                "--p", "(0; 0)"))

    @pytest.mark.parametrize("field, tail", [("F2(t)", "(1)/(1+t)"), ("Q3", "1/2")])
    def test_position(self, capsys, field, tail):
        code, out, _ = run(capsys, "tree", "neighbors", "--field", field,
                           "--p", f"(-{self.CAP}; {tail})")
        assert code == 0 and len(out.splitlines()) == parse_field(field).p + 1
        code, out, _ = run(capsys, "tree", "dist", "--field", field,
                           "--p", f"({self.CAP}; 0)", "--q", f"(-{self.CAP}; 0)")
        assert code == 0 and out.strip() == str(2 * self.CAP)
        for p in (f"(-{self.CAP + 1}; {tail})", f"({2 * self.CAP + 1}/2; 0)", "(1e9; 0)",
                  "(1e999999999; 0)"):
            assert_usage_error(*run(capsys, "tree", "dist", "--field", field,
                                    "--p", p, "--q", "(0; 0)"))

    def test_geodesic_points(self, capsys):
        code, out, _ = run(capsys, "tree", "geodesic", "--field", "F2(t)", "--p", "(0; 0)",
                           "--q", "(1; 0)", "--n", str(GEODESIC_MAX_N))
        assert code == 0 and len(out.splitlines()) == GEODESIC_MAX_N + 1
        for n in (0, GEODESIC_MAX_N + 1, 10 ** 9):
            assert_usage_error(*run(capsys, "tree", "geodesic", "--field", "F2(t)",
                                    "--p", "(0; 0)", "--q", "(1; 0)", "--n", str(n)))

    def test_ball_counts_the_center_tail(self, capsys):
        # radius 12 over F2(t): 12286 vertices, within the budget at the origin
        # and over it once each vertex counts 1 + 22/128 times
        assert _ball_size(2, 12) * (1 + Fraction(22, BALL_TERMS_PER_VERTEX)) > BALL_MAX_VERTICES
        code, out, err = run(capsys, "tree", "ball", "--field", "F2(t)", "--radius", "12",
                             "--p", "(-10; t^-12)")
        assert_usage_error(code, out, err)
        assert "22 exponents" in err
        code, out, _ = run(capsys, "tree", "ball", "--field", "F2(t)", "--radius", "11",
                           "--p", "(-10; t^-12)")
        assert code == 0 and out.startswith(f"{_ball_size(2, 11)} vertices")


def test_ball_of_radius_zero_lists_no_neighbors(capsys):
    """The ball of radius 0 is its center alone, whatever the residue field's
    size: over Q with p = 1000003 its p + 1 neighbors are never built."""
    code, out, _ = run(capsys, "tree", "ball", "--field", "Q1000003", "--radius", "0",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"vertices": ["(0; 0)"], "edges": []}


class TestSearchBudgets:
    """A cone cap, a prenilpotent root height and a hecke fold are taken up
    to their limits; one more is a one-line usage error.  The hecke billiard
    search bounds itself."""

    AFFINE = '{"matrix": [[2,-2],[-2,2]]}'

    def test_cone_cap(self, capsys):
        # delta(v) = 1 with a finite part of 6000: the greedy run needs more
        # steps than the cap, so the CLI's default cap is clipped to it
        for argv in ((), ("--cap", str(CONE_MAX_CAP))):
            code, out, _ = run(capsys, "cone", "--data", self.AFFINE, "--vector", "6000,0,1",
                               *argv)
            assert code == 0 and json.loads(out) == {"status": "unknown", "steps": CONE_MAX_CAP}
        code, out, err = run(capsys, "cone", "--data", self.AFFINE, "--vector", "1,0,0",
                             "--cap", str(CONE_MAX_CAP + 1))
        assert_usage_error(code, out, err)
        assert f"1..{CONE_MAX_CAP}" in err

    def test_prenilpotent_height(self, capsys):
        assert PRENILPOTENT_MAX_HEIGHT == 300
        code, out, _ = run(capsys, "prenilpotent", "--data", self.AFFINE,
                           "--alpha", "149,150", "--beta", "0,1")
        assert code == 0 and json.loads(out)["closed_interval"] == [[0, 1], [149, 150]]
        code, out, err = run(capsys, "prenilpotent", "--data", self.AFFINE,
                             "--alpha", "150,150", "--beta", "0,1")
        assert code == 1 and err.strip().endswith("is not a real root")
        for alpha in ("150,151", "-151,-150", "1000000000,1000000001"):
            code, out, err = run(capsys, "prenilpotent", "--data", self.AFFINE,
                                 f"--alpha={alpha}", "--beta", "0,1")
            assert_usage_error(code, out, err)
            assert "300" in err

    @pytest.mark.parametrize("shape", ["-1,-1,-1,-1", "1,0,0,0"])
    def test_hecke_words(self, capsys, shape):
        # a velocity outside X and -X: against a shape in -X the certificates
        # decide it, and against one outside both the words of length <= 6
        # are tried, 1457 of them
        data = '{"matrix": [[2,-2,-2,-2],[-2,2,-2,-2],[-2,-2,2,-2],[-2,-2,-2,2]]}'
        path = '{"breakpoints": [0, 1], "positions": [[0,0,0,0],[1,-1,0,0]]}'
        start = time.perf_counter()
        code, out, _ = run(capsys, "hecke", "verify", "--data", data, "--path", path,
                           f"--shape={shape}")
        assert time.perf_counter() - start < 1
        assert code == 1 and json.loads(out)["billiard"] is False

    def test_hecke_fold(self, capsys):
        # velocities -v -> v through the wall x = 0: d = 1 and D = 2v
        def fold(v):
            x = Fraction(v, 2)
            path = json.dumps({"breakpoints": ["0", "1/2", "1"],
                               "positions": [[str(x)], ["0"], [str(x)]]})
            return run(capsys, "hecke", "verify", "--data", '{"matrix": [[2]]}',
                       "--path", path, "--shape", str(v))

        assert HECKE_MAX_FOLD == 64
        code, out, _ = fold(Fraction(32))
        assert code == 0 and json.loads(out)["verified"] is True
        code, out, err = fold(Fraction(65, 2))
        assert_usage_error(code, out, err)
        assert "d*ht(D) = 65, more than the 64 searched" in err


class TestSizeBudgets:
    """A root height, a word length and a series modulus are taken up to
    their limits; one more is a one-line usage error."""

    AFFINE = '{"matrix": [[2,-2],[-2,2]]}'

    def test_roots_height(self, capsys):
        code, out, _ = run(capsys, "roots", "--data", self.AFFINE,
                           "--max-height", str(ROOTS_MAX_HEIGHT), "--json")
        # two roots at each odd height
        assert code == 0 and sum(map(len, json.loads(out)["by_height"].values())) == 128
        for height in (ROOTS_MAX_HEIGHT + 1, 10 ** 9):
            code, out, err = run(capsys, "roots", "--data", self.AFFINE,
                                 "--max-height", str(height))
            assert_usage_error(code, out, err)
            assert str(ROOTS_MAX_HEIGHT) in err

    def test_weyl_word(self, capsys):
        word = ",".join("01"[k % 2] for k in range(WEYL_MAX_WORD))
        code, out, _ = run(capsys, "weyl", "--data", self.AFFINE, "--word", word, "--json")
        assert code == 0 and json.loads(out)["length"] == WEYL_MAX_WORD
        code, out, err = run(capsys, "weyl", "--data", self.AFFINE, "--word", word + ",0")
        assert_usage_error(code, out, err)
        assert str(WEYL_MAX_WORD) in err

    def test_uma_modulus(self, capsys):
        identity = "[[[1],[0]],[[0],[1]]]"
        code, out, _ = run(capsys, "uma", "member", "--matrix", identity,
                           "--mod", str(UMA_MAX_MOD), "--ring", "Q")
        assert code == 0 and json.loads(out) == {"member": True}
        for mod in (UMA_MAX_MOD + 1, 10 ** 9):
            code, out, err = run(capsys, "uma", "factorize", "--matrix", identity,
                                 "--mod", str(mod))
            assert_usage_error(code, out, err)
            assert str(UMA_MAX_MOD) in err


def _options(parser: argparse.ArgumentParser):
    """(prog, action) for every option of the parser and its subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _options(sub)
        elif action.option_strings:
            yield parser.prog, action


BOUNDED = {
    ("masure roots", "--max-height"): (1, ROOTS_MAX_HEIGHT),
    ("masure cone", "--cap"): (1, CONE_MAX_CAP),
    ("masure tree geodesic", "--n"): (1, GEODESIC_MAX_N),
    ("masure tree ball", "--radius"): (0, None),
    ("masure gm", "--n"): (0, GM_MAX_N),
    ("masure uma member", "--mod"): (1, UMA_MAX_MOD),
    ("masure uma factorize", "--mod"): (1, UMA_MAX_MOD),
}


def test_integer_options_declare_their_range():
    # the parser is the one table of integer bounds: a new integer option
    # takes a bounded type, and --seed alone takes any integer
    options = list(_options(build_parser()))
    assert [(prog, a.dest) for prog, a in options if a.type is int] == [("masure", "seed")]
    bounds = {(prog, a.option_strings[0]): (a.type.lo, a.type.hi) for prog, a in options
              if hasattr(a.type, "lo")}
    assert bounds == BOUNDED


@pytest.mark.parametrize("prog, flag", sorted(BOUNDED))
def test_out_of_range_message(capsys, prog, flag):
    lo, hi = BOUNDED[prog, flag]
    for value in [lo - 1] + ([] if hi is None else [hi + 1]):
        code, out, err = run(capsys, *prog.split()[1:], flag, str(value))
        assert_usage_error(code, out, err)
        assert err == (f"usage error: {prog}: argument {flag}: must be in "
                       f"{lo}..{'' if hi is None else hi}, got {value}\n")
    code, out, err = run(capsys, *prog.split()[1:], flag, "x")
    assert err == f"usage error: {prog}: argument {flag}: invalid int value: 'x'\n"


def test_range_is_checked_before_the_handler(capsys):
    # a bad --ring is found in the handler, after argparse rejects --mod
    code, out, err = run(capsys, "uma", "member", "--matrix", "[[[1],[0]],[[0],[1]]]",
                         "--ring", "Z", "--mod", "0")
    assert_usage_error(code, out, err)
    assert f"argument --mod: must be in 1..{UMA_MAX_MOD}, got 0" in err


class TestPrimeField:
    def test_large_prime_answers_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "tree", "dist", "--field", "F1000000000000000003(t)",
                           "--p", "(0; 0)", "--q", "(1; 0)")
        assert code == 0 and out.strip() == "1"
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("field", ["F1000000000000000001(t)", "Q1000000000000000001"])
    def test_large_composite_rejected(self, capsys, field):
        code, out, err = run(capsys, "tree", "dist", "--field", field, "--p", "(0; 0)",
                             "--q", "(1; 0)")
        assert code == 1 and out == "" and err.strip().endswith("is not prime")

    def test_beyond_the_primality_limit(self, capsys):
        code, out, err = run(capsys, "tree", "dist", "--field", f"F{PRIME_LIMIT}(t)",
                             "--p", "(0; 0)", "--q", "(1; 0)")
        assert code == 1 and out == "" and len(err.splitlines()) == 1 and "too large" in err

    def test_series_ring_beyond_the_primality_limit(self, capsys):
        # the coefficient ring is an option of uma, so it is a usage error there
        for cmd in ("member", "factorize"):
            code, out, err = run(capsys, "uma", cmd, "--matrix", "[[[1],[0]],[[0],[1]]]",
                                 "--mod", "2", "--ring", f"F{PRIME_LIMIT}")
            assert_usage_error(code, out, err)
            assert "too large" in err
