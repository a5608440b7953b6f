"""Golden outputs of the tree CLI: exact stdout, stderr and exit code of a
fixed set of calls, so that a change of the field representation stays
invisible at the command line.

The expected outputs are in ``tree_golden.json`` next to this file.  To
record them again after an intended output change, run from the
repository root

    PYTHONPATH=src python3 tests/test_tree_golden.py

and review the diff of the JSON file.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from masure.cli import main

GOLDEN = Path(__file__).with_name("tree_golden.json")

LAURENT_MAT = '[["1","t^-3"],["0","1"]]'
LAURENT_DIAG = '[["t","0"],["0","t^-1"]]'
LAURENT_MIXED = '[["1+t","t^-2"],["t^2","(2)/(1+t)"]]'
PADIC_MAT = '[["1","1/3"],["0","1"]]'
PADIC_DIAG = '[["3","0"],["0","1/3"]]'
WEYL = '[["0","1"],["-1","0"]]'


def _field_cases(field: str, p: int, laurent: bool) -> list[tuple[str, ...]]:
    if laurent:
        pts = ["(0; 0)", "(1; t^-3)", "(2; t^-3+t^-5)", "(1/2; (1)/(1+t))", "(-2; t^-1+t^3)",
               "(5; t^-6)", "(5; t^-6+t^-7)"]
        mats = [LAURENT_MAT, LAURENT_DIAG, LAURENT_MIXED, WEYL]
        elems = ["t", "-t^2", "t^-3+t", "(1+t)/(1+t^2)"]
    else:
        pts = ["(0; 0)", f"(1; 1/{p ** 2})", f"(2; {p + 1}/{p ** 3})", "(1/2; 5/7)",
               "(-1; 1/2)", f"(5; 1/{p ** 6})", f"(5; {p + 1}/{p ** 7})"]
        mats = [PADIC_MAT, PADIC_DIAG, WEYL]
        elems = ["3", "-1/3", "10/9", "7/4"]
    base = ("tree",)
    out: list[tuple[str, ...]] = []
    for g in mats:
        for pt in pts[:4]:
            out.append(base + ("act", "--field", field, "--g", g, "--p", pt))
    out.append(base + ("act", "--field", field, "--g", mats[0], "--p", pts[1], "--json"))
    for pt, qt in zip(pts, pts[1:] + pts[:1]):
        out.append(base + ("dist", "--field", field, "--p", pt, "--q", qt))
    out.append(base + ("dist", "--field", field, "--p", pts[2], "--q", pts[3], "--json"))
    for pt in pts[:5]:
        out.append(base + ("retract", "--field", field, "--p", pt))
    for pt, qt in [(pts[5], pts[6]), (pts[0], pts[2]), (pts[4], pts[3])]:
        for center in ("+", "-"):
            out.append(base + ("retract", "--field", field, "--p", pt, "--q", qt,
                               "--center", center))
        out.append(base + ("retract", "--field", field, "--p", pt, "--q", qt, "--json"))
    for pt, qt, n in [(pts[1], pts[0], "5"), (pts[2], pts[4], "4"), (pts[3], pts[1], "3")]:
        out.append(base + ("geodesic", "--field", field, "--p", pt, "--q", qt, "--n", n))
    out.append(base + ("geodesic", "--field", field, "--p", pts[1], "--q", pts[2], "--json"))
    for pt in [pts[0], pts[1], pts[2], pts[4], pts[3]]:
        out.append(base + ("neighbors", "--field", field, "--p", pt))
    out.append(base + ("neighbors", "--field", field, "--p", pts[2], "--json"))
    for pt in [pts[0], pts[1], pts[2], pts[4], pts[3]]:
        out.append(base + ("orbit", "--field", field, "--p", pt))
    for a in elems:
        out.append(base + ("exchange", "--field", field, "--a", a))
    out.append(base + ("exchange", "--field", field, "--a", elems[2], "--json"))
    return out


CASES: list[tuple[str, ...]] = (
    _field_cases("F2(t)", 2, True) + _field_cases("F3(t)", 3, True)
    + _field_cases("Q3", 3, False) + _field_cases("Q5", 5, False)
    + [
        ("tree", "ball", "--field", "Q3", "--radius", "3", "--format", "json"),
        ("tree", "exchange", "--field", "Q5", "--a", "10/3"),
        # the README examples
        ("tree", "dist", "--field", "F2(t)", "--p", "(0; 0)", "--q", "(1; t^-3)"),
        ("tree", "act", "--field", "F2(t)", "--g", LAURENT_MAT, "--p", "(1; 0)"),
        ("tree", "retract", "--field", "F2(t)", "--p", "(5; t^-6)", "--q", "(5; t^-6+t^-7)",
         "--center", "-"),
        ("tree", "ball", "--field", "F3(t)", "--radius", "3", "--format", "dot"),
        ("tree", "neighbors", "--field", "Q3", "--p", "(0; 3/4)"),
        # zero denominators
        ("tree", "exchange", "--field", "F2(t)", "--a", "(1)/(0)"),
        ("tree", "exchange", "--field", "F3(t)", "--a", "(1+t)/(t-t)"),
        ("tree", "exchange", "--field", "Q3", "--a", "1/0"),
        ("tree", "dist", "--field", "Q5", "--p", "(0; 2/0)", "--q", "(0; 0)"),
        # primes that are not prime
        ("tree", "dist", "--field", "F4(t)", "--p", "(0; 0)", "--q", "(1; 0)"),
        ("tree", "neighbors", "--field", "Q9", "--p", "(0; 0)"),
        ("tree", "orbit", "--field", "F1(t)", "--p", "(0; 0)"),
        # prime mismatches
        ("tree", "exchange", "--field", "Q3", "--a", "1/3 @ p=5"),
        ("tree", "exchange", "--field", "F2(t)", "--a", "(1)/(1+t) mod 3"),
        ("tree", "dist", "--field", "F3(t)", "--p", "(0; t^-1 mod 2)", "--q", "(0; 0)"),
    ]
)


def run_case(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded() -> dict[tuple[str, ...], dict]:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_every_case_is_recorded():
    assert set(_recorded()) == set(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_tree_cli_output_is_unchanged(argv):
    assert run_case(argv) == _recorded()[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_case(a) for a in CASES], indent=1) + "\n",
                      encoding="utf-8")
