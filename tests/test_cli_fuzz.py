"""The CLI contract under random input, for every command but hecke and
selftest: every call exits 0, 1 or 2, prints no traceback, prints exactly
one line on stderr when it fails, and finishes within the deadline (a call
still running at twice the deadline is stopped and fails the example).

Subcommands and options are read from ``build_parser()``, so a new
subcommand or option of these commands is drawn without editing this test.
Values are drawn by what an option takes (a field, a point, an element, a
matrix, a root datum, a vector, a word, a coefficient ring, an integer or
one of its choices), valid and invalid, with exponents, positions,
coordinates, heights, indices and moduli up to 10^9, decimal exponents up
to 10^999999999 and words around the longest one weyl takes.  Every integer
option carries its range lo..hi on its argparse type, which this test reads
and draws lo - 1, lo and hi + 1 from; a value out of range must exit 2.  Some
argv are ones argparse itself rejects: a required option left out, a value
outside the choices, or an integer option given a non-integer.  hecke is
left out, since the time a fold search takes
at its budget grows steeply with the rank (seconds at rank 10; see
HECKE_MAX_FOLD), and so is selftest, which runs the acceptance suite.
"""

import argparse
import contextlib
import io
import json
import signal
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from masure.cli import WEYL_MAX_WORD, build_parser, main


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


COMMANDS = _subparsers(build_parser())
FUZZED = sorted(set(COMMANDS) - {"hecke", "selftest"})
NESTED = {name: _subparsers(COMMANDS[name]) for name in FUZZED}
# the commands that take fields, points, elements and vectors, whose values
# vary most, draw 8 examples in 13: about 400, 130 each
VARIED = ("cone", "prenilpotent", "tree")

BIG = 10 ** 9
small = st.integers(-12, 12)
sizes = st.one_of(small, small, st.integers(-600, 600), st.integers(-BIG, BIG))
primes = st.sampled_from([2, 3, 5, 7, 101])
valid_fields = st.sampled_from(["F2(t)", "F3(t)", "F5(t)", "Q2", "Q3", "Q5", "Q@p=7"])
fields = st.one_of(
    valid_fields,
    valid_fields,
    st.sampled_from(["F4(t)", "Q9", "F1(t)", "Q0", "F2", "Q3(t)", "bogus", ""]),
    st.builds("F{}(t)".format, st.integers(0, BIG)),
    st.builds("Q{}".format, st.integers(0, BIG)),
)


def _laurent_poly(terms) -> str:
    return "+".join(f"{c}*t^{e}" for c, e in terms) or "0"


laurent = st.lists(st.tuples(st.integers(0, 6), sizes), min_size=1, max_size=4).map(_laurent_poly)
elements = st.one_of(
    laurent,
    st.builds("({})/({})".format, laurent, laurent),
    st.builds("({})/({}) mod {}".format, laurent, laurent, primes),
    st.builds("{}/{}".format, st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30)),
    st.builds("{}/{} @ p={}".format, st.integers(-99, 99), st.integers(-99, 99), primes),
    st.builds(lambda p, k: f"1/{p ** k}", primes, st.integers(0, 2000)),
    st.text(alphabet="t^-+*/()0123456789 ;@p=mod", max_size=14),
)
positions = st.one_of(
    sizes.map(str),
    st.builds("{}/{}".format, sizes, st.integers(-4, 4)),
    st.sampled_from(["1e9", "1e999999999", "0.5", "x", ""]),
)
points = st.one_of(
    st.builds("({}; {})".format, positions, elements),
    st.builds("({}; 0)".format, positions),
    st.text(alphabet="(); t^-+/0123456789", max_size=12),
)


def _matrix(rows) -> str:
    return json.dumps(rows)


matrices = st.one_of(
    st.builds(lambda a: _matrix([["1", a], ["0", "1"]]), elements),
    st.builds(lambda a: _matrix([["1", "0"], [a, "1"]]), elements),
    st.builds(lambda k: _matrix([[f"t^{k}", "0"], ["0", f"t^{-k}"]]), sizes),
    st.builds(lambda a, b, c, d: _matrix([[a, b], [c, d]]), elements, elements, elements,
              elements),
    st.just('[["0","1"],["-1","0"]]'),
    st.text(max_size=10),
)
gcm_entries = st.sampled_from([0, 0, -1, -1, -2, -3, -5, 1])


@st.composite
def cartan_matrices(draw) -> list[list[int]]:
    """Square matrices with 2 on the diagonal, mostly GCMs: entries drawn
    in pairs with the same zero pattern, now and then one broken."""
    n = draw(st.integers(1, 4))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(gcm_entries)
            y = 0 if x == 0 else draw(gcm_entries.filter(bool))
            rows[i][j], rows[j][i] = x, y
    if n > 1 and draw(st.integers(0, 9)) == 0:
        rows[0][1] = draw(st.integers(-3, 3))
    return rows


gcm_json = cartan_matrices().map(json.dumps)


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def _unipotent(b: list[int], c: list[int]) -> str:
    """[[1, b], [tc, 1 + tcb]], the product of a lower and an upper
    unitriangular matrix: determinant 1 at every modulus."""
    c = [0] + c
    d = [1] + [0] * (len(b) + len(c))
    for i, x in enumerate(c):
        for j, y in enumerate(b):
            d[i + j] += x * y
    return json.dumps([[[1], b], [c, d]])


int_lists = st.lists(small, max_size=6)
coefficient_lists = st.lists(st.one_of(small, st.builds("{}/{}".format, small, st.integers(-3, 6)),
                                       st.sampled_from(["x", 1.5, None, "1e999999999"])),
                               max_size=6)
series_matrices = st.one_of(
    st.builds(_unipotent, int_lists, int_lists),
    st.lists(coefficient_lists, min_size=4, max_size=4).map(
        lambda cells: json.dumps([cells[:2], cells[2:]])),
    st.sampled_from(['[[[1],[0]],[[0],[1]]]', '[[[0],[1]],[[-1],[0]]]', "[[1,2],[3,4]]", "[]",
                     "x"]),
)
rings = st.one_of(st.sampled_from(["F2", "F3", "F5", "F101", "Q", "q"]),
                  st.sampled_from(["F4", "F1", "F0", "F", "Z", "", "F2(t)"]),
                  st.builds("F{}".format, st.integers(0, BIG)))
words = st.one_of(
    st.lists(st.integers(0, 3), max_size=12).map(_csv),
    st.lists(st.integers(0, 3), min_size=WEYL_MAX_WORD - 3, max_size=WEYL_MAX_WORD + 3).map(_csv),
    st.lists(st.one_of(small, st.integers(-BIG, BIG), st.sampled_from(["a", "", "1.5"])),
             max_size=5).map(_csv),
    st.sampled_from(["e", "-", " "]),
)
data = st.one_of(
    cartan_matrices().map(lambda m: json.dumps({"matrix": m})),
    st.sampled_from(['{"matrix": [[2,-1],[-1,2]]}', '{"matrix": [[2,-2],[-2,2]]}',
                     '{"matrix": [[2,-2,0],[-2,2,-1],[0,-1,2]]}',
                     '{"matrix": [[2,-2,0],[-2,2,0],[0,0,2]]}',
                     '{"matrix": [[2,-1],[-5,2]], "realization": {"rank": 3, "simple_roots": '
                     '[[2,-5,0],[-1,2,1]], "simple_coroots": [[1,0,0],[0,1,0]]}}',
                     '{"matrix": [[2,-1],[-1,2]], "realization": {"rank": 2}}',
                     "{}", "[1]", "x", '{"matrix": []}']),
)
coordinates = st.one_of(small, small, st.integers(-BIG, BIG),
                        st.builds("{}/{}".format, small, st.integers(-3, 6)),
                        st.sampled_from(["x", "", "1.5", "1e9", "1e999999999"]))
vectors = st.lists(coordinates, min_size=1, max_size=5).map(_csv)
by_dest = {"field": fields, "p": points, "q": points, "a": elements, "g": matrices,
           "data": data, "vector": vectors, "alpha": vectors, "beta": vectors,
           "word": words, "ring": rings,
           ("classify", "matrix"): st.one_of(gcm_json, gcm_json, st.sampled_from(
               ["[]", "[[2]]", "[[2,-1],[-1]]", "[[2,-1.5],[-1,2]]", "5", "x"])),
           ("uma", "matrix"): series_matrices}
# values that argparse itself rejects
not_integers = st.sampled_from(["x", "1.5", "", "1e3", "--"])
not_choices = st.sampled_from(["bogus", "", "++", "0"])


def _out_of_range(action: argparse.Action, value) -> bool:
    """Whether value is an integer outside the range lo..hi of the option's type."""
    if not (hasattr(action.type, "lo") and isinstance(value, int)):
        return False
    return value < action.type.lo or action.type.hi is not None and value > action.type.hi


def _value(draw, action: argparse.Action, name: str):
    if action.choices is not None:
        wrong = draw(st.integers(0, 19)) == 0
        return draw(not_choices if wrong else st.sampled_from(list(action.choices)))
    if hasattr(action.type, "lo"):
        lo, hi = action.type.lo, action.type.hi
        edges = st.sampled_from([lo - 1, lo] + ([] if hi is None else [hi + 1]))
        return draw(not_integers if draw(st.integers(0, 19)) == 0 else st.one_of(edges, sizes))
    anything = st.one_of(fields, points, elements, matrices)
    return draw(by_dest.get((name, action.dest), by_dest.get(action.dest, anything)))


@st.composite
def cli_argv(draw) -> tuple[list[str], bool]:
    """An argv, and whether it gives an integer option a value out of range."""
    varied = draw(st.integers(1, 13)) <= 8
    name = draw(st.sampled_from([n for n in FUZZED if (n in VARIED) == varied]))
    if NESTED[name]:
        sub = draw(st.sampled_from(sorted(NESTED[name])))
        argv, parser = [name, sub], NESTED[name][sub]
    else:
        argv, parser = [name], COMMANDS[name]
    out_of_range = False
    for action in parser._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        # a required option is now and then left out
        if draw(st.integers(0, 19)) == 0 if action.required else draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:
            value = _value(draw, action, name)
            out_of_range |= _out_of_range(action, value)
            argv.append(f"{flag}={value}")
    return argv, out_of_range


class Runaway(BaseException):
    """A call still running at twice the deadline; main catches no
    BaseException, so the example fails instead of hanging the suite."""


def _stop(signum, frame):
    raise Runaway(f"no answer within {2 * DEADLINE} s")


DEADLINE = 5


@settings(max_examples=650, deadline=timedelta(seconds=DEADLINE),
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=cli_argv())
def test_cli_contract(drawn):
    argv, out_of_range = drawn
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, 2 * DEADLINE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 if out_of_range else code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
