"""The tree CLI contract under random input: every call exits 0, 1 or 2,
prints no traceback, prints exactly one line on stderr when it fails, and
finishes within the deadline (a call still running at twice the deadline
is stopped and fails the example).

Subcommands and options are read from ``build_parser()``, so a new tree
subcommand or option is drawn without editing this test; values are drawn
by what an option takes (a field, a point, an element, a matrix, an integer
or one of its choices), valid and invalid, with exponents and positions up
to 10^9.
"""

import argparse
import contextlib
import io
import json
import signal
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from masure.cli import build_parser, main


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


TREE = _subparsers(_subparsers(build_parser())["tree"])

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
by_dest = {"field": fields, "p": points, "q": points, "a": elements, "g": matrices}


def _value(action: argparse.Action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return sizes
    return by_dest.get(action.dest, st.one_of(fields, points, elements, matrices))


@st.composite
def tree_argv(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(TREE)))
    argv = ["tree", name]
    for action in TREE[name]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if not action.required and draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:
            argv.append(f"{flag}={draw(_value(action))}")
    return argv


class Runaway(BaseException):
    """A call still running at twice the deadline; main catches no
    BaseException, so the example fails instead of hanging the suite."""


def _stop(signum, frame):
    raise Runaway(f"no answer within {2 * DEADLINE} s")


DEADLINE = 5


@settings(max_examples=400, deadline=timedelta(seconds=DEADLINE),
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=tree_argv())
def test_tree_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, 2 * DEADLINE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
