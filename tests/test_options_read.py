"""Every option that ``cli.build_parser()`` defines is read as
``args.<dest>`` in ``cli.py``; an option that nothing reads is a setting
with no effect."""

import argparse
import ast
from pathlib import Path

from masure import cli


def _option_dests(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_dests(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield action.dest


def _args_read(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_option_is_read():
    dests = set(_option_dests(cli.build_parser()))
    assert {"seed", "data", "alpha", "json", "radius"} <= dests
    read = _args_read(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
    assert sorted(dests - read) == []
