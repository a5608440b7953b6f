"""Acceptance suite: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line."""

import pytest

from masure import hecke, tree
from masure.acceptance import (
    ALL_CHECKS,
    DEFAULT_SEED,
    check_hecke_from_retractions,
    check_retraction_characterization,
)
from masure.fields import t_diag


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance_criterion(check):
    result = check(DEFAULT_SEED)
    print(f"{'PASS' if result.ok else 'FAIL'}  criterion {result.number}: "
          f"{result.name}  [{result.detail}]")
    assert result.ok, f"criterion {result.number} failed: {result.name}"


def test_criterion_7_fails_on_a_wrong_iwasawa_factor(monkeypatch):
    right = tree.iwasawa

    def shifted(g, sign):
        # the monomial part translated by 2: still monomial, but not g's
        u, n, k = right(g, sign)
        return u, n * t_diag(g.a.config.uniformizer_pow(1)), k

    monkeypatch.setattr(tree, "iwasawa", shifted)
    assert not check_retraction_characterization().ok


def test_criterion_8_fails_when_a_chain_does_not_replay(monkeypatch):
    monkeypatch.setattr(hecke, "replay_chain", lambda data, chamber, witness: False)
    assert not check_hecke_from_retractions().ok
