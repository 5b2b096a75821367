"""The no-regression verdict of ``scripts/ab.py`` on hand-made runs."""

import importlib.util

import pytest

from conftest import ROOT


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


AB = _ab()


def _row(parent, change, better="lower"):
    return {"better": better, "parent": AB.spread(parent), "change": AB.spread(change)}


@pytest.mark.parametrize("parent, change, better, verdict", [
    # medians 1.00 and 1.30 with a 0.25 bound: worse, however tight the runs
    ([1.0, 1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3, 1.3], "lower", "worse"),
    # higher is better: 1.00 against 0.85 passes a 0.1 bound the other way
    ([1.0, 1.0, 1.0, 1.0, 1.0], [0.85, 0.85, 0.85, 0.85, 0.85], "higher", "worse"),
    # medians 1.0 and 1.1, inside the bound, but the change's quartiles lie 0.5 apart
    ([1.0, 1.0, 1.0, 1.0, 1.0], [0.6, 0.9, 1.1, 1.4, 1.6], "lower", "unresolved"),
    # the parent spreads, yet every change run beats every parent run
    ([1.0, 1.2, 1.4, 1.7, 2.0], [0.5, 0.6, 0.6, 0.7, 0.9], "lower", "ok"),
    # within the bound and tight on both sides
    ([1.00, 1.01, 1.02, 1.03, 1.04], [1.05, 1.06, 1.07, 1.08, 1.09], "lower", "ok"),
], ids=["worse", "worse-higher-is-better", "unresolved", "ok-beats-every-run", "ok-tight"])
def test_regression_verdict(parent, change, better, verdict):
    bound = 0.1 if better == "higher" else 0.25
    assert AB.regression(_row(parent, change, better), bound) == verdict
