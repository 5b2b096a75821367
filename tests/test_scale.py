"""The scenario documents of ``scripts/scale.py``'s rows."""

import importlib.util

import numpy as np
import pytest

from conftest import ROOT
from qqsp.scenarios import parse_scenario


def _scale():
    spec = importlib.util.spec_from_file_location("scale", ROOT / "scripts" / "scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCALE = _scale()


def test_a_default_row_keeps_its_document():
    # rows without a state column write the documents scripts/byteid.py runs
    assert SCALE.scenario("8,4,A,noergodic") == {
        "name": "mixed-n8-T4-A-noergodic",
        "algebra": {"kind": "full", "dim": 8},
        "process_type": "A", "horizon": 4, "mode": "strict",
        "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True},
        "pipeline": ["validate", "propagate", "kc", "marginals", "axioms", "reconstruct"],
    }


def test_the_diag_column_starts_from_diag_1_to_n():
    doc = SCALE.scenario("8,12,A,diag")
    weights = doc["initial_state"]["diag"]
    assert doc["name"] == "mixed-n8-T12-A-diag"
    assert weights == [2 * k / 72 for k in range(1, 9)] and sum(weights) == 1.0
    assert doc["pipeline"] == SCALE.ALL_STAGES
    rho = parse_scenario(doc).resolved[0].omega0.rho
    assert np.array_equal(rho, np.diag(weights).astype(complex))
    assert SCALE.scenario("8,12,A,diag,noergodic")["name"] == "mixed-n8-T12-A-diag-noergodic"


@pytest.mark.parametrize("row", ["8,12,A,mixed", "8,12,C", "8,12,A,noergodic,diag", "8,12"])
def test_a_malformed_row_is_refused(row):
    with pytest.raises(ValueError, match=r"N,T,TYPE\[,diag\]\[,noergodic\]"):
        SCALE.scenario(row)
