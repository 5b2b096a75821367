"""The report emitter against its oracle, ``json.dumps(sort_keys=True, indent=2)``.

The emitter hands every container of scalars to the C encoder and walks the rest
itself; its text must be the oracle's on every report ``scripts/byteid.py`` writes and
on the edge cases of the JSON grammar.
"""

import json

import numpy as np
import pytest

from conftest import byteid_scenarios
from qqsp import __version__
from qqsp.process import ValidationFailure
from qqsp.report import Report, _json_scalar
from qqsp.scenarios import run_scenario

SCENARIOS = byteid_scenarios()


def _oracle(report) -> str:
    document = {"tool": {"name": "qqsp", "version": __version__},
                "scenario": report.scenario_echo,
                "run": {"seed": report.run_seed, "mode": report.mode},
                "stages": report.stages, "verdicts": report.verdicts}
    return json.dumps(document, sort_keys=True, indent=2, default=_json_scalar) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_emitter_writes_the_text_of_json_dumps(name):
    try:
        report = run_scenario(SCENARIOS[name], seed=1)
    except ValidationFailure:   # a probe that fails writes no report
        pytest.skip(f"{name} exits before its report")
    assert report.to_structured_text() == _oracle(report)


EDGE_CASES = {
    "empty": {},
    "empty-containers": {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    "nested": {"a": [1, [2, [3, {"b": [4.5, None]}]], "x"], "c": {"d": [[[0.5, -0.0]]]}},
    "numpy-scalars": {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
                      "s": np.float32(0.5), "list": [np.float64(1e-300), np.int32(-2)],
                      "mixed": [np.float64(2.0), [np.bool_(False)]]},
    "non-finite": {"nan": float("nan"), "values": [float("inf"), -float("inf"),
                                                   np.float64("nan")]},
    "names": {"name": "café \u0001\t\n\"\\ \U0001f600  ", "kéy": ["\u0000"],
              "é": {"\u0007": [1]}},
    "tuples": {"t": (1, (2, 3), ()), "u": [(), ((),)]},
    "number-keys": {"a": {1: [2], 2.5: {0: 1}, -3: "x"}, "b": [{True: 1, False: [0]}]},
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_the_emitter_matches_json_dumps_on_edge_cases(case):
    for report in (Report({}, 1, "strict", stages=EDGE_CASES[case]),
                   Report({"name": "x"}, 2, "permissive", verdicts={"v": [EDGE_CASES[case]]})):
        assert report.to_structured_text() == _oracle(report)


@pytest.mark.parametrize("bad, error", [({"a": np.zeros(2)}, "cannot serialize"),
                                        ({"a": {(1, 2): [1]}}, "keys must be"),
                                        ({"a": [{(1,): 1}]}, "keys must be")])
def test_the_emitter_refuses_what_json_dumps_refuses(bad, error):
    report = Report({}, 1, "strict", stages=bad)
    with pytest.raises(TypeError, match=error):
        _oracle(report)
    with pytest.raises(TypeError, match=error):
        report.to_structured_text()
