"""The report emitter against its oracle, ``json.dumps(sort_keys=True, indent=2)``, and the
in-place rewrite of report files.

The emitter hands every container of scalars to the C encoder and walks the rest
itself; its text must be the oracle's on every report ``scripts/byteid.py`` writes and
on the edge cases of the JSON grammar.
"""

import contextlib
import io
import json
import os

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


# ------------------------------------------------------------ in-place rewrites

def _written(tmp_path, name="constant-n2"):
    from qqsp.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main(["run", name, "--out-dir", str(tmp_path), "--format", "csv-bundle",
                       "--seed", "1"])
    return status, {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                    if p.is_file() and "timings" not in p.name}


@pytest.mark.parametrize("old", ["shorter", "equal", "longer"])
def test_a_rewrite_over_any_old_file_leaves_exactly_the_new_bytes(tmp_path, old):
    # the old file is cut to the text's length whether it was longer, as long or shorter
    status, want = _written(tmp_path / "fresh")
    assert status == 0
    out = tmp_path / "out"
    out.mkdir()
    for name, data in want.items():
        size = {"shorter": len(data) // 2, "equal": len(data), "longer": 3 * len(data)}[old]
        (out / name).write_bytes(b"x" * size)
    assert _written(out) == (0, want)


def test_report_files_are_opened_without_truncation(tmp_path, monkeypatch):
    # the file is cut to length after the write: a file truncated to 0 and rewritten is
    # re-allocated by the filesystem when it is closed
    flags, real = [], os.open

    def recording(path, flag, *args):
        flags.append(flag)
        return real(path, flag, *args)

    monkeypatch.setattr(os, "open", recording)
    assert _written(tmp_path)[0] == 0
    assert len(flags) == len(list(tmp_path.iterdir()))   # every file, the sidecar too
    assert not any(flag & os.O_TRUNC for flag in flags)


def test_a_rewrite_keeps_the_inode_of_a_hard_link_and_of_a_symlink_target(tmp_path):
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    status, want = _written(out)
    elsewhere.mkdir()
    report = "constant-n2.report.json"
    linked, target = elsewhere / "linked.json", elsewhere / "target.csv"
    os.link(out / report, linked)
    csv = next(name for name in want if name.endswith(".csv"))
    (out / csv).rename(target)
    (out / csv).symlink_to(target)
    inodes = (os.stat(out / report).st_ino, os.stat(target).st_ino)
    (out / report).write_bytes(b"stale " * 10000)
    target.write_bytes(b"")
    assert _written(out) == (0, want)
    assert (os.stat(out / report).st_ino, os.stat(target).st_ino) == inodes
    assert linked.read_bytes() == want[report] and target.read_bytes() == want[csv]
    assert (out / csv).is_symlink()


@pytest.mark.parametrize("blocker", ["read-only file", "directory"])
def test_a_report_file_that_cannot_be_written_exits_4(tmp_path, blocker):
    path = tmp_path / "constant-n2.report.json"
    if blocker == "directory":
        path.mkdir()
    else:
        if os.geteuid() == 0:
            pytest.skip("the superuser writes read-only files")
        path.write_text("kept")
        path.chmod(0o444)
    status, _ = _written(tmp_path)
    assert status == 4
    assert path.is_dir() or path.read_text() == "kept"
