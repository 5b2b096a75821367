"""Report assembly and emission.

The structured report is one self-describing JSON document with sorted
keys; floats serialize through Python's shortest-roundtrip repr and
complex entries as [re, im] pairs, so identical runs produce identical
bytes. The text is that of ``json.dumps(sort_keys=True, indent=2)``, but every
container of scalars goes through the C encoder (:func:`_indented_json`).
Wall-clock timings and the peak resident set size after each stage are
written to a separate sidecar file and are the only run artifact allowed to
differ between reruns.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__

CSV_HEADER = "t,pair_index,distance"


def _json_scalar(obj):
    """The Python value of a numpy scalar, for ``json.dumps``'s ``default``."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


@cache
def _c_encoder(depth: int):
    """The C encoder of a container whose items sit at ``depth`` in a 2-space indented
    document: sorted keys, ASCII escapes, NaN allowed, numpy scalars through
    :func:`_json_scalar`. It writes no newline after the opening bracket nor before the
    closing one; :func:`_indented_json` adds them.
    """
    return c_make_encoder(None, _json_scalar, encode_basestring_ascii, None, ": ",
                          ",\n" + "  " * depth, True, False, True)


def _indented_json(obj, depth: int, out: list) -> None:
    """Append the text ``json.dumps(obj, sort_keys=True, indent=2, default=_json_scalar)``
    gives ``obj`` at nesting ``depth`` to ``out``. A container of scalars is one C encoder
    call; the walk itself visits only the containers that hold containers.
    """
    if not isinstance(obj, (dict, list, tuple)):
        out += _c_encoder(0)(obj, 0)
        return
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (depth + 1)
    # a container of scalars goes to the C encoder, which sorts a dict's keys itself; only
    # the distinct types of its values are scanned for a container
    values = obj.values() if is_dict else obj
    if not any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, values))):
        text = "".join(_c_encoder(depth + 1)(obj, 0))
        # "[]" and "{}" stay as they are, as json.dumps writes them
        out.append(text if len(text) == 2 else
                   f"{text[0]}{inner}{text[1:-1]}\n{'  ' * depth}{text[-1]}")
        return
    items = sorted(obj.items()) if is_dict else enumerate(obj)
    out.append("{" if is_dict else "[")
    for k, (key, value) in enumerate(items):
        out.append(inner if k == 0 else "," + inner)
        if is_dict:
            out.append(encode_basestring_ascii(key) if isinstance(key, str)
                       # json.dumps's text of any other key, with its errors
                       else "".join(_c_encoder(0)({key: None}, 0))[1:-len(": null}")])
            out.append(": ")
        _indented_json(value, depth + 1, out)
    out.append("\n" + "  " * depth + ("}" if is_dict else "]"))


def complex_matrix_to_pairs(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def is_number(x) -> bool:
    """Whether ``x`` is a JSON number: an int or a float, and not true or false."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry(v) -> complex:
    if len(v) != 2 or not all(map(is_number, v)):   # [re, im], nothing dropped, no bool
        raise ValueError(f"entry {v!r} is not two numbers")
    return complex(v[0], v[1])


def pairs_to_complex_matrix(rows) -> np.ndarray:
    try:
        m = np.array([[_entry(v) for v in row] for row in rows], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected rows of [re, im] pairs ({exc})") from exc
    if not np.isfinite(m).all():   # json accepts NaN and Infinity
        raise ValueError("entries must be finite numbers")
    return m


@dataclass
class Report:
    """Everything one scenario run produced, minus the files themselves."""

    scenario_echo: dict
    run_seed: int
    mode: str
    stages: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    peak_rss_kib: dict = field(default_factory=dict)   # stage -> the process's peak RSS after it
    decay_series: dict = field(default_factory=dict)   # kind -> DecayTrace
    trajectory: list = field(default_factory=list)     # per t: diagonal weights

    @property
    def name(self) -> str:
        return self.scenario_echo.get("name", "scenario")

    def to_structured_text(self) -> str:
        """The report document as sorted, indented JSON, as ``json.dumps`` writes it."""
        document = {
            "tool": {"name": "qqsp", "version": __version__},
            "scenario": self.scenario_echo,
            "run": {"seed": self.run_seed, "mode": self.mode},
            "stages": self.stages,
            "verdicts": self.verdicts,
        }
        if c_make_encoder is None:   # a Python built without the _json module
            return json.dumps(document, sort_keys=True, indent=2, default=_json_scalar) + "\n"
        out: list = []
        _indented_json(document, 0, out)
        out.append("\n")
        return "".join(out)


def _decay_csv_text(trace) -> str:
    lines = [CSV_HEADER]
    for t_idx, t in enumerate(trace.times):
        for pair_idx, row in enumerate(trace.distances):
            lines.append(f"{t},{pair_idx},{row[t_idx]!r}")
    return "\n".join(lines) + "\n"


def _trajectory_csv_text(trajectory) -> str:
    if not trajectory:
        return "t\n"
    width = len(trajectory[0])
    header = "t," + ",".join(f"w_{i}" for i in range(width))
    lines = [header]
    for t, weights in enumerate(trajectory):
        lines.append(f"{t}," + ",".join(repr(float(w)) for w in weights))
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    """Write ``text`` over the file at ``path`` (made if missing), then cut the file
    to the text's length.

    The file is opened without truncation, so a rewrite keeps its inode, its hard links and a
    symlink's target, and is not re-allocated as a truncated and rewritten file is. Like
    ``Path.write_text`` it is not atomic and does not fsync: a rewrite cut short may leave the
    new bytes followed by old ones.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode())
        f.truncate()


def emit_report(report: Report, out_dir, fmt: str = "structured") -> list[Path]:
    """Write the report document and, for csv-bundle, one CSV per time series.

    Returns the written paths. The timings sidecar is written alongside
    but not included in the returned (deterministic) file list.
    """
    if fmt not in ("structured", "csv-bundle"):
        raise ValueError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / f"{report.name}.report.json"
    _write(report_path, report.to_structured_text())
    written.append(report_path)
    if fmt == "csv-bundle":
        if report.trajectory:
            p = out / f"{report.name}.trajectory.csv"
            _write(p, _trajectory_csv_text(report.trajectory))
            written.append(p)
        texts = {}   # H/h take P's trace, whose text is formed once
        for kind in sorted(report.decay_series):
            trace = report.decay_series[kind]
            key = (id(trace.times), id(trace.distances))
            if key not in texts:
                texts[key] = _decay_csv_text(trace)
            p = out / f"{report.name}.decay_{kind}.csv"
            _write(p, texts[key])
            written.append(p)
    timing_path = out / f"{report.name}.timings.txt"
    # "<stage>: <seconds> s", then "<stage> peak RSS: <MiB> MiB" for every stage
    timing_lines = [f"{stage}: {seconds:.6f} s" for stage, seconds in report.timings.items()]
    timing_lines += [f"{stage} peak RSS: {kib / 1024:.1f} MiB"
                     for stage, kib in report.peak_rss_kib.items()]
    _write(timing_path, "\n".join(timing_lines) + "\n" if timing_lines else "")
    return written
