"""Report assembly and emission.

The structured report is one self-describing JSON document with sorted
keys; floats serialize through Python's shortest-roundtrip repr and
complex entries as [re, im] pairs, so identical runs produce identical
bytes. Wall-clock timings are written to a separate sidecar file and are
the only run artifact allowed to differ between reruns.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__

CSV_HEADER = "t,pair_index,distance"


def jsonify(obj):
    """Normalize to JSON-safe values; complex numbers become [re, im]."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, dict):
        return {_key(k): jsonify(v) for k, v in sorted(obj.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return jsonify(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def complex_matrix_to_pairs(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def pairs_to_complex_matrix(rows) -> np.ndarray:
    try:
        return np.array([[complex(v[0], v[1]) for v in row] for row in rows], dtype=complex)
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"expected rows of [re, im] pairs ({exc})") from exc


@dataclass
class Report:
    """Everything one scenario run produced, minus the files themselves."""

    scenario_echo: dict
    run_seed: int
    mode: str
    stages: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    decay_series: dict = field(default_factory=dict)   # kind -> DecayTrace
    trajectory: list = field(default_factory=list)     # per t: diagonal weights

    @property
    def name(self) -> str:
        return self.scenario_echo.get("name", "scenario")

    def to_document(self) -> dict:
        return jsonify({
            "tool": {"name": "qqsp", "version": __version__},
            "scenario": self.scenario_echo,
            "run": {"seed": self.run_seed, "mode": self.mode},
            "stages": self.stages,
            "verdicts": self.verdicts,
        })

    def to_structured_text(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"


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
    report_path.write_text(report.to_structured_text())
    written.append(report_path)
    if fmt == "csv-bundle":
        if report.trajectory:
            p = out / f"{report.name}.trajectory.csv"
            p.write_text(_trajectory_csv_text(report.trajectory))
            written.append(p)
        for kind in sorted(report.decay_series):
            p = out / f"{report.name}.decay_{kind}.csv"
            p.write_text(_decay_csv_text(report.decay_series[kind]))
            written.append(p)
    timing_path = out / f"{report.name}.timings.txt"
    timing_lines = [f"{stage}: {seconds:.6f} s" for stage, seconds in report.timings.items()]
    timing_path.write_text("\n".join(timing_lines) + "\n" if timing_lines else "")
    return written


def load_structured(path) -> dict:
    """Round-trip partner of :meth:`Report.to_structured_text`."""
    return json.loads(Path(path).read_text())
