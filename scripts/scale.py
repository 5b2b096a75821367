"""Time strict ``mixed`` full lattices at desk scale, one fresh interpreter per run.

    python3 scripts/scale.py                       # the default rows below
    python3 scripts/scale.py 6,8,A 8,4,A,noergodic

A row ``N,T,TYPE`` runs ``qqsp run`` on the ``mixed`` seed over the full
algebra M_N with the maximally mixed initial state, horizon T and process
type TYPE, in strict mode through every pipeline stage; a trailing
``noergodic`` drops the ergodic stage. Each run gets its own interpreter,
started from this checkout's ``src`` with the BLAS thread count pinned to
1, and prints one line: the exit status, the wall time of ``qqsp run``
(parse, stages and report emission), the per-stage seconds of the timings
sidecar, and the interpreter's peak resident set size in MiB (import included).
A run that exits non-zero writes no sidecar; its error line is printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_ROWS = ("4,12,A", "5,8,A", "6,8,A", "5,8,B", "8,4,A,noergodic", "3,12,A", "5,12,A")
ALL_STAGES = ["validate", "propagate", "kc", "marginals", "axioms", "reconstruct", "ergodic"]


def scenario(row: str) -> dict:
    """The scenario document of one row ``N,T,TYPE[,noergodic]``."""
    parts = row.split(",")
    if (len(parts) not in (3, 4) or parts[2] not in ("A", "B")
            or parts[3:] not in ([], ["noergodic"])):
        raise ValueError(f"expected N,T,TYPE[,noergodic], got {row!r}")
    n, horizon, ptype = int(parts[0]), int(parts[1]), parts[2]
    stages = ALL_STAGES[:-1] if parts[3:] else ALL_STAGES
    return {
        "name": f"mixed-n{n}-T{horizon}-{ptype}" + ("-noergodic" if parts[3:] else ""),
        "algebra": {"kind": "full", "dim": n},
        "process_type": ptype, "horizon": horizon, "mode": "strict",
        "seed": {"builtin": "mixed"}, "initial_state": {"maximally_mixed": True},
        "pipeline": stages,
    }


def child(path: str, out_dir: str) -> None:
    """Run one scenario file and print its status, seconds and peak RSS as JSON."""
    from qqsp.cli import main

    err = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(["run", path, "--out-dir", out_dir])
    seconds = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
    print(json.dumps({"status": status, "seconds": seconds, "peak_mib": peak_mib,
                      "error": err.getvalue().strip()}))


def measure(row: str, work: Path) -> str:
    doc = scenario(row)
    path = work / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, __file__, "--child", str(path), str(work)],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    line = (f"{row:<16} exit {result['status']}  total {result['seconds']:7.2f} s  "
            f"peak RSS {result['peak_mib']:6.1f} MiB")
    sidecar = work / f"{doc['name']}.timings.txt"
    if result["status"] == 0 and sidecar.is_file():
        stages = [ln.replace(" s", "").split(": ") for ln in sidecar.read_text().splitlines()]
        line += "  | " + " ".join(f"{stage} {float(sec):.2f}" for stage, sec in stages)
    elif result["error"]:
        line += f"  | {result['error'].splitlines()[-1]}"
    return line


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"] and len(argv) == 3:
        child(argv[1], argv[2])
        return 0
    rows = argv or list(DEFAULT_ROWS)
    try:
        for row in rows:
            scenario(row)
    except ValueError as exc:
        print(f"{exc}\n\n{__doc__.strip()}", file=sys.stderr)
        return 2
    print("row              status  qqsp run seconds  peak RSS  | per-stage seconds")
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            print(measure(row, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
