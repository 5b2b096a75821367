"""Write every deterministic report file of the byte-identity contract.

    python3 scripts/byteid.py OUT_DIR

Runs ``qqsp.cli.main([... "--seed", "1"])`` from the checkout this script
sits in over the seven builtins (``csv-bundle``, under ``OUT_DIR/builtins``)
and over the full-A and full-B scenario files that
``perfbench/workloads.write_scenarios(wl, 1, dir)`` writes (``structured``,
under ``OUT_DIR/full-A`` and ``OUT_DIR/full-B``), then over the strict
``mixed`` rows of ``SCALE_ROWS`` as ``scripts/scale.py``'s ``scenario()`` writes them
(``structured``, under ``OUT_DIR/scale``), which cover multi-chunk tables and long
horizons. 53 files in all. Wall-clock sidecars are deleted, so running it in two
checkouts and comparing with ``diff -r OUT_A OUT_B`` checks that every report and
CSV byte is unchanged. The full-A failure probe runs after the full-A scenarios; its
outcome is printed, not written.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

from qqsp.cli import main as qqsp_main  # noqa: E402
from qqsp.scenarios import builtin_scenarios  # noqa: E402
from scale import scenario  # noqa: E402
from workloads import write_scenarios  # noqa: E402

SEED = "1"
SCALE_ROWS = ("5,8,A", "5,8,B", "6,8,A", "3,12,B", "4,10,A", "2,16,B")


def run(target: str, out_dir: Path, fmt: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return qqsp_main(["run", target, "--out-dir", str(out_dir),
                          "--seed", SEED, "--format", fmt])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    failed = []
    for name in sorted(builtin_scenarios()):
        if run(name, out / "builtins", "csv-bundle") != 0:
            failed.append(name)
    probe_outcome = "none"
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("full-A", "full-B"):
            paths, probe, fmt = write_scenarios(workload, int(SEED), Path(tmp) / workload)
            for path in paths:
                if run(str(path), out / workload, fmt) != 0:
                    failed.append(path.stem)
            if probe is not None:
                try:
                    with tempfile.TemporaryDirectory() as probe_out:
                        probe_outcome = f"exit {run(str(probe), Path(probe_out), fmt)}"
                except ValueError as exc:
                    probe_outcome = f"{type(exc).__name__}: {exc}"
        for row in SCALE_ROWS:
            doc = scenario(row)
            path = Path(tmp) / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            if run(str(path), out / "scale", "structured") != 0:
                failed.append(doc["name"])
    for sidecar in out.rglob("*.timings.txt"):
        sidecar.unlink()
    written = sorted(p for p in out.rglob("*") if p.is_file())
    print(f"{len(written)} files under {out}; failed runs: {failed or 'none'}; "
          f"probe: {probe_outcome}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
