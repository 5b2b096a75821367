"""Compare two output trees of ``scripts/byteid.py`` for floating-point drift.

    python3 scripts/drift.py TREE_A TREE_B

Both trees must hold the same files. Inside them every JSON key, list
length, string, bool (every verdict) and null, and every CSV header and
non-numeric cell, must match; anything else is a structural difference.
Numbers may differ: the script prints the worst absolute drift per report
field (a JSON path with list indices and time-tuple keys such as "0,1,2"
collapsed to ``*``) and per CSV kind and column, with the file it occurred
in. It exits 1 on any structural difference and 0 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

TIME_KEY = re.compile(r"^\d+(,\d+)*$")


class Drift:
    def __init__(self):
        self.worst: dict = {}        # field -> (drift, file)
        self.problems: list[str] = []

    def number(self, field: str, a, b, where: str) -> None:
        if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
            gap = 0.0
        else:
            gap = abs(a - b)
            if math.isnan(gap):
                gap = math.inf
        if field not in self.worst or gap > self.worst[field][0]:
            self.worst[field] = (gap, where)

    def json(self, field: str, a, b, where: str) -> None:
        if _is_number(a) and _is_number(b):
            self.number(field, a, b, where)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.problems.append(f"{where}: {field or '/'} keys differ: "
                                     f"{sorted(a.keys() ^ b.keys())}")
                return
            for key in sorted(a):
                part = "*" if TIME_KEY.match(key) else key
                self.json(f"{field}/{part}", a[key], b[key], where)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.problems.append(f"{where}: {field} has lengths {len(a)} and {len(b)}")
                return
            for x, y in zip(a, b):
                self.json(f"{field}[]", x, y, where)
        elif type(a) is not type(b) or a != b:
            self.problems.append(f"{where}: {field} differs: {a!r} != {b!r}")

    def csv(self, kind: str, a: Path, b: Path, where: str) -> None:
        rows_a = list(csv.reader(a.read_text().splitlines()))
        rows_b = list(csv.reader(b.read_text().splitlines()))
        if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            self.problems.append(f"{where}: CSV header or row count differs")
            return
        header = rows_a[0]
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            if len(row_a) != len(row_b):
                self.problems.append(f"{where}: CSV row lengths differ")
                return
            for column, x, y in zip(header, row_a, row_b):
                fx, fy = _float(x), _float(y)
                if fx is not None and fy is not None:
                    self.number(f"{kind}:{column}", fx, fy, where)
                elif x != y:
                    self.problems.append(f"{where}: {column} differs: {x!r} != {y!r}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare(tree_a: Path, tree_b: Path) -> Drift:
    drift = Drift()
    files_a = {p.relative_to(tree_a) for p in tree_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(tree_b) for p in tree_b.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        drift.problems.append(f"{rel}: present in only one tree")
    for rel in sorted(files_a & files_b):
        a, b = tree_a / rel, tree_b / rel
        where = str(rel)
        if rel.suffix == ".json":
            drift.json("", json.loads(a.read_text()), json.loads(b.read_text()), where)
        elif rel.suffix == ".csv":
            # mixed-n2-typeA.decay_Z.csv -> decay_Z
            drift.csv(rel.name.split(".")[-2], a, b, where)
        elif a.read_bytes() != b.read_bytes():
            drift.problems.append(f"{where}: contents differ")
    return drift


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    drift = compare(Path(argv[0]), Path(argv[1]))
    width = max((len(f) for f in drift.worst), default=0)
    for field, (gap, where) in sorted(drift.worst.items()):
        print(f"{field:<{width}}  {gap:.3e}  {where if gap else ''}".rstrip())
    for problem in drift.problems:
        print(f"STRUCTURAL: {problem}")
    print(f"{len(drift.worst)} numeric fields; worst drift "
          f"{max((g for g, _ in drift.worst.values()), default=0.0):.3e}; "
          f"{len(drift.problems)} structural difference(s)")
    return 1 if drift.problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
