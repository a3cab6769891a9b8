"""Compare two cli_battery.py output directories number by number.

    python tools/compare_battery.py A B

A case is a directory holding ``exit_code``.  Every JSON file (``stdout``
included, when it parses) is read as a tree of paths, a list of numbers
counting as one path, and every CSV file as one path per column; other
files are compared as text.  The script prints

- the cases whose exit codes differ;
- per case, the largest relative difference among floats with |v| > 1e-8
  and the largest absolute difference among the rest;
- under each case, every path or column whose relative difference exceeds
  1e-10 or whose absolute difference exceeds 1e-12, and every difference
  that is not a number: a verdict, a string, a text file, a missing path
  or file, a changed length.

It exits 1 when an exit code or anything that is not a number differs, else
0.  Numbers are never a verdict here: which of them may move is for the
reader to judge.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

LARGE = 1e-8  # floats of larger magnitude are compared relatively
REL, ABS = 1e-10, 1e-12  # a path is printed above either bound


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_paths(obj, path="", out=None) -> dict:
    """Path -> leaf value; a non-empty list of numbers is one leaf."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for key, value in obj.items():
            _json_paths(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list) and not (obj and all(map(_is_number, obj))):
        for i, value in enumerate(obj):
            _json_paths(value, f"{path}[{i}]", out)
    else:
        out[f"{path}[*]" if isinstance(obj, list) else path] = obj
    return out


def _csv_paths(text: str) -> dict:
    """Column name -> list of its cells, as floats where every cell is one."""
    rows = list(csv.reader(text.splitlines())) or [[]]
    columns = {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}
    for name, cells in columns.items():
        try:
            columns[name] = [float(cell) for cell in cells]
        except ValueError:
            pass
    return columns


def _paths(file: Path) -> dict:
    """The comparable paths of one output file."""
    text = file.read_text()
    if file.suffix == ".csv":
        return _csv_paths(text)
    try:
        return _json_paths(json.loads(text))
    except ValueError:
        return {"": text}


def _numbers(value):
    """value as a float array when it is a number or a list of numbers."""
    if _is_number(value):
        return np.array([float(value)])
    if isinstance(value, list) and value and all(map(_is_number, value)):
        return np.array(value, dtype=float)
    return None


def _difference(a, b):
    """(largest relative difference, largest absolute difference), or None
    when a and b are not numbers of one shape that agree off the finite."""
    x, y = _numbers(a), _numbers(b)
    if x is None or y is None or x.shape != y.shape:
        return None
    finite = np.isfinite(x) & np.isfinite(y)
    if not np.array_equal(x[~finite], y[~finite], equal_nan=True):
        return None
    x, y = x[finite], y[finite]
    mag, gap = np.maximum(np.abs(x), np.abs(y)), np.abs(x - y)
    large = mag > LARGE
    rel = float((gap[large] / mag[large]).max(initial=0.0))
    return rel, float(gap[~large].max(initial=0.0))


def compare_case(a: Path, b: Path):
    """(largest relative, largest absolute, flagged lines, non-numeric
    difference seen) over every file of one case."""
    rel = ab = 0.0
    lines, mismatch = [], False
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    names.discard(Path("exit_code"))  # compared on its own
    for name in sorted(names):
        if not ((a / name).is_file() and (b / name).is_file()):
            lines.append(f"  {name}: only in {'B' if (b / name).is_file() else 'A'}")
            mismatch = True
            continue
        pa, pb = _paths(a / name), _paths(b / name)
        for path in sorted(pa.keys() | pb.keys()):
            where = f"{name}:{path}" if path else str(name)
            if path not in pa or path not in pb:
                lines.append(f"  {where}: only in {'B' if path in pb else 'A'}")
                mismatch = True
            elif pa[path] != pb[path]:
                diff = _difference(pa[path], pb[path])
                if diff is None:
                    lines.append(f"  {where}: differs, not as numbers")
                    mismatch = True
                    continue
                rel, ab = max(rel, diff[0]), max(ab, diff[1])
                if diff[0] > REL or diff[1] > ABS:
                    lines.append(f"  {where}: rel {diff[0]:.2e} abs {diff[1]:.2e}")
    return rel, ab, lines, mismatch


def main(argv) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} A B", file=sys.stderr)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    cases = sorted({p.parent.relative_to(a) for p in a.glob("*/exit_code")}
                   | {p.parent.relative_to(b) for p in b.glob("*/exit_code")})
    failed = False
    for case in cases:
        codes = [(root / case / "exit_code").read_text().strip()
                 if (root / case / "exit_code").is_file() else "missing" for root in (a, b)]
        if codes[0] != codes[1]:
            print(f"exit codes differ: {case} (A {codes[0]}, B {codes[1]})")
            failed = True
    print(f"{'case':40s} {'max rel':>9s} {'max abs':>9s}")
    for case in cases:
        rel, ab, lines, mismatch = compare_case(a / case, b / case)
        failed |= mismatch
        print(f"{str(case):40s} {rel:9.2e} {ab:9.2e}")
        for line in lines:
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
