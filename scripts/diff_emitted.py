#!/usr/bin/env python3
"""Compare two `emit` output directories cell by cell.

Usage: python scripts/diff_emitted.py A B

Reads every file of both directories: CSV tables (.csv), JSON results
(.json) and plot data (.dat); any other file is compared byte for byte.
Numeric cells are compared as numbers, and for each file the largest
absolute difference |b - a| and the largest relative difference
|b - a| / |a| are printed, A being the reference.  A numeric cell is a
CSV or plot-data field that parses as a float, or a JSON int or float
(not a boolean, and not a string, even one that looks like a number).
Every other cell (text, booleans, nulls), the file sets, the CSV
columns, the JSON keys in their emitted order and the row counts must
agree exactly; the exit status is 1 if any of them differs, 0
otherwise.  There is no tolerance: the numbers are reported, and
judging them is left to the reader.  An argument that is not an
existing directory exits 2, and two directories that hold no files
exit 1: neither is a comparison of emitted output.
"""

import csv
import io
import json
import math
import sys
from pathlib import Path


def _number(v):
    """v as a float if it is a numeric cell (an int or a float, not a
    boolean), else None."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    return None


def _text_cell(v):
    """A CSV or plot-data field: a float if it parses as one (text has
    no types), else the string."""
    try:
        return float(v)
    except ValueError:
        return v


def _csv_cells(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    header, body = rows[0], rows[1:]
    cells = [(f"row {i + 1}, {header[j] if j < len(header) else j}", _text_cell(v))
             for i, row in enumerate(body) for j, v in enumerate(row)]
    shape = [("columns", tuple(header)), ("rows", len(body))]
    shape += [(f"row {i + 1} cells", len(row)) for i, row in enumerate(body)]
    return cells, shape


def _dat_cells(text):
    lines = [line.split() for line in text.splitlines()]
    cells = [(f"line {i + 1}, field {j + 1}", _text_cell(v))
             for i, line in enumerate(lines) for j, v in enumerate(line)]
    shape = [("lines", len(lines))] + [(f"line {i + 1} fields", len(line))
                                      for i, line in enumerate(lines)]
    return cells, shape


def _json_cells(text):
    cells, shape = [], []

    def walk(v, where):
        if isinstance(v, dict):
            shape.append((f"{where or '/'} keys", tuple(v)))
            for k in v:
                walk(v[k], f"{where}/{k}")
        elif isinstance(v, list):
            shape.append((f"{where or '/'} length", len(v)))
            for i, item in enumerate(v):
                walk(item, f"{where}[{i}]")
        else:
            cells.append((where or "/", v))

    walk(json.loads(text), "")
    return cells, shape


READERS = {".csv": _csv_cells, ".dat": _dat_cells, ".json": _json_cells}


def _difference(a, b):
    """(absolute, relative) difference of two numbers."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(b - a)
    if math.isnan(d):
        d = math.inf
    return d, (d / abs(a) if a != 0 else math.inf)


def compare_file(pa: Path, pb: Path):
    """(numeric cell count, max abs, max rel, list of mismatches)."""
    reader = READERS.get(pa.suffix)
    if reader is None:
        same = pa.read_bytes() == pb.read_bytes()
        return 0, 0.0, 0.0, [] if same else ["contents differ"]
    (ca, sa), (cb, sb) = reader(pa.read_text("utf-8")), reader(pb.read_text("utf-8"))
    problems = [f"{what}: {x!r} != {y!r}" for (what, x), (_, y) in zip(sa, sb) if x != y]
    if len(sa) != len(sb) or problems:
        return 0, 0.0, 0.0, problems or ["structure differs"]
    n = 0
    max_abs = max_rel = 0.0
    for (where, x), (_, y) in zip(ca, cb):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            if x != y:
                problems.append(f"{where}: {x!r} != {y!r}")
            continue
        n += 1
        d_abs, d_rel = _difference(fx, fy)
        max_abs, max_rel = max(max_abs, d_abs), max(max_rel, d_rel)
    return n, max_abs, max_rel, problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (Path(p) for p in argv)
    for p in (a, b):
        if not p.is_dir():
            print(f"not an existing directory: {p}", file=sys.stderr)
            return 2
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    if not files_a and not files_b:
        print(f"no files in {a} or {b}: nothing was compared")
        return 1
    failed = False
    for rel in sorted(files_a ^ files_b):
        print(f"only in {a if rel in files_a else b}: {rel}")
        failed = True
    total_abs = total_rel = 0.0
    for rel in sorted(files_a & files_b):
        n, d_abs, d_rel, problems = compare_file(a / rel, b / rel)
        total_abs, total_rel = max(total_abs, d_abs), max(total_rel, d_rel)
        print(f"{rel}: {n} numeric cells, max abs {d_abs:.3g}, max rel {d_rel:.3g}")
        for msg in problems:
            print(f"  MISMATCH {msg}")
        failed = failed or bool(problems)
    print(f"all files: max abs {total_abs:.3g}, max rel {total_rel:.3g}"
          + ("; non-numeric differences found" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
