#!/usr/bin/env python3
"""Write the weight-region classification grids (the qualitative content
of the harmonic-function figures) for all three geometries.

Usage: python scripts/make_region_atlas.py [outdir] [step]
"""

import sys
from pathlib import Path

from conifold_lab.experiments import REGION_ATLAS_COLUMNS, csv_text, region_atlas_rows

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
STEP = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for kind in ("AC", "CS", "CSAC"):
        rows = region_atlas_rows(kind, 3, "sphere:2", STEP)
        path = OUT / f"region_atlas_{kind.lower()}.csv"
        path.write_text(csv_text(REGION_ATLAS_COLUMNS, rows), encoding="utf-8")
        known = sum(1 for r in rows if not r["exceptional"] and r["kernel_dim"] != "")
        print(f"{kind}: {len(rows)} cells -> {path} ({known} with known kernel)")


if __name__ == "__main__":
    main()
