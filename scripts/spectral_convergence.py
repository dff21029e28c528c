#!/usr/bin/env python3
"""Consistency-order study: the discrete radial Laplacian applied to
sampled cone harmonics r^gamma on the exact cone, across resolutions.

Usage: python scripts/spectral_convergence.py
"""

import numpy as np

from conifold_lab.conifold_model import preset_model
from conifold_lab.link_spectra import make_link
from conifold_lab.spectral_laplace import assemble_mode_operator
from conifold_lab.weight_calculus import exceptional_weights
from conifold_lab.weighted_calc import _band_rows, build_grid


def main():
    link = make_link("sphere", dim=2)
    model = preset_model("exact_cone_cs_ac")
    geo = model.geometry(0)
    resolutions = (200, 400, 800, 1600)
    grids = {n: build_grid(geo, n_per_region=n) for n in resolutions}
    print(f"{'e':>6} {'gamma':>7}" + "".join(f"{('n=%d' % n):>12}" for n in resolutions))
    for w in exceptional_weights(link, 3, (-6.0, 5.0)):
        res = []
        for n in resolutions:
            grid = grids[n]
            op = assemble_mode_operator(grid, w.source_eigenvalue)
            u = grid.rho**w.gamma
            r = _band_rows(op.P, u)[op.interior]
            res.append(float(np.max(np.abs(r) / np.abs(u[op.interior]))))
        print(f"{w.source_eigenvalue:>6.1f} {w.gamma:>7.2f}"
              + "".join(f"{v:>12.3e}" for v in res))


if __name__ == "__main__":
    main()
