"""Smoke tests of the study scripts, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def test_spectral_convergence_is_second_order():
    lines = run_script("spectral_convergence.py").splitlines()
    header = lines[0].split()
    assert header[:2] == ["e", "gamma"]
    assert header[2:] == ["n=200", "n=400", "n=800", "n=1600"]
    rows = [[float(v) for v in line.split()] for line in lines[1:]]
    assert len(rows) == 10
    roundoff = 0
    for e, gamma, *res in rows:
        if res[0] > 1e-8:
            # each doubling of the resolution cuts the residual about 4x
            assert all(a >= 3.5 * b for a, b in zip(res, res[1:])), (e, gamma, res)
        else:
            # r^0, r^1 and r^2 are annihilated up to roundoff
            assert gamma in (0.0, 1.0, 2.0), (e, gamma, res)
            assert max(res) < 1e-9, (e, gamma, res)
            roundoff += 1
    assert roundoff == 3
