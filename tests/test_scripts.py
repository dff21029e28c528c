"""Smoke tests of the study scripts, run as a user would run them."""

import json
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


def run_diff(a, b):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "diff_emitted.py"), str(a), str(b)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_diff_emitted_refuses_missing_and_empty_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    missing = run_diff(a, b)
    assert missing.returncode == 2 and str(a) in missing.stderr
    assert "all files" not in missing.stdout
    a.mkdir()
    assert run_diff(a, b).returncode == 2 and str(b) in run_diff(a, b).stderr
    (tmp_path / "file.csv").write_text("x\n")
    not_dir = run_diff(a, tmp_path / "file.csv")
    assert not_dir.returncode == 2 and "file.csv" in not_dir.stderr
    b.mkdir()
    empty = run_diff(a, b)
    assert empty.returncode == 1 and "nothing was compared" in empty.stdout
    assert "all files" not in empty.stdout


def test_diff_emitted_reports_cells_of_two_quick_suite_emits(tmp_path):
    from conifold_lab.experiments import run_config_file

    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_config_file(ROOT / "configs" / "quick_suite.json",
                        formats=("csv", "json", "plotdata"), out_dir=out)
    same = run_diff(a, b)
    assert same.returncode == 0, same.stdout
    assert "all files: max abs 0, max rel 0" in same.stdout
    assert "embedding_uniformity.csv: 10 numeric cells, max abs 0, max rel 0" in same.stdout

    # a hand-edited numeric cell is measured, not judged
    csv_path = b / "embedding_uniformity.csv"
    header, row, *rest = csv_path.read_text().splitlines()
    cells = row.split(",")
    col = header.split(",").index("constant")
    cells[col] = repr(float(cells[col]) * (1 + 1e-9))
    csv_path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    edited = run_diff(a, b)
    assert edited.returncode == 0, edited.stdout
    line = next(s for s in edited.stdout.splitlines() if s.startswith("embedding_uniformity.csv"))
    rel = float(line.rsplit("max rel ", 1)[1])
    assert 0.9e-9 < rel < 1.1e-9

    # a non-numeric cell, a missing file or a missing row fails
    json_path = b / "norm_identities.json"
    json_path.write_text(json_path.read_text().replace('"passed": true', '"passed": false'))
    assert run_diff(a, b).returncode == 1
    json_path.write_text((a / "norm_identities.json").read_text())
    assert run_diff(a, b).returncode == 0
    # JSON types and key order count: a number written as a string, or
    # the same keys in another order, fails
    result = json.loads((a / "norm_identities.json").read_text())
    json_path.write_text(json.dumps(result))
    assert run_diff(a, b).returncode == 0
    as_text = dict(result, config=dict(result["config"], a=str(result["config"]["a"])))
    json_path.write_text(json.dumps(as_text))
    retyped = run_diff(a, b)
    assert retyped.returncode == 1 and "MISMATCH /config/a: 0.4 != '0.4'" in retyped.stdout
    json_path.write_text(json.dumps(dict(reversed(list(result.items())))))
    reordered = run_diff(a, b)
    assert reordered.returncode == 1 and "MISMATCH / keys" in reordered.stdout
    json_path.write_text((a / "norm_identities.json").read_text())
    (b / "eta_bounds.csv").unlink()
    assert run_diff(a, b).returncode == 1
    (b / "eta_bounds.csv").write_text("\n".join((a / "eta_bounds.csv").read_text().splitlines()[:-1]) + "\n")
    missing_row = run_diff(a, b)
    assert missing_row.returncode == 1 and "MISMATCH rows" in missing_row.stdout
