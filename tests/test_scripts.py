"""Smoke tests of the study scripts, run as a user would run them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(pass_s, setup_s, correct=True, failed=0):
    """run.py's output for one run: an env line, summaries, the result."""
    result = {"correct": correct, "attempted": 128, "failed": failed, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": 74.25, "unit": "MB"}}}
    return "\n".join([
        'env {"git_sha": "unknown", "nproc": 2}',
        "glued_norms seed=4 input_seed=4 passes=8 traced_passes=0",
        "failed_frac 0.0 ratio (0/128) result_drift 0 count",
        json.dumps(result)]) + "\n"


def test_bench_pairs_summary_on_canned_runs():
    bp = load_bench_pairs()
    parent = [0.24, 0.25, 0.23, 0.26, 0.22]
    change = [0.20, 0.21, 0.24, 0.22, 0.19]
    pairs = [(10 + i, bp.parse_result(canned_run(p, 0.2)),
              bp.parse_result(canned_run(c, 0.19 if i % 2 else 0.21, correct=i != 4)))
             for i, (p, c) in enumerate(zip(parent, change))]
    lines = bp.summarize(pairs, {"pass_s": "lower"})
    assert lines[0].split() == ["metric", "side", "min", "q1", "median", "q3", "max"]
    table = {tuple(line.split()[:2]): [float(v) for v in line.split()[2:]]
             for line in lines[1:] if not line.split()[0].endswith(":")
             and line.split()[1] in ("parent", "change")}
    # quartiles as statistics.quantiles(n=4) gives them
    assert table[("pass_s", "parent")] == pytest.approx([0.22, 0.225, 0.24, 0.255, 0.26])
    assert table[("pass_s", "change")] == pytest.approx([0.19, 0.195, 0.21, 0.23, 0.24])
    verdict = next(line for line in lines if line.startswith("pass_s:"))
    assert verdict == ("pass_s: change better in 4 of 5 pairs; median 0.2400 -> 0.2100 "
                       "(-12.5 %); median gap 0.0300 against the parent's Q3 - Q1 0.0300")
    setup = next(line for line in lines if line.startswith("setup_s:"))
    assert setup.startswith("setup_s: change better in 2 of 5 pairs")  # 0.19 < 0.2 < 0.21
    peak = next(line for line in lines if line.startswith("peak_rss_mb: change better"))
    assert "in 0 of 5 pairs" in peak  # ties are no win
    assert lines[-1] == ("seed 14: parent setup_s 0.2000 pass_s 0.2200 peak_rss_mb 74.2500 "
                         "correct true failed 0/128 | change setup_s 0.2100 pass_s 0.1900 "
                         "peak_rss_mb 74.2500 correct false failed 0/128")


def test_bench_pairs_refuses_bad_arguments(tmp_path):
    bp = load_bench_pairs()
    with pytest.raises(ValueError, match="printed nothing"):
        bp.parse_result("")
    with pytest.raises(ValueError, match="no metrics"):
        bp.parse_result('{"correct": true}\n')
    assert bp.main([str(tmp_path), str(ROOT), "--workload", "glued_norms", "--pairs", "3",
                    "--seed0", "0"]) == 2
    assert bp.main([str(ROOT), str(ROOT), "--workload", "glued_norms", "--pairs", "1",
                    "--seed0", "0"]) == 2


def verdicts(lines, name):
    return [line for line in lines if line.startswith(f"{name}: ")
            and not line.startswith(f"{name}: change better")]


def synthetic_pairs(bp, parent, change, failed=(0, 0)):
    return [(i, bp.parse_result(canned_run(p, 0.2, failed=failed[0])),
             bp.parse_result(canned_run(c, 0.2, failed=failed[1])))
            for i, (p, c) in enumerate(zip(parent, change))]


def test_bench_pairs_verdicts_on_synthetic_pairs():
    bp = load_bench_pairs()
    parent = [0.21, 0.20, 0.22, 0.21, 0.20, 0.21, 0.22, 0.20, 0.21, 0.21]
    # better in 9 of 10 pairs, median 0.21 -> 0.18, against a parent Q3 - Q1 of 0.0125
    change = [0.18, 0.17, 0.19, 0.18, 0.21, 0.18, 0.19, 0.17, 0.18, 0.18]
    bounds = {"pass_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
    lines = bp.summarize(synthetic_pairs(bp, parent, change), {"pass_s": "lower"}, bounds)
    assert verdicts(lines, "pass_s") == [
        "pass_s: gain rule holds: better in 9 of 10 pairs (needs 9), median better by "
        "0.0300 (needs more than 0.0125)",
        "pass_s: inside its bound: change median 14.3 % better than the parent's "
        "(bound: 25.0 % worse)"]
    # ties win no pair and gain nothing; no failed share, no warning
    assert verdicts(lines, "peak_rss_mb")[0].startswith("peak_rss_mb: gain rule fails: better "
                                                        "in 0 of 10 pairs")
    assert not any(line.startswith("WARNING") for line in lines)

    # 8 of 10 pairs fail the rule, however large the gap
    eight = change[:9] + [0.23]
    lines = bp.summarize(synthetic_pairs(bp, parent, eight), {}, bounds)
    assert verdicts(lines, "pass_s")[0].startswith("pass_s: gain rule fails: better in 8 of 10")
    # 10 of 10 with a gap inside the parent's Q3 - Q1 fails too
    close = [v - 0.001 for v in parent]
    lines = bp.summarize(synthetic_pairs(bp, parent, close), {}, bounds)
    assert verdicts(lines, "pass_s")[0] == (
        "pass_s: gain rule fails: better in 10 of 10 pairs (needs 9), median better by "
        "0.0010 (needs more than 0.0125)")

    # a higher-is-better metric turns both verdicts; a slower change leaves its bound
    slower = [1.3 * v for v in parent]
    lines = bp.summarize(synthetic_pairs(bp, parent, slower), {"pass_s": "higher"}, bounds)
    assert verdicts(lines, "pass_s")[0].startswith("pass_s: gain rule holds: better in 10 of 10")
    lines = bp.summarize(synthetic_pairs(bp, parent, slower), {}, bounds)
    assert verdicts(lines, "pass_s") == [
        "pass_s: gain rule fails: better in 0 of 10 pairs (needs 9), median better by "
        "-0.0630 (needs more than 0.0125)",
        "pass_s: OUTSIDE its bound: change median 30.0 % worse than the parent's "
        "(bound: 25.0 % worse)"]
    # no bound given: no bound verdict
    assert len(verdicts(bp.summarize(synthetic_pairs(bp, parent, slower)), "pass_s")) == 1

    # the failed share: a warning only when the change's exceeds the parent's
    for failed, warned in (((0, 1), True), ((1, 1), False), ((2, 1), False)):
        lines = bp.summarize(synthetic_pairs(bp, parent, change, failed), {}, bounds)
        warnings = [line for line in lines if line.startswith("WARNING")]
        assert len(warnings) == warned
    lines = bp.summarize(synthetic_pairs(bp, parent, change, (0, 1)))
    assert lines[-11] == (  # just before the ten runs
        "WARNING: the change failed 10/1280 operations, a larger share than the parent's 0/1280")
