"""Harness behavior: dispatch, emission, determinism, exit codes."""

import json
from pathlib import Path

import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from conifold_lab import experiments
from conifold_lab import spectral_laplace as sl
from conifold_lab.experiments import (
    ExperimentConfig,
    ExperimentError,
    emit,
    region_atlas_rows,
    run,
    run_config_file,
)
from conifold_lab.link_spectra import make_link
from conifold_lab.weight_calculus import EndDescriptor, WeightVector, classify_weight_region

FAMILY_JSON = Path(__file__).resolve().parents[1] / "configs" / "dumbbell_family.json"


def small(experiment, **kw):
    defaults = dict(t_list=(1e-1, 1e-2), n_per_region=120, e_max=6.0,
                    family_size=8, r_max=100.0)
    defaults.update(kw)
    return ExperimentConfig(experiment=experiment, **defaults)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="nope")


def test_t_list_must_decrease():
    with pytest.raises(ValueError, match="strictly decreasing"):
        ExperimentConfig(experiment="eta_bounds", t_list=(1e-2, 1e-1))


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(experiment="eta_bounds", tolerances={"trend_slope": -1.0})


def test_unknown_tolerance_names_are_refused():
    with pytest.raises(ValueError, match="eta_exponent_frist.*eta_exponent_first"):
        ExperimentConfig(experiment="eta_bounds", tolerances={"eta_exponent_frist": 1e-9})


@pytest.mark.parametrize("name, value", [
    ("n_per_region", 0), ("family_size", 0), ("e_max", -1.0), ("grid_step", 0.0),
    ("grid_step", -0.25), ("gamma_cases", []), ("t_list", []),
])
def test_out_of_range_fields_are_refused(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ExperimentConfig.from_dict({"experiment": "eta_bounds", name: value})


def test_unknown_config_keys_are_refused():
    # "k" was a field once; no experiment read it
    with pytest.raises(TypeError, match="'k'"):
        ExperimentConfig.from_dict({"experiment": "eta_bounds", "k": 7})
    assert "k" not in ExperimentConfig(experiment="eta_bounds").to_dict()


def test_run_tags_errors_and_keeps_the_original(monkeypatch):
    # ArpackNoConvergence takes three constructor arguments, so it cannot
    # be rebuilt from a message alone
    original = ArpackNoConvergence("x", [], [])

    def failing(cfg):
        raise original

    monkeypatch.setitem(experiments._RUNNERS, "eta_bounds", failing)
    message = r"^\[eta_bounds\] ArpackNoConvergence: ARPACK error -1: x$"
    with pytest.raises(ExperimentError, match=message) as info:
        run(ExperimentConfig(experiment="eta_bounds"))
    assert info.value.experiment == "eta_bounds"
    assert info.value.__cause__ is original


def test_arpack_failure_reaches_the_caller_of_an_experiment(monkeypatch):
    # the spindle's pencils are small enough for a dense solve; none may stand
    # in for ARPACK, and ARPACK's own error is the cause
    original = ArpackNoConvergence("no convergence", [], [])

    def eigsh(*args, **kwargs):
        raise original

    monkeypatch.setattr(sl.spla, "eigsh", eigsh)
    cfg = ExperimentConfig(experiment="compact_invertibility", model="spindle",
                           n_per_region=200, t_list=(0.1, 0.01), e_max=2.0)
    with pytest.raises(ExperimentError) as info:
        run(cfg)
    assert info.value.__cause__ is original


def test_r_max_inside_an_ac_end_fails_the_experiment():
    # the dumbbell's right AC end starts at r = 2; before the grid refused
    # r_max 0.5 it meshed past 2 and the sweep passed
    cfg = ExperimentConfig.from_dict({"experiment": "invertibility_uniformity",
                                      "r_max": 0.5, "n_per_region": 100, "e_max": 2.0})
    with pytest.raises(ExperimentError) as info:
        run(cfg)
    cause = info.value.__cause__
    assert isinstance(cause, ValueError)
    assert "r_max 0.5" in str(cause) and "radius 2.0" in str(cause)


@pytest.mark.parametrize("experiment", [
    "embedding_uniformity", "invertibility_uniformity", "poincare_uniformity",
    "gns_uniformity", "neck_convergence",
])
def test_dumbbell_experiments_run_and_pass(experiment):
    res = run(small(experiment))
    assert res.passed, res.summary
    assert res.rows
    ts = [r["t"] for r in res.rows]
    assert ts == sorted(ts, reverse=True)  # rows ordered by t descending


SUMMARY_KEYS = ["max", "min", "max_over_min", "trend_slope", "pass"]


@pytest.mark.parametrize("experiment,columns,summary_keys", [
    ("embedding_uniformity",
     ("t", "constant", "p_star", "family_size", "grid_size"), SUMMARY_KEYS),
    ("invertibility_uniformity",
     ("model", "t", "beta", "constant", "sigma_min", "grid_size",
      "sigma_e0", "sigma_e2", "sigma_e6"), SUMMARY_KEYS),
    ("compact_invertibility",
     ("model", "t", "beta", "constant", "sigma_constrained",
      "sigma_mode0_unconstrained", "grid_size"),
     ["max", "min", "max_over_min", "trend_slope", "constants_detected", "pass"]),
    ("poincare_uniformity",
     ("model", "t", "beta", "constant", "grid_size"), SUMMARY_KEYS),
    ("gns_uniformity", ("t", "constant", "p_star", "grid_size"), SUMMARY_KEYS),
])
def test_sweep_columns_and_summary_keys_are_pinned(experiment, columns, summary_keys):
    # emitted tables and the printed summaries are read by downstream tools
    res = run(small(experiment))
    assert res.columns == columns
    assert list(res.summary) == summary_keys
    assert res.config == small(experiment).to_dict()


def test_compact_default_model_is_the_spindle():
    res = run(small("compact_invertibility"))
    assert res.config["model"] == "dumbbell"  # the config is echoed as given
    assert {r["model"] for r in res.rows} == {"spindle"}


@pytest.mark.parametrize("experiment", sorted(experiments.SWEEPS))
def test_sweeps_need_two_t_values(experiment):
    with pytest.raises(ExperimentError, match="at least two t values") as info:
        run(small(experiment, t_list=(1e-1,)))
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("experiment", ["embedding_uniformity", "invertibility_uniformity"])
def test_family_json_matches_dumbbell_preset(experiment):
    # configs/dumbbell_family.json writes out the dumbbell preset, so the
    # sweep must give the same rows and summary; only the model text differs
    preset = run(small(experiment, model="dumbbell"))
    from_json = run(small(experiment, model=str(FAMILY_JSON)))

    def without_model(rows):
        return [{k: v for k, v in row.items() if k != "model"} for row in rows]

    assert from_json.columns == preset.columns
    assert without_model(from_json.rows) == without_model(preset.rows)
    assert from_json.summary == preset.summary
    assert from_json.passed == preset.passed


def test_compact_experiment_runs():
    res = run(small("compact_invertibility", model="spindle"))
    assert res.passed, res.summary


def test_eta_and_crossing_and_identities():
    res = run(ExperimentConfig(experiment="eta_bounds", tau=0.95, a=0.9, b=0.05,
                               t_list=(1e-8, 1e-10, 1e-12, 1e-14)))
    assert res.passed
    res = run(small("weight_crossing", model="hyperboloid_capped",
                    t_list=(1e-1,), n_per_region=300))
    assert res.passed
    res = run(small("norm_identities", t_list=(1e-1,), n_per_region=250))
    assert res.passed
    assert res.summary["holder_violations"] == 0


def test_emit_roundtrip_and_determinism(tmp_path):
    cfg = small("neck_convergence")
    res = run(cfg)
    files = emit(res, formats=("csv", "json", "plotdata"), out_dir=tmp_path)
    names = {f.name for f in files}
    assert "neck_convergence.csv" in names
    assert "neck_convergence.json" in names
    payload = json.loads((tmp_path / "neck_convergence.json").read_text())
    assert payload["experiment"] == "neck_convergence"
    assert payload["passed"] is True
    assert payload["rows"]
    # byte-identical rerun
    first = {f.name: f.read_bytes() for f in files}
    res2 = run(cfg)
    files2 = emit(res2, formats=("csv", "json", "plotdata"), out_dir=tmp_path)
    second = {f.name: f.read_bytes() for f in files2}
    assert first == second


def test_csv_header_only_when_no_rows(tmp_path):
    cfg = small("neck_convergence")
    res = run(cfg)
    empty = type(res)(res.experiment, res.columns, (), res.summary,
                      res.passed, res.seed, res.config)
    (path, *_rest) = emit(empty, formats=("csv",), out_dir=tmp_path)
    assert path.read_text().strip() == ",".join(res.columns)


def test_run_config_file_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "experiment": "eta_bounds", "tau": 0.95, "a": 0.9, "b": 0.05,
        "t_list": [1e-8, 1e-10, 1e-12, 1e-14],
    }))
    code, results = run_config_file(good, out_dir=tmp_path)
    assert code == 0 and results[0].passed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "experiment": "eta_bounds", "tau": 0.95, "a": 0.9, "b": 0.05,
        "t_list": [1e-8, 1e-10, 1e-12, 1e-14],
        "tolerances": {"eta_exponent_second": 1e-6},
    }))
    code, results = run_config_file(bad, out_dir=tmp_path)
    assert code == 1 and not results[0].passed


def test_region_atlas_matches_classifier():
    rows = region_atlas_rows("AC", 3, "sphere:2", 0.5)
    link = make_link("sphere", dim=2)
    ends = [EndDescriptor("AC", link), EndDescriptor("AC", link)]
    probe = [r for r in rows if (r["beta1"], r["beta2"]) == (-0.5, -0.5)][0]
    facts = classify_weight_region("AC", ends, WeightVector((-0.5, -0.5)), 3)
    assert probe["injective"] == int(facts.injective)
    assert probe["index"] == facts.index
    # exceptional rows are marked, not classified
    exc = [r for r in rows if r["beta1"] == -1.0]
    assert all(r["exceptional"] == 1 for r in exc)


@pytest.mark.parametrize("step, lo, hi", [(0.0, None, None), (-0.5, None, None),
                                           (0.5, 2.0, 1.0), (0.5, 1.0, 1.0)])
def test_region_atlas_refuses_empty_grids(step, lo, hi):
    with pytest.raises(ValueError, match="step must be positive|needs lo < hi"):
        region_atlas_rows("AC", 3, "sphere:2", step, lo, hi)


def test_region_atlas_passes_consistency():
    res = run(ExperimentConfig(experiment="region_atlas", kind="CSAC", grid_step=0.5))
    assert res.passed


def test_emit_refuses_unknown_formats(tmp_path):
    res = experiments.SweepResult("eta_bounds", ("t",), ({"t": 0.1},), {}, True, 0, {})
    out = tmp_path / "out"
    for formats in (("jsn",), ("csv", "jsn", "txt")):
        with pytest.raises(ValueError, match=r"'jsn'.*expected some of csv, json, plotdata"):
            emit(res, formats=formats, out_dir=out)
    assert not out.exists()


def test_run_config_file_checks_formats_before_running(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "eta_bounds"}))
    ran = []
    monkeypatch.setattr(experiments, "run", ran.append)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="'jsn'"):
        run_config_file(path, formats=("csv", "jsn"), out_dir=out)
    assert ran == [] and not out.exists()


def test_run_config_file_refuses_bad_lists_before_running(tmp_path, monkeypatch):
    """An empty experiment list, or an invalid config anywhere in the
    list, raises before the first experiment runs."""
    ran = []
    monkeypatch.setattr(experiments, "run", ran.append)
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps({"experiments": []}))
    with pytest.raises(ValueError, match="lists no experiments"):
        run_config_file(path, out_dir=out)
    path.write_text(json.dumps({"experiments": [
        {"experiment": "eta_bounds"}, {"experiment": "eta_bounds", "t_list": [0.01, 0.1]}]}))
    with pytest.raises(ValueError, match="strictly decreasing"):
        run_config_file(path, out_dir=out)
    assert ran == [] and not out.exists()
