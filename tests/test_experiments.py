"""Harness behavior: dispatch, emission, determinism, exit codes."""

import json
from pathlib import Path

import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from conifold_lab import conifold_model as cm
from conifold_lab import experiments
from conifold_lab import link_spectra
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
ACCEPTANCE = FAMILY_JSON.with_name("acceptance_suite.json")


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
    ("grid_step", -0.25), ("gamma_cases", []), ("t_list", []), ("seed", -1),
])
def test_out_of_range_fields_are_refused(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ExperimentConfig.from_dict({"experiment": "eta_bounds", name: value})


def test_unknown_config_keys_are_refused():
    # "k" was a field once; no experiment read it
    with pytest.raises(ValueError, match=r"^unknown config keys \['k'\]; expected names from "
                                         r"\['experiment', 'model', .*'tolerances'\]$"):
        ExperimentConfig.from_dict({"experiment": "eta_bounds", "k": 7})
    assert "k" not in ExperimentConfig(experiment="eta_bounds").to_dict()
    with pytest.raises(ValueError, match=r"keys \['tua', 'zz'\]"):
        ExperimentConfig.from_dict({"experiment": "eta_bounds", "zz": 1, "tua": 0.9})


def test_run_tags_errors_and_keeps_the_original(monkeypatch):
    # ArpackNoConvergence takes three constructor arguments, so it cannot
    # be rebuilt from a message alone; an error of either stage is tagged
    original = ArpackNoConvergence("x", [], [])

    def fail(*_args):
        raise original

    columns, model, _prepare = experiments._TABLE["eta_bounds"]
    for prepare in (fail, lambda cfg: fail):
        monkeypatch.setitem(experiments._TABLE, "eta_bounds", (columns, model, prepare))
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


SWEEPS = ("embedding_uniformity", "invertibility_uniformity", "compact_invertibility",
          "poincare_uniformity", "gns_uniformity")
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
    ("neck_convergence", ("t", "pair", "j", "sup"), ["strictly_decreasing", "pass"]),
    ("eta_bounds", ("t", "max_r_eta1", "max_r2_eta2", "inv_log_t"),
     ["exponent_first", "exponent_second", "pass"]),
    ("weight_crossing",
     ("gamma", "e", "tail_slope", "slope_bound", "residual_sigma", "threshold", "pass"),
     ["pass"]),
    ("region_atlas",
     ("beta1", "beta2", "exceptional", "injective", "surjective", "index", "kernel_dim"),
     ["cells", "consistent", "pass"]),
    ("norm_identities", ("case", "t", "k", "beta", "defect", "pass"),
     ["holder_violations", "pass"]),
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


def test_crossing_default_model_is_the_capped_hyperboloid():
    plain = run(small("weight_crossing", n_per_region=300))
    capped = run(small("weight_crossing", model="hyperboloid_capped", n_per_region=300))
    assert plain.config["model"] == "dumbbell"  # the config is echoed as given
    assert plain.columns == capped.columns
    assert plain.rows == capped.rows
    assert plain.summary == capped.summary


@pytest.mark.parametrize("experiment", SWEEPS)
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


CARRYING_ROWS = {"invertibility_uniformity": experiments._invertibility_row,
                 "poincare_uniformity": experiments._poincare_row}


@pytest.mark.parametrize("experiment", sorted(CARRYING_ROWS))
def test_hinted_sweeps_match_cold_calls_per_t(experiment, monkeypatch, tmp_path):
    """A sweep hands each t the previous t's report, whose per-mode values
    start the certified solves; its rows agree with cold per-t calls to
    1e-8 relative, with fewer factorizations, and a rerun of the same
    config emits the same bytes."""
    factorizations = []
    dpbtrf = sl.dpbtrf
    monkeypatch.setattr(sl, "dpbtrf", lambda *a: factorizations.append(1) or dpbtrf(*a))
    cfg = small(experiment, t_list=(1e-1, 1e-2, 1e-3, 1e-4), e_max=12.0)
    res = run(cfg)
    warm = len(factorizations)
    factorizations.clear()
    fam = experiments._family(cfg)
    for t, row in zip(cfg.t_list, res.rows):
        cold, _rep = CARRYING_ROWS[experiment](cfg, fam.at(t))
        assert list(row) == list(cold)
        for key, value in cold.items():
            assert row[key] == (pytest.approx(value, rel=1e-8)
                                if isinstance(value, float) else value), (t, key)
    assert warm < len(factorizations)
    first = {f.name: f.read_bytes()
             for f in emit(res, formats=("csv", "json", "plotdata"), out_dir=tmp_path / "a")}
    second = {f.name: f.read_bytes()
              for f in emit(run(cfg), formats=("csv", "json", "plotdata"),
                            out_dir=tmp_path / "b")}
    assert first == second


def test_arpack_solves_only_the_pinned_paths(monkeypatch):
    """ARPACK keeps one solve per pencil of a kernel scan, invertibility's
    mode 0 once per t and compact's unconstrained mode 0 once per t."""
    calls = []
    eigsh = sl.spla.eigsh
    monkeypatch.setattr(sl.spla, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
    ts = (1e-1, 1e-2, 1e-3)
    for experiment, model in (("invertibility_uniformity", "dumbbell"),
                              ("compact_invertibility", "spindle"),
                              ("poincare_uniformity", "dumbbell")):
        calls.clear()
        run(small(experiment, model=model, t_list=ts))
        assert len(calls) == (0 if experiment == "poincare_uniformity" else len(ts)), experiment
    calls.clear()
    model = cm.preset_model("hyperboloid_capped")
    rows = sl.kernel_dimension_scan(model, [0.5, 1.5], e_max=6.0, n_per_region=100)
    assert len(calls) == sum(len(row.per_mode) for row in rows) == 2 * 3


def test_each_constant_solves_each_mode_on_its_pinned_path(monkeypatch):
    """On a 3-t sweep, the solver calls of each eigen constant, as
    (solver, e, near) in order, e being the mode last assembled:
    invertibility runs ARPACK on mode 0 and the certified solve on every e
    > 0, warm from the previous t's sigma^2; compact runs ARPACK, then the
    constrained solve on mode 0, and per e > 0 the exclusion test, then a
    cold certified solve of the modes it does not rule out; Poincare runs
    the certified solve on mode 0 and, per e > 0, the exclusion test, then
    the certified solve of the modes it does not rule out, each warm from
    the previous t's 1/ratio^2 where that t solved the mode."""
    calls, assembled, reports = [], [], []
    assemble = sl.assemble_mode_operator
    monkeypatch.setattr(sl, "assemble_mode_operator",
                        lambda grid, e, beta=None: assembled.append(float(e))
                        or assemble(grid, e, beta=beta))
    for name in ("smallest_pencil_eigs", "_constrained_smallest", "_spectrum_above",
                 "_certified_smallest"):
        def spy(*a, _fn=getattr(sl, name), _name=name, **kw):
            calls.append((_name, assembled[-1], kw.get("near")))
            return _fn(*a, **kw)
        monkeypatch.setattr(sl, name, spy)
    for name in ("invertibility_constant", "restricted_invertibility_compact",
                 "poincare_constant"):
        def keep(*a, _fn=getattr(sl, name), **kw):
            reports.append(_fn(*a, **kw))
            return reports[-1]
        monkeypatch.setattr(sl, name, keep)
    ts, modes = (1e-1, 1e-2, 1e-3), [0.0, 2.0, 6.0]
    for experiment, model in (("invertibility_uniformity", "dumbbell"),
                              ("compact_invertibility", "spindle"),
                              ("poincare_uniformity", "dumbbell")):
        calls.clear()
        reports.clear()
        run(small(experiment, model=model, t_list=ts))
        want, previous = [], {}
        for rep in reports:
            solved, bounded = dict(rep.per_mode), dict(getattr(rep, "bounded", ()))
            assert sorted([*solved, *bounded]) == modes, experiment
            for e in modes:
                if experiment == "invertibility_uniformity":
                    s = previous.get(e)
                    want.append(("smallest_pencil_eigs", e, None) if e == 0.0 else
                                ("_certified_smallest", e, None if s is None else s * s))
                    continue
                if experiment == "compact_invertibility" and e == 0.0:
                    want += [("smallest_pencil_eigs", e, None), ("_constrained_smallest", e, None)]
                    continue
                if e > 0.0:
                    want.append(("_spectrum_above", e, None))
                if e in solved:
                    c = previous.get(e) if experiment == "poincare_uniformity" else None
                    want.append(("_certified_smallest", e, None if c is None else c**-2))
            previous = solved
        assert calls == want, experiment
        if experiment != "invertibility_uniformity":
            assert any(rep.bounded for rep in reports), experiment
        if experiment != "compact_invertibility":
            assert any(near is not None for _name, _e, near in calls), experiment


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


def test_region_atlas_refuses_a_link_of_the_wrong_dimension():
    with pytest.raises(ExperimentError) as info:
        run(ExperimentConfig(experiment="region_atlas", link="sphere:3", m=3))
    cause = info.value.__cause__
    assert isinstance(cause, ValueError)
    assert str(cause) == ("link 'sphere:3' has dimension 3, but the link of a cone of "
                          "dimension m = 3 has dimension m-1 = 2")


def spy(monkeypatch, owner, name):
    """A list that records the arguments of each call to owner.name."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(a) or fn(*a, **kw))
    return calls


def test_each_t_is_glued_once(monkeypatch, tmp_path):
    """The acceptance suite's sweeps and neck rows glue each (experiment, t)
    once, through run_config_file (which prepares every entry before it
    runs any) as through run: 24 gluings."""
    glued = spy(monkeypatch, cm, "parametric_connect_sum")
    configs = [ExperimentConfig.from_dict(d)
               for d in json.loads(ACCEPTANCE.read_text())["experiments"]]
    pairs = sum(len(c.t_list) for c in configs
                if experiments._TABLE[c.experiment][1] in experiments._FAMILIES)
    assert pairs == 24
    run_config_file(ACCEPTANCE, out_dir=tmp_path)
    assert len(glued) == pairs
    glued.clear()
    for config in configs:
        run(config)
    assert len(glued) == pairs


def test_prepare_reads_each_link_as_far_as_the_run_will(monkeypatch):
    """Each acceptance experiment that reads a link from its config asks
    its spectrum in prepare for at least the range that work asks, so a
    custom spectrum too short for the run is refused before anything
    runs (norm_identities' cones are over the unit S^2 alone)."""
    asked = spy(monkeypatch, link_spectra.Link, "eigenvalues_below")
    for entry in json.loads(ACCEPTANCE.read_text())["experiments"]:
        if entry["experiment"] == "norm_identities":
            continue
        asked.clear()
        result = experiments._prepare(ExperimentConfig.from_dict(entry))
        prepared = max((lam for _link, lam in asked), default=0.0)
        asked.clear()
        result()
        assert max((lam for _link, lam in asked), default=0.0) <= prepared, entry


def test_a_custom_link_file_is_read_once_per_component(monkeypatch, tmp_path):
    """A glued family's file builds each component once, so its custom
    spectrum file is read once per component, by load_family and by a
    suite run, which prepares the family once."""
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("0,1\n2,3\n6,5\n")
    family = json.loads(FAMILY_JSON.read_text())
    for component in family["components"]:
        component["link"] = f"custom:{spectrum}"
    model = tmp_path / "family.json"
    model.write_text(json.dumps(family))
    reads = spy(monkeypatch, link_spectra, "_parse_spectrum_csv")
    fam = cm.load_family(model)
    assert len(reads) == 2
    assert fam.L.components[0].link == fam.L_hat.components[0].link
    reads.clear()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "neck_convergence", "model": str(model)}))
    code, (res,) = run_config_file(path, out_dir=tmp_path / "out")
    assert len(reads) == 2
    assert code == 0 and res.rows == run(ExperimentConfig(experiment="neck_convergence")).rows


def test_fields_an_experiment_does_not_read_are_not_checked(tmp_path):
    # eta_bounds reads neither the model nor the link or kind of an atlas
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "eta_bounds", "model": "nosuch",
                                "link": "sphere:3", "kind": "ACAC", "tau": 0.95, "a": 0.9,
                                "b": 0.05, "t_list": [1e-8, 1e-10, 1e-12, 1e-14]}))
    code, (res,) = run_config_file(path, out_dir=tmp_path / "out")
    assert code == 0 and res.passed


# the hyperboloid_capped preset as a model file: one component
CAPPED_MODEL = {"m": 3, "components": [{
    "link": "sphere:2", "profile": "hyperboloid:1.0", "core_boundary": "cap",
    "ends": [{"kind": "AC", "nu": -2.0, "beta": -0.5, "boundary": 1.0}]}]}


@pytest.mark.parametrize("experiment, model, ok", [
    ("neck_convergence", FAMILY_JSON, True),
    ("invertibility_uniformity", FAMILY_JSON.with_suffix(".csv"), False),
    ("weight_crossing", CAPPED_MODEL, True),
    ("weight_crossing", FAMILY_JSON.with_name("nosuch.json"), False),
], ids=["family-file", "family-not-json", "model-file", "model-missing"])
def test_model_files_are_checked_as_their_runner_reads_them(experiment, model, ok, tmp_path):
    # a glued family is an existing .json file, a base model an existing
    # file that loads as one component (a family's file does not: test_cli)
    if isinstance(model, dict):
        (tmp_path / "model.json").write_text(json.dumps(model))
        model = tmp_path / "model.json"
    config = ExperimentConfig(experiment=experiment, model=str(model))
    if ok:
        experiments._prepare(config)
    else:
        with pytest.raises(ValueError, match=f"unknown (glued benchmark|model) '{model}'"):
            experiments._prepare(config)


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


@pytest.mark.parametrize("raw, message", [
    ({}, r"^config has no 'experiment'; expected one of \('embedding_uniformity',"),
    ([1, 2], r'must hold a config object or \{"experiments": \[config objects\]\}, '
             r"got \[1, 2\]$"),
    ("x", r"must hold a config object .*, got 'x'$"),
    ({"experiments": {}}, r"must hold a config object .*, got \{'experiments': \{\}\}$"),
    ({"experiments": [3]}, r"must hold a config object .*, got \{'experiments': \[3\]\}$"),
    ({"experiment": "eta_bounds", "t_list": 0.1},
     r"^t_list must be tuple\[float, \.\.\.\], got 0.1$"),
    ({"experiment": "eta_bounds", "t_list": ["0.1"]}, r"^t_list must be"),
    ({"experiment": "eta_bounds", "tolerances": {"uniformity_ratio": "x"}},
     r"^tolerances must be dict\[str, float\], got \{'uniformity_ratio': 'x'\}$"),
    ({"experiment": "eta_bounds", "tolerances": {"uniformity_ratio": True}}, r"^tolerances must"),
    ({"experiment": "norm_identities", "seed": 1.5}, r"^seed must be int, got 1.5$"),
    ({"experiment": "eta_bounds", "seed": True}, r"^seed must be int, got True$"),
    ({"experiment": "embedding_uniformity", "family_size": 2.5},
     r"^family_size must be int, got 2.5$"),
    ({"experiment": "invertibility_uniformity", "n_per_region": 150.5},
     r"^n_per_region must be int, got 150.5$"),
    ({"experiment": "region_atlas", "m": 3.0}, r"^m must be int, got 3.0$"),
    ({"experiment": "eta_bounds", "p": "2"}, r"^p must be float, got '2'$"),
    ({"experiment": "eta_bounds", "tau": False}, r"^tau must be float, got False$"),
    ({"experiment": "weight_crossing", "gamma_cases": [[1.0, 2.0, 3.0]]},
     r"^gamma_cases must be tuple\[tuple\[float, float\], \.\.\.\], got \[\[1.0, 2.0, 3.0\]\]$"),
    ({"experiment": "region_atlas", "link": 2}, r"^link must be str, got 2$"),
], ids=["no-experiment", "top-level-list", "top-level-string", "experiments-object",
        "experiments-of-numbers", "t_list-number", "t_list-strings", "tolerance-string",
        "tolerance-bool", "seed-float", "seed-bool", "family_size-float",
        "n_per_region-float", "m-float", "p-string", "tau-bool", "gamma_cases-triple",
        "link-number"])
def test_malformed_configs_are_refused_before_running(tmp_path, monkeypatch, raw, message):
    ran = []
    monkeypatch.setattr(experiments, "run", ran.append)
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=message):
        run_config_file(path, out_dir=out)
    assert ran == [] and not out.exists()


def test_json_numbers_fill_the_typed_fields():
    # an int stands for a float and a list for a tuple, and both are echoed as given
    cfg = ExperimentConfig.from_dict({
        "experiment": "weight_crossing", "p": 2, "e_max": 6, "t_list": [0.1, 0.01],
        "gamma_cases": [[1, 2]], "tolerances": {"crossing_slack": 1}})
    assert cfg.t_list == (0.1, 0.01) and cfg.gamma_cases == ((1.0, 2.0),)
    assert cfg.to_dict()["p"] == 2 and cfg.tolerances["crossing_slack"] == 1
