"""CLI surface: subcommands, exit codes, seed override."""

import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from conifold_lab.cli import main
from conifold_lab.experiments import ExperimentConfig, emit, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_weights_subcommand():
    runner = CliRunner()
    result = runner.invoke(main, ["weights", "--link", "sphere:2", "--m", "3",
                                  "--range", "-4:3"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert [(r["gamma"], r["mult"]) for r in rows] == [
        (-3.0, 5), (-2.0, 3), (-1.0, 1), (0.0, 1), (1.0, 3), (2.0, 5)]
    assert all(set(r) == {"gamma", "mult", "eigenvalue"} for r in rows)


def test_regions_subcommand(tmp_path):
    runner = CliRunner()
    out = tmp_path / "atlas.csv"
    result = runner.invoke(main, ["regions", "--kind", "AC", "--m", "3",
                                  "--grid", "0.5", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta1,beta2,exceptional,injective,surjective,index,kernel_dim"
    assert len(lines) > 10


def test_regions_out_creates_missing_directories(tmp_path):
    out = tmp_path / "missing" / "dir" / "atlas.csv"
    result = CliRunner().invoke(main, ["regions", "--kind", "AC", "--grid", "0.5",
                                       "--out", str(out)])
    assert result.exit_code == 0
    plain = CliRunner().invoke(main, ["regions", "--kind", "AC", "--grid", "0.5"])
    assert out.read_text(encoding="utf-8") == plain.output


@pytest.mark.parametrize("args, message", [
    (["--grid", "0"], "weight grid step must be positive, got 0"),
    (["--grid", "-0.5"], "weight grid step must be positive, got -0.5"),
    (["--range", "2:1"], "weight interval lo:hi needs lo < hi, got 2:1"),
    (["--range", "1"], "Invalid value for '--range': expected lo:hi, got '1'"),
    (["--link", "sphere:3", "--m", "3", "--grid", "1"],
     "link 'sphere:3' has dimension 3, but the link of a cone of dimension m = 3 "
     "has dimension m-1 = 2"),
], ids=["grid-zero", "grid-negative", "range-reversed", "range-one-number", "link-dimension"])
def test_regions_refuses_bad_grid_and_range(tmp_path, args, message):
    out = tmp_path / "atlas.csv"
    result = CliRunner().invoke(main, ["regions", *args, "--out", str(out)])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


def test_weights_refuses_a_malformed_range():
    result = CliRunner().invoke(main, ["weights", "--range", "-4"])
    assert result.exit_code == 2
    assert "expected lo:hi, got '-4'" in result.output


@pytest.mark.parametrize("args, message", [
    (["--m", "2"], "link 'sphere:2' has dimension 2, but the link of a cone of dimension "
                   "m = 2 has dimension m-1 = 1"),
    (["--link", "bogus"], "cannot parse link spec 'bogus'"),
    (["--link", "sphere:1"], "sphere link dimension 1 < 2"),
    (["--range", "1:1"], "gamma range must be a bounded interval, got (1.0, 1.0)"),
    (["--link", "sphere:3", "--m", "3"], "link 'sphere:3' has dimension 3, but the link of "
                                         "a cone of dimension m = 3 has dimension m-1 = 2"),
], ids=["m-2", "link-bogus", "link-sphere-1", "range-empty", "link-dimension"])
def test_weights_refuses_bad_links_and_ranges(args, message):
    result = CliRunner().invoke(main, ["weights", *args])
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["weights", "regions"])
def test_a_missing_custom_link_file_is_a_usage_error(tmp_path, command):
    missing = tmp_path / "missing.csv"
    result = CliRunner().invoke(main, [command, "--link", f"custom:{missing}"])
    assert result.exit_code == 2
    assert f"cannot read the custom link spectrum {str(missing)!r}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("bad, message", [
    ({"experiment": "region_atlas", "link": "sphere:3"},
     "link 'sphere:3' has dimension 3, but the link of a cone of dimension m = 3"),
    ({"experiment": "region_atlas", "kind": "ACAC"}, "unknown region kind 'ACAC'"),
    ({"experiment": "region_atlas", "link": "custom:missing.csv"},
     "cannot read the custom link spectrum 'missing.csv'"),
    ({"experiment": "invertibility_uniformity", "model": "nosuch"},
     "unknown glued benchmark 'nosuch'"),
    ({"experiment": "neck_convergence", "model": "hyperboloid_capped"},
     "unknown glued benchmark 'hyperboloid_capped'"),
    ({"experiment": "weight_crossing", "model": "spindle"}, "unknown model 'spindle'"),
    # a glued family's file loads as a base model of two components
    ({"experiment": "weight_crossing", "model": str(CONFIGS / "dumbbell_family.json")},
     "pass a single component"),
    ({"experiment": "poincare_uniformity", "r_max": -1.0}, "r_max must be > 0, got -1.0"),
    # glued families that do not glue at a t of the sweep
    ({"experiment": "embedding_uniformity", "tau": 1.5}, "tau must lie in (0, 1)"),
    ({"experiment": "compact_invertibility", "t_list": [0.5, 0.1]},  # 2 * 0.5^0.5 > 1.3
     "need t*Rhat < t^tau < 2 t^tau < eps"),
    ({"experiment": "neck_convergence", "model": "spindle", "t_list": [0.9, 0.1]},
     "need t*Rhat < t^tau < 2 t^tau < eps"),
    # exponents, cutoffs, weights and sweeps that the runners refuse
    ({"experiment": "gns_uniformity", "p": 3.0}, "p = 3.0 >= m: no L^p* target"),
    ({"experiment": "embedding_uniformity", "p": 0.5}, "p must be >= 1"),
    ({"experiment": "norm_identities", "p": 1.0}, "Hoelder check needs p > 1"),
    ({"experiment": "eta_bounds", "a": 0.1, "b": 0.2}, "need 0 < b < a < 1"),
    ({"experiment": "compact_invertibility", "beta": 0.5},
     "compact-case weight must be constant in (2-m, 0), got 0.5"),
    ({"experiment": "embedding_uniformity", "t_list": [0.1]},
     "a t-sweep needs at least two t values"),
    ({"experiment": "invertibility_uniformity", "beta": 0.5},
     "AC end weight 0.5 must be < 0 for injectivity"),
    ({"experiment": "poincare_uniformity", "beta": 0.5}, "AC end weight 0.5 admits constants"),
    ({"experiment": "poincare_uniformity", "model": "spindle"},
     "compact model: constants cannot be excluded"),
    ({"experiment": "weight_crossing", "gamma_cases": [[0.0, 0.0], [0.0, 0.5]]},
     "0.0 is not an exceptional rate for eigenvalue 0.5"),
    # (sqrt 5 - 1) / 2 is a rate of e = 1, which is no eigenvalue of the unit S^2
    ({"experiment": "weight_crossing", "gamma_cases": [[0.6180339887498949, 1.0]],
      "n_per_region": 200},
     "1.0 is not an eigenvalue of the link sphere:2:1.0, so 0.6180339887498949 is not an "
     "exceptional weight of its end"),
    ({"experiment": "weight_crossing", "model": "rxs2"},
     "weight-crossing construction expects exactly one AC end"),
    # non-finite numbers, which JSON reads as NaN, Infinity and -Infinity
    ({"experiment": "embedding_uniformity", "r_max": math.inf}, "r_max must be finite, got inf"),
    ({"experiment": "gns_uniformity", "beta": -math.inf}, "beta must be finite, got -inf"),
    ({"experiment": "norm_identities", "beta": math.nan}, "beta must be finite, got nan"),
    ({"experiment": "invertibility_uniformity", "tolerances": {"uniformity_ratio": math.nan}},
     "tolerances must be finite, got nan"),
], ids=["atlas-link-dimension", "atlas-kind", "atlas-missing-link", "sweep-model",
        "neck-model", "crossing-model", "crossing-model-file", "r_max-negative",
        "sweep-tau", "compact-t", "neck-t", "gns-p", "embedding-p", "holder-p",
        "eta-cutoff", "compact-beta", "sweep-one-t", "invertibility-beta",
        "poincare-beta", "poincare-compact", "crossing-gamma", "crossing-e-off-spectrum",
        "crossing-two-ac-ends", "r_max-inf", "beta-minus-inf", "beta-nan", "tolerance-nan"])
def test_run_refuses_unusable_fields_before_writing(tmp_path, bad, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [{"experiment": "eta_bounds"}, bad]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("experiment", [
    "embedding_uniformity", "gns_uniformity", "invertibility_uniformity", "poincare_uniformity",
    "weight_crossing", "norm_identities"])
def test_run_refuses_an_r_max_inside_an_ac_end_before_writing(tmp_path, experiment):
    """Every experiment that meshes with r_max meets an AC end of radius 1
    or more; r_max 0.5 cuts it and is refused before the atlas ahead of it
    writes anything."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [{"experiment": "region_atlas"},
                                                {"experiment": experiment, "r_max": 0.5}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "r_max 0.5 cuts an AC end at or below its radius" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def custom_dumbbell(tmp_path, rows):
    """The dumbbell family's file over a custom link of these spectrum rows;
    returns (family file, link spec)."""
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("".join(f"{e},{mult}\n" for e, mult in rows))
    family = json.loads((CONFIGS / "dumbbell_family.json").read_text())
    for component in family["components"]:
        component["link"] = f"custom:{spectrum}"
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    return str(path), f"custom:{spectrum}"


@pytest.mark.parametrize("entry, requested", [
    ({"experiment": "invertibility_uniformity", "e_max": 12.0}, "12.0"),  # its mode sweep
    ({"experiment": "embedding_uniformity"}, "12.0"),  # the bump family's mode, 4m
    ({"experiment": "region_atlas"}, "8.75"),  # its weight range's rates
], ids=["invertibility", "embedding", "atlas"])
def test_run_refuses_a_custom_spectrum_shorter_than_it_reads_before_writing(
        tmp_path, entry, requested):
    family, link = custom_dumbbell(tmp_path, [(0, 1), (2, 3), (6, 5)])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [{"experiment": "eta_bounds"},
                                                {**entry, "model": family, "link": link}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert f"custom spectrum covers eigenvalues up to 6.0, requested {requested}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_refuses_a_link_without_a_second_bump_mode_before_writing(tmp_path):
    family, _link = custom_dumbbell(tmp_path, [(0, 1), (20, 3)])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"experiment": "eta_bounds"}, {"experiment": "gns_uniformity", "model": family}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "has no nonzero eigenvalue up to 4m = 12" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_refuses_a_compact_weight_off_the_family_files_marked_weight(tmp_path):
    """A family file fixes the marked-end weight that a preset family
    takes from the config's beta; the compact constant refuses another
    beta before anything is written."""
    ends = [{"kind": kind, "nu": nu, "beta": -0.5, "boundary": boundary, "marked": True}
            for kind, nu, boundary in (("CS", 2.0, 1.3), ("AC", -2.0, 1.0)) for _ in "lr"]
    spindle = {"m": 3, "tau": 0.5, "a": 0.4, "b": 0.2, "components": [
        {"link": "sphere:2", "profile": "sine_spindle", "length": 3.141592653589793,
         "ends": ends[:2]},
        {"link": "sphere:2", "profile": "hyperboloid:1.0", "ends": ends[2:]}]}
    model = tmp_path / "spindle.json"
    model.write_text(json.dumps(spindle))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"experiment": "eta_bounds"},
        {"experiment": "compact_invertibility", "model": str(model), "beta": -0.7}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "requested weight -0.7 differs from the marked-end weight -0.5" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_refuses_a_suite_that_repeats_an_experiment(tmp_path):
    """Two entries of one experiment would write the same files, the second
    over the first: refused before anything runs, naming both entries."""
    sweep = {"experiment": "gns_uniformity", "t_list": [0.1, 0.01], "n_per_region": 120,
             "family_size": 8}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [{**sweep, "model": "dumbbell"},
                                                {**sweep, "model": "spindle"}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert ("entries 0 and 1 of" in result.output
            and "both run gns_uniformity (models 'dumbbell' and 'spindle')" in result.output)
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_refuses_an_uncertified_crossing_before_writing(tmp_path):
    """A crossing rate whose surjectivity below it the classifier does not
    certify is refused before the experiments ahead of it write anything."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"experiment": "region_atlas", "grid_step": 1.0},
        {"experiment": "weight_crossing", "gamma_cases": [[-2.0, 2.0]], "n_per_region": 60}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "surjectivity below gamma=-2.0 is not certified" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["embedding_uniformity", "compact_invertibility"])
def test_run_refuses_a_grid_that_would_lose_nodes_before_writing(tmp_path, experiment):
    """At t = 1e-10 the spindle's grid (n_per_region 400) would merge 50
    nodes its regions do not share; refused before the atlas writes."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"experiment": "region_atlas"},
        {"experiment": experiment, "model": "spindle", "t_list": [0.1, 1e-10]}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "the grid of spindle would lose 50 nodes" in result.output
    assert "ROADMAP item 4" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["invertibility_uniformity", "poincare_uniformity"])
def test_run_refuses_a_host_that_keeps_no_end_excluding_constants_before_writing(
        tmp_path, experiment):
    """The sine spindle glued at each CS end to its own hyperboloid line:
    every residual end is an AC end at -0.5, but the spindle keeps none.
    Invertibility read max/min 985 (trend_slope -0.998) on it, and
    Poincare grew 14 -> 201; both are refused before anything is written,
    naming the host."""
    line = {"link": "sphere:2", "profile": "hyperboloid:1.0", "ends": [
        {"kind": "AC", "nu": -2.0, "beta": -0.5, "boundary": 1.0},
        {"kind": "AC", "nu": -2.0, "beta": -0.5, "boundary": 1.0, "marked": True}]}
    family = {"m": 3, "tau": 0.5, "a": 0.4, "b": 0.2, "label": "two-lines", "components": [
        {"link": "sphere:2", "profile": "sine_spindle", "length": math.pi, "ends": [
            {"kind": "CS", "nu": 2.0, "beta": -0.5, "boundary": 1.3, "marked": True}
            for _ in "lr"]}, line, line]}
    model = tmp_path / "two_lines.json"
    model.write_text(json.dumps(family))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"experiment": "eta_bounds"}, {"experiment": experiment, "model": str(model)}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert ("the host component glued at marked pairs [0, 1] keeps no residual end that "
            "excludes constants at weight -0.5") in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("experiment, content, message", [
    ("weight_crossing", {"components": []}, "does not load: KeyError: 'm'"),
    ("neck_convergence", {"m": 3}, "does not load: KeyError: 'components'"),
    ("weight_crossing", None, "unknown model"),  # a directory
], ids=["crossing-not-a-model", "neck-not-a-family", "crossing-directory"])
def test_run_refuses_model_files_that_do_not_load_before_writing(tmp_path, experiment,
                                                                 content, message):
    model = tmp_path / "model.json"
    if content is None:
        model.mkdir()
    else:
        model.write_text(json.dumps(content))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [{"experiment": "eta_bounds"},
                                                {"experiment": experiment, "model": str(model)}]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert message in result.output and str(model) in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_subcommand_exit_codes(tmp_path):
    runner = CliRunner()
    cfg = {"experiment": "eta_bounds", "tau": 0.95, "a": 0.9, "b": 0.05,
           "t_list": [1e-8, 1e-10, 1e-12, 1e-14]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 0
    assert "[pass] eta_bounds" in result.output
    cfg["tolerances"] = {"eta_exponent_second": 1e-9}
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["run", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "failing experiments: eta_bounds" in result.output


def test_run_refuses_unknown_emit_formats(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "eta_bounds"}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--emit", "csv,jsn",
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert "unknown emit format(s) 'jsn'; expected some of csv, json, plotdata" in result.output
    assert not out.exists()


def test_run_refuses_an_empty_experiment_list(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": []}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "lists no experiments" in result.output
    assert not out.exists()


def test_run_refuses_unknown_config_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "eta_bounds", "tua": 0.9}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "unknown config keys ['tua']; expected names from ['experiment'," in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_run_refuses_a_boolean_seed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "eta_bounds", "seed": True}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert "seed must be int, got True" in result.output
    assert not out.exists()


def test_run_refuses_a_negative_seed(tmp_path):
    suite = CONFIGS / "quick_suite.json"
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", str(suite), "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 2
    assert "seed must be >= 0, got -1" in result.output
    assert not out.exists()


def test_run_seed_override(tmp_path):
    runner = CliRunner()
    path = tmp_path / "cfg.json"
    for tolerances, code in (({}, 0), ({"trend_slope": 1e-9}, 1)):
        path.write_text(json.dumps({
            "experiment": "embedding_uniformity", "t_list": [0.1, 0.01],
            "n_per_region": 120, "family_size": 8, "r_max": 100.0,
            "tolerances": tolerances}))
        plain = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "plain")])
        seeded = runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "seeded"),
                                      "--seed", "7"])
        assert plain.exit_code == seeded.exit_code == code
        payload = json.loads((tmp_path / "seeded" / "embedding_uniformity.json").read_text())
        assert payload["seed"] == 7
        assert payload["config"]["seed"] == 7
        payload = json.loads((tmp_path / "plain" / "embedding_uniformity.json").read_text())
        assert payload["seed"] == 0


def test_regions_subcommand_matches_emitted_atlas(tmp_path):
    result = CliRunner().invoke(main, ["regions", "--kind", "CSAC", "--grid", "0.5"])
    assert result.exit_code == 0
    res = run(ExperimentConfig(experiment="region_atlas", kind="CSAC", grid_step=0.5))
    (path,) = emit(res, formats=("csv",), out_dir=tmp_path)
    assert result.output == path.read_text(encoding="utf-8")
