"""Value records are NamedTuples; a class stays a dataclass only for a
feature that a NamedTuple lacks.

A value record holds results or parameters and nothing else: it is
immutable, compares and hashes by value, and its repr is the one a
frozen dataclass gave (the tracer keys its grid reuse on
``repr(geometry.plan)``).  The classes in ``STAY_DATACLASSES`` keep the
dataclass decorator, each for the feature named beside it; the six that
hold arrays or callables compare by identity.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import conifold_lab
from conifold_lab import conifold_model as cm
from conifold_lab import experiments as ex
from conifold_lab import spectral_laplace as sl
from conifold_lab import weight_calculus as wcalc
from conifold_lab import weighted_calc as wc
from conifold_lab.link_spectra import make_link

STAY_DATACLASSES = {
    "experiments.ExperimentConfig": "fields() and replace()",
    "spectral_laplace.KernelScanRow": "replace(), which the benchmark's tests call",
    "link_spectra.Link": "field(): _entries is left out of repr and eq",
    "conifold_model.EndSpec": "__post_init__",
    "conifold_model.Component": "__post_init__",
    "conifold_model.ConifoldModel": "__post_init__",
    "conifold_model.GluedFamily": "__post_init__",
    "weight_calculus.WeightVector": "__post_init__",
    "weighted_calc.WeightSpec": "__post_init__",
    "conifold_model.RadialGeometry": "mutable: the tracer wraps its field callables",
    "weighted_calc.RadialGrid": "arrays, eq=False, repr=False",
    "spectral_laplace.ModeOperator": "arrays, eq=False, repr=False",
    "spectral_laplace.LaplacePencil": "arrays, eq=False, repr=False",
    "weighted_calc.ModeProfile": "arrays, eq=False, repr=False",
    "weighted_calc.ModeFunction": "arrays, eq=False, repr=False",
}

S2 = make_link("sphere", dim=2)

# one instance of each value record, its fields in order
SAMPLES = {
    cm.WarpProfile: dict(name="spline", f=math.sin, fp=math.cos),
    cm.Cap: {},
    cm.BoundaryInfo: dict(kind="ac", x0=0.0, sign=1.0, chart_r=2.0, beta=-0.5, nu=-1.0),
    cm.JunctionInfo: dict(pair=0, center=1.5, direction=-1.0, t=0.01, tau=0.5, eps=0.1,
                          Rhat=1.0, beta=-0.5),
    cm.PlanSegment: dict(kind="log", x0=0.0, sign=-1.0, r_lo=1e-3, r_hi=2.0, x_a=None,
                         x_b=None, weight=0.5),
    cm.CompatCheck: dict(code="link", passed=True, detail="links agree"),
    cm.CompatibilityReport: dict(passed=False, checks=(cm.CompatCheck("m", False, "3 != 4"),),
                                 pairs=((0, 1),)),
    cm.EtaCutoff: dict(t=0.01, a=0.4, b=0.2),
    cm._Piece: dict(source="L", comp_index=0, offset=1.0, direction=0.01,
                    x_src_lo=-math.inf, x_src_hi=2.0),
    cm.GluedModel: dict(family=None, t=(0.1, 0.01), geometry=None),
    ex.SweepResult: dict(experiment="eta_bounds", columns=("t",), rows=({"t": 0.1},),
                         summary={"pass": True}, passed=True, seed=0,
                         config={"experiment": "eta_bounds"}),
    sl.ClosureRule: dict(kind="robin", slope=-1.0),
    sl._FormParts: dict(beta=None, W0=np.array([1.0, 2.0]), W1=np.zeros(2), W2=np.ones(2),
                        w_img=np.array([0.5, 0.25]), D1={0: np.ones(2)}, S1={}, M01={},
                        M2={}, M3={}, Bop={}),
    sl._ThresholdMesh: dict(key=("sphere:2:1.0", 3, 12.0), grid=None, modes=()),
    sl.InvertibilityReport: dict(constant=2.0, sigma_min=0.5, per_mode=((0.0, 0.5),),
                                 beta=-0.5, grid_size=10),
    sl.CompactInvertibilityReport: dict(constant=3.0, sigma_constrained=1 / 3,
                                        sigma_mode0_unconstrained=1e-9,
                                        per_mode=((0.0, 1 / 3),), bounded=((2.0, 0.4),),
                                        beta=-0.5, core=(0.25, 0.75), grid_size=12),
    sl.PoincareReport: dict(constant=1.5, per_mode=((0.0, 1.5),), bounded=(), beta=-0.5,
                            grid_size=8),
    sl.WeightCrossingReport: dict(gamma=1.0, e=2.0, candidate=None, correction_norm=0.1,
                                  tail_slope=None, slope_bound=1.2, residual_sigma=1e-6,
                                  threshold=1e-4),
    wcalc.ExceptionalWeight: dict(gamma=1.0, mult=3, source_eigenvalue=2.0),
    wcalc.EndDescriptor: dict(kind="AC", link=S2),
    wcalc.RegionFacts: dict(injective=True, surjective=None, index=0, kernel_dim=0),
    wcalc.ConjugateExponents: dict(p=2.0, m=3, l=1, p_prime=2.0, p_star=6.0, p_star_l=6.0,
                                   exceptional=False, part_two=False),
    wc.NormReport: dict(value=1.25, tail_estimate=1.5, tail_divergent=False,
                        tail_slopes=(-2.0, -math.inf)),
    wc.CkNormReport: dict(value=0.75, divergent=True, tail_slopes=(0.5,)),
    wc.HolderReport: dict(lhs=0.1, rhs=0.30000000000000004, violated=False),
    wc.BanachAlgebraReport: dict(lhs=2.0, rhs_ratio=math.inf),
    wc.EmbeddingReport: dict(constant=0.15, p_star=6.0, ratios=(0.1, 0.15)),
}

# each repr as the frozen dataclass of the same name printed it
REPRS = {
    "WarpProfile": "WarpProfile(name='spline', f=<built-in function sin>, "
                   "fp=<built-in function cos>)",
    "Cap": "Cap()",
    "BoundaryInfo": "BoundaryInfo(kind='ac', x0=0.0, sign=1.0, chart_r=2.0, beta=-0.5, nu=-1.0)",
    "JunctionInfo": "JunctionInfo(pair=0, center=1.5, direction=-1.0, t=0.01, tau=0.5, "
                    "eps=0.1, Rhat=1.0, beta=-0.5)",
    "PlanSegment": "PlanSegment(kind='log', x0=0.0, sign=-1.0, r_lo=0.001, r_hi=2.0, "
                   "x_a=None, x_b=None, weight=0.5)",
    "CompatCheck": "CompatCheck(code='link', passed=True, detail='links agree')",
    "CompatibilityReport": "CompatibilityReport(passed=False, checks=(CompatCheck(code='m', "
                           "passed=False, detail='3 != 4'),), pairs=((0, 1),))",
    "EtaCutoff": "EtaCutoff(t=0.01, a=0.4, b=0.2)",
    "_Piece": "_Piece(source='L', comp_index=0, offset=1.0, direction=0.01, "
              "x_src_lo=-inf, x_src_hi=2.0)",
    "GluedModel": "GluedModel(family=None, t=(0.1, 0.01), geometry=None)",
    "SweepResult": "SweepResult(experiment='eta_bounds', columns=('t',), rows=({'t': 0.1},), "
                   "summary={'pass': True}, passed=True, seed=0, "
                   "config={'experiment': 'eta_bounds'})",
    "ClosureRule": "ClosureRule(kind='robin', slope=-1.0)",
    "_FormParts": "_FormParts(beta=None, W0=array([1., 2.]), W1=array([0., 0.]), "
                  "W2=array([1., 1.]), w_img=array([0.5 , 0.25]), D1={0: array([1., 1.])}, "
                  "S1={}, M01={}, M2={}, M3={}, Bop={})",
    "_ThresholdMesh": "_ThresholdMesh(key=('sphere:2:1.0', 3, 12.0), grid=None, modes=())",
    "InvertibilityReport": "InvertibilityReport(constant=2.0, sigma_min=0.5, "
                           "per_mode=((0.0, 0.5),), beta=-0.5, grid_size=10)",
    "CompactInvertibilityReport": "CompactInvertibilityReport(constant=3.0, "
                                  "sigma_constrained=0.3333333333333333, "
                                  "sigma_mode0_unconstrained=1e-09, "
                                  "per_mode=((0.0, 0.3333333333333333),), "
                                  "bounded=((2.0, 0.4),), beta=-0.5, core=(0.25, 0.75), "
                                  "grid_size=12)",
    "PoincareReport": "PoincareReport(constant=1.5, per_mode=((0.0, 1.5),), bounded=(), "
                      "beta=-0.5, grid_size=8)",
    "WeightCrossingReport": "WeightCrossingReport(gamma=1.0, e=2.0, candidate=None, "
                            "correction_norm=0.1, tail_slope=None, slope_bound=1.2, "
                            "residual_sigma=1e-06, threshold=0.0001)",
    "ExceptionalWeight": "ExceptionalWeight(gamma=1.0, mult=3, source_eigenvalue=2.0)",
    "EndDescriptor": "EndDescriptor(kind='AC', link=Link(kind='sphere', dim=2, params=(1.0,), "
                     "volume=12.566370614359172, einstein_constant=1.0))",
    "RegionFacts": "RegionFacts(injective=True, surjective=None, index=0, kernel_dim=0)",
    "ConjugateExponents": "ConjugateExponents(p=2.0, m=3, l=1, p_prime=2.0, p_star=6.0, "
                          "p_star_l=6.0, exceptional=False, part_two=False)",
    "NormReport": "NormReport(value=1.25, tail_estimate=1.5, tail_divergent=False, "
                  "tail_slopes=(-2.0, -inf))",
    "CkNormReport": "CkNormReport(value=0.75, divergent=True, tail_slopes=(0.5,))",
    "HolderReport": "HolderReport(lhs=0.1, rhs=0.30000000000000004, violated=False)",
    "BanachAlgebraReport": "BanachAlgebraReport(lhs=2.0, rhs_ratio=inf)",
    "EmbeddingReport": "EmbeddingReport(constant=0.15, p_star=6.0, ratios=(0.1, 0.15))",
}

# the defaults of every record that has any
DEFAULTS = {
    cm.BoundaryInfo: {"chart_r": None, "beta": None, "nu": None},
    cm.PlanSegment: {"x0": 0.0, "sign": 1.0, "r_lo": None, "r_hi": None, "x_a": None,
                     "x_b": None, "weight": 1.0},
    cm.CompatibilityReport: {"pairs": ()},
    sl.ClosureRule: {"slope": 0.0},
    wcalc.RegionFacts: {"injective": None, "surjective": None, "index": None,
                        "kernel_dim": None},
}


def _package_classes():
    """(module.name, class) of every class a conifold_lab module defines."""
    for info in pkgutil.iter_modules(conifold_lab.__path__):
        module = importlib.import_module(f"conifold_lab.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj


def test_only_the_listed_classes_are_dataclasses():
    found = {name for name, cls in _package_classes() if dataclasses.is_dataclass(cls)}
    assert found == set(STAY_DATACLASSES)
    classes = dict(_package_classes())
    for name, feature in STAY_DATACLASSES.items():
        if feature == "__post_init__":
            assert "__post_init__" in vars(classes[name])


def test_every_value_record_is_a_named_tuple():
    records = {name for name, cls in _package_classes()
               if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert records == {f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}" for cls in SAMPLES}
    assert len(records) == 27


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_build_by_keyword_and_by_position(cls):
    kwargs = SAMPLES[cls]
    assert tuple(kwargs) == cls._fields
    by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
    assert all(getattr(by_keyword, f) is v for f, v in kwargs.items())
    assert all(a is b for a, b in zip(by_keyword, by_position))
    assert cls._field_defaults == DEFAULTS.get(cls, {})
    required = [v for f, v in kwargs.items() if f not in cls._field_defaults]
    assert cls(*required)._asdict() == {**dict(zip(cls._fields, required)),
                                        **cls._field_defaults}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_refuse_assignment(cls):
    rec = cls(**SAMPLES[cls])
    for attr in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, 0)
    # a caller catching AttributeError also catches the dataclasses' refusal
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
    with pytest.raises(AttributeError):
        cm.EndSpec("AC", S2, -1.0, -0.5, 2.0).beta = 0.0


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_reprs_are_the_dataclass_ones(cls):
    assert repr(cls(**SAMPLES[cls])) == REPRS[cls.__name__]


def test_records_used_as_keys_compare_and_hash_by_value():
    for cls in (wcalc.EndDescriptor, cm.PlanSegment, wcalc.ExceptionalWeight):
        a, b = cls(**SAMPLES[cls]), cls(**SAMPLES[cls])
        assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        other = a._replace(**{a._fields[0]: "other"})
        assert other != a and len({a, b, other}) == 2
    assert wcalc.EndDescriptor("AC", S2) != wcalc.EndDescriptor("AC", make_link("sphere", dim=3))
    plan = cm.preset_model("exact_cone_cs_ac").geometry(0).plan
    assert repr(plan) == repr(cm.preset_model("exact_cone_cs_ac").geometry(0).plan)
    assert hash(plan) == hash(cm.preset_model("exact_cone_cs_ac").geometry(0).plan)


def test_replace_works_on_the_kept_dataclasses():
    row = sl.KernelScanRow(beta=0.5, dimension=1, per_mode=((0.0, 1, 1e-9),),
                           threshold=1e-6, ambiguous=False)
    assert dataclasses.replace(row, dimension=2) == sl.KernelScanRow(
        0.5, 2, ((0.0, 1, 1e-9),), 1e-6, False)
    cfg = ex.ExperimentConfig(experiment="eta_bounds")
    changed = dataclasses.replace(cfg, t_list=[0.5, 0.25])
    assert changed.t_list == (0.5, 0.25) and changed.tolerances == cfg.tolerances


def _array_holders():
    """Two distinct, equal-valued objects of each eq=False class."""
    def build():
        geo = cm.preset_model("hyperboloid_capped").geometry(0)
        grid = wc.build_grid(geo, n_per_region=20)
        profile = wc.ModeProfile(0.0, np.ones(grid.n))
        return (geo, grid, sl.assemble_mode_operator(grid, 2.0),
                sl.laplacian_pencil(grid, 2.0, sl._form_parts(grid, -0.5)),
                profile, wc.ModeFunction(grid, (profile,)))

    return list(zip(build(), build()))


def test_array_holders_compare_by_identity():
    pairs = _array_holders()
    assert [type(a).__name__ for a, _ in pairs] == [
        "RadialGeometry", "RadialGrid", "ModeOperator", "LaplacePencil", "ModeProfile",
        "ModeFunction"]
    for a, b in pairs:
        assert a == a and a != b and not (a == b)
        assert len({a, a, b}) == 2
        assert repr(a).startswith(f"<{type(a).__module__}.{type(a).__name__} object at ")
