"""scipy is loaded by the first eigen solve, not by the import.

``spectral_laplace`` reaches scipy through handles that import it at
first use.  The norm-only experiments (here embedding and the region
atlas) and the ``weights`` command never load it.  ``import
conifold_lab`` and the CLI import every module of the package, so a
module-level scipy import anywhere fails here.  Test collection has
imported scipy in this process, so the checks run in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {}
import conifold_lab
loaded["import"] = scipy_modules()

from conifold_lab.experiments import ExperimentConfig, run
for experiment in ("embedding_uniformity", "region_atlas"):
    run(ExperimentConfig.from_dict({"experiment": experiment, "t_list": [0.1, 0.01],
                                    "n_per_region": 60, "family_size": 4}))
loaded["norm_runs"] = scipy_modules()

from click.testing import CliRunner
from conifold_lab.cli import main
result = CliRunner().invoke(main, ["weights"])
assert result.exit_code == 0, result.output
loaded["weights"] = scipy_modules()

from conifold_lab import conifold_model as cm
from conifold_lab import spectral_laplace as sl
sl.invertibility_constant(cm.dumbbell_family().at(0.1), beta=-0.5, e_max=2.0,
                          n_per_region=60)
loaded["solve"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_scipy_loads_at_the_first_eigen_solve():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert loaded["import"] == []
    assert loaded["norm_runs"] == []
    assert loaded["weights"] == []
    assert "scipy.linalg.lapack" in loaded["solve"]
    assert "scipy.sparse.linalg" in loaded["solve"]

