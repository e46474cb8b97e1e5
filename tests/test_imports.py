"""The runtime import graph.  No spinlab process loads jsonschema (configs are
checked against runner.FIELDS in-house) or scipy.integrate (one
Gauss-Legendre rule in spinlab.mixture).  `import spinlab` and the
Hamiltonian, ensemble, optimizer, OGP, tree and runner modules load no scipy
at all: the names spinlab re-exports from spinlab.parisi import the PDE
engine, and scipy with it, on first access, and the Lanczos solver imports
scipy on its first call.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys

import spinlab

HEAVY = ("jsonschema", "scipy.integrate")

# prints, as the interpreter exits, the loaded modules whose names begin with
# one of `prefixes`
_PROBE = """
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r})))))
{body}
"""


def _loaded_modules(body, prefixes=HEAVY):
    src = os.path.dirname(os.path.dirname(spinlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(prefixes=prefixes, body=body)], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(argv):
    argv = ["spinlab", *argv]
    return f"import runpy; sys.argv = {argv!r}; runpy.run_module('spinlab', run_name='__main__')"


def test_import_spinlab_loads_neither_module():
    code, heavy = _loaded_modules("import spinlab, spinlab.runner, spinlab.acceptance")
    assert code == 0 and heavy == []


def test_thresholds_cli_loads_neither_module(tmp_path):
    code, heavy = _loaded_modules(_cli(["thresholds", "--mixture", "p4", "--out", str(tmp_path / "t")]))
    assert code == 0 and heavy == []
    assert (tmp_path / "t" / "run.json").exists()


def test_import_spinlab_loads_no_scipy():
    body = "import spinlab, spinlab.runner, spinlab.ensembles, spinlab.ogp, spinlab.optimizers, spinlab.ultrametric"
    code, loaded = _loaded_modules(body, ("scipy",))
    assert code == 0 and loaded == []


def test_branching_and_optimize_cli_load_no_scipy(tmp_path):
    runs = {
        "b": ["branching", "--n", "16"],
        "o": ["optimize", "--n", "16", "--seeds", "2"],
    }
    for name, argv in runs.items():
        code, loaded = _loaded_modules(_cli([*argv, "--out", str(tmp_path / name)]), ("scipy",))
        assert code == 0 and loaded == [], argv
        assert (tmp_path / name / "run.json").exists()


def test_a_parisi_name_loads_the_pde_engine_on_first_access():
    body = (
        "import spinlab; assert 'spinlab.parisi' not in sys.modules\n"
        "from spinlab import alg_sp\n"
        "assert spinlab.PiecewiseZeta is spinlab.parisi.PiecewiseZeta and alg_sp is spinlab.parisi.alg_sp"
    )
    code, loaded = _loaded_modules(body, ("spinlab.parisi", "scipy.optimize"))
    assert code == 0
    assert {"spinlab.parisi.pde", "scipy.optimize"} <= set(loaded)


def test_projected_top_eigvec_runs_in_a_fresh_process():
    body = (
        "import numpy as np\n"
        "from spinlab.hamiltonian import DENSE_EIGH_CAP, projected_top_eigvec\n"
        "n = DENSE_EIGH_CAP + 8  # above the dense eigh cap, so the solve is Lanczos\n"
        "g = np.random.default_rng(0).standard_normal((n, n)); m = g + g.T\n"
        "vecs, vals = projected_top_eigvec(m, k=2)\n"
        "want = np.linalg.eigvalsh(m)[::-1][:2]\n"
        "assert vecs.shape == (2, n) and np.allclose(vals, want, rtol=1e-10, atol=0), (vals, want)"
    )
    code, loaded = _loaded_modules(body, ("scipy.sparse.linalg",))
    assert code == 0 and "scipy.sparse.linalg" in loaded
