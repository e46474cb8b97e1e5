"""The runtime import graph: no spinlab process loads jsonschema (configs are
checked against runner.FIELDS in-house) or scipy.integrate (one
Gauss-Legendre rule in parisi.spherical)."""

import json
import os
import subprocess
import sys

import spinlab

HEAVY = ("jsonschema", "scipy.integrate")

# prints, as the interpreter exits, the modules of HEAVY that `body` loaded
_PROBE = """
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith({heavy!r})))))
{body}
"""


def _heavy_modules(body):
    src = os.path.dirname(os.path.dirname(spinlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(heavy=HEAVY, body=body)], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_spinlab_loads_neither_module():
    code, heavy = _heavy_modules("import spinlab, spinlab.runner, spinlab.acceptance")
    assert code == 0 and heavy == []


def test_thresholds_cli_loads_neither_module(tmp_path):
    argv = ["spinlab", "thresholds", "--mixture", "p4", "--out", str(tmp_path / "t")]
    body = f"import runpy; sys.argv = {argv!r}; runpy.run_module('spinlab', run_name='__main__')"
    code, heavy = _heavy_modules(body)
    assert code == 0 and heavy == []
    assert (tmp_path / "t" / "run.json").exists()
