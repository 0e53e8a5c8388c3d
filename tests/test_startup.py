"""Start-up cost: each command loads only the submodules it runs, and none
loads scipy, the quadrature included."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrogup
from entrogup import superstats
from entrogup.cli import main
from entrogup.entropy import _FLOAT_ROUTE_MAX
from entrogup.superstats import GammaBetaParams, boltzmann_quadrature
from test_package import EXPORTS

SRC = str(Path(entrogup.__file__).resolve().parents[1])

# Runs argv (if any) through the CLI with stdout captured, then prints the exit
# code and the scipy modules loaded so far as one JSON line.
PROBE = """
import contextlib, io, json, sys
import entrogup, entrogup.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = entrogup.cli.main(argv)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": scipy}))
"""


# Imports the package, touches one export, then star-imports it; prints the
# entrogup and numpy modules loaded after the bare import, and the namespaces.
LAZY_PROBE = """
import json, sys
import entrogup
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("entrogup", "numpy"))
entrogup.shannon
bound = sorted(vars(entrogup))
star = {}
exec("from entrogup import *", star)
star.pop("__builtins__")
print(json.dumps({"loaded": loaded, "bound": bound, "star": sorted(star),
                  "all": entrogup.__all__}))
"""


def python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def probe(argv, cwd):
    proc = python(["-c", PROBE, json.dumps(list(argv))], cwd)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert probe([], tmp_path) == {"code": None, "scipy": []}


# boltzmann included: the quadrature is numpy-only.  The name is kept so the
# case ids stay stable.
@pytest.mark.parametrize(
    "argv",
    [
        ("entropy",),
        ("maxent",),
        ("fit", "--coeffs", "c.txt"),
        ("derive",),
        ("gup", "--alpha0", "0.36"),
        ("boltzmann",),
    ],
)
def test_commands_without_quadrature_load_no_scipy(argv, tmp_path):
    assert probe(argv, tmp_path) == {"code": 0, "scipy": []}


# Runs every command in one process and reports whether numpy.ma got loaded.
MA_PROBE = """
import contextlib, io, json, sys
import entrogup.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(entrogup.cli.main(argv))
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules}))
"""


def test_no_command_loads_numpy_ma(tmp_path):
    # numpy.ma (loaded by np.unique in numpy 2.x) is ~35 ms of a cold call
    argv = [
        ["boltzmann"],
        ["entropy"],
        ["maxent"],
        ["fit", "--coeffs", "c.txt"],
        ["derive"],
        ["gup", "--alpha0", "0.36"],
    ]
    out = json.loads(python(["-c", MA_PROBE, json.dumps(argv)], tmp_path).stdout)
    assert out == {"codes": [0] * len(argv), "ma": False}


COMMAND_MODULES = {"entrogup", "entrogup.cli", "entrogup.errors"}
ENTROPY_MODULES = COMMAND_MODULES | {"entrogup.entropy"}
MAXENT_MODULES = ENTROPY_MODULES | {"entrogup.ansatz", "entrogup.maxent"}
# no maxent or entropy: derive and gup need only the numpy-free ansatz module
GUP_MODULES = COMMAND_MODULES | {"entrogup.ansatz", "entrogup.series", "entrogup.gup"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("boltzmann",), COMMAND_MODULES | {"entrogup.superstats"}),
        (("entropy",), ENTROPY_MODULES),
        (("maxent",), MAXENT_MODULES),
        (("fit", "--coeffs", "c.txt"), MAXENT_MODULES),
        (("derive",), GUP_MODULES),
        (("gup", "--alpha0", "0.36"), GUP_MODULES),
    ],
    ids=["boltzmann", "entropy", "maxent", "fit", "derive", "gup"],
)
def test_command_loads_only_its_modules(argv, modules, tmp_path):
    loaded = cold_call_modules(argv, tmp_path)
    assert {name for name in loaded if name.split(".")[0] == "entrogup"} == modules


def cold_call_modules(argv, cwd):
    """Every module that a cold CLI call imports, as -X importtime lists them."""
    proc = python(["-X", "importtime", "-m", "entrogup", *argv], cwd)
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("derive",),
        ("derive", "--coeffs", "c.txt"),
        ("derive", "--q", "1.5"),
        ("gup", "--alpha0", "0.36"),
    ],
    ids=["derive", "derive-coeffs", "derive-q", "gup"],
)
def test_derive_and_gup_load_no_numpy(argv, tmp_path):
    # derive reads the file that fit writes, with the same ansatz module
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["fit", "--coeffs", str(tmp_path / "c.txt")]) == 0
    loaded = cold_call_modules(argv, tmp_path)
    assert "entrogup.gup" in loaded
    assert [name for name in loaded if name.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize(
    "argv, numpy",
    [
        (("entropy",), False),
        (("entropy", "--probs", "0.2,0.3,0.5"), False),
        (("entropy", "--omega", str(_FLOAT_ROUTE_MAX)), False),
        (("entropy", "--omega", str(_FLOAT_ROUTE_MAX + 1)), True),
    ],
    ids=["entropy", "entropy-probs", "entropy-omega-N", "entropy-omega-N+1"],
)
def test_entropy_loads_numpy_only_above_the_float_route(argv, numpy, tmp_path):
    # up to _FLOAT_ROUTE_MAX states the entropies are Python floats and math.fsum
    loaded = cold_call_modules(argv, tmp_path)
    assert "entrogup.entropy" in loaded
    assert any(name.split(".")[0] == "numpy" for name in loaded) is numpy


@pytest.mark.parametrize(
    "argv, numpy",
    [
        (("maxent",), False),
        (("maxent", "--energies", "0,1,2"), False),
        (("maxent", "--grid", f"0:3:{_FLOAT_ROUTE_MAX}"), False),
        (("maxent", "--grid", f"0:3:{_FLOAT_ROUTE_MAX + 1}"), True),
        (("fit", "--grid", f"0:1:{_FLOAT_ROUTE_MAX}", "--coeffs", "c.txt"), False),
        (("fit", "--coeffs", "c.txt"), True),  # the default 301-point window
    ],
    ids=["maxent", "maxent-energies", "maxent-grid-N", "maxent-grid-N+1", "fit-grid-N", "fit"],
)
def test_maxent_and_fit_load_numpy_only_above_the_float_route(argv, numpy, tmp_path):
    # up to _FLOAT_ROUTE_MAX points the roots and the fit are Python floats
    loaded = cold_call_modules(argv, tmp_path)
    assert "entrogup.maxent" in loaded
    assert any(name.split(".")[0] == "numpy" for name in loaded) is numpy


def test_scalar_solver_loads_no_numpy(tmp_path):
    code = ("import sys; from entrogup.maxent import solve_p_plus; solve_p_plus(1.0); "
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    assert python(["-c", code], tmp_path).stdout == "[]\n"


def test_package_namespace_loads_on_first_use(tmp_path):
    out = json.loads(python(["-c", LAZY_PROBE], tmp_path).stdout)
    # the bare import loads NumericalError and nothing else of the package
    assert out["loaded"] == ["entrogup", "entrogup.errors"]
    # one attribute access binds every export (what span tracers patch)
    assert EXPORTS <= set(out["bound"])
    assert set(out["star"]) == EXPORTS
    assert len(out["all"]) == len(EXPORTS) and set(out["all"]) == EXPORTS


def test_series_loads_no_numpy(tmp_path):
    # the series core is pure Python: one math.fsum per coefficient
    code = ("import sys, entrogup.series; "
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    assert python(["-c", code], tmp_path).stdout == "[]\n"


def test_submodules_resolve_as_attributes(tmp_path):
    out = python(["-c", "import entrogup; print(entrogup.maxent.__name__)"], tmp_path)
    assert out.stdout == "entrogup.maxent\n"


def test_quadrature_goes_through_module_quad(monkeypatch):
    # tracing tools patch superstats.quad by name to count integrator calls
    calls = []
    forward = superstats.quad

    def counting(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(superstats, "quad", counting)
    boltzmann_quadrature(GammaBetaParams(p=0.2, beta0=1.0), 1.0)
    assert len(calls) > 0
