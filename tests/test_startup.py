"""Start-up cost: scipy stays off the import path until a quadrature runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrogup
from entrogup import superstats
from entrogup.superstats import GammaBetaParams, boltzmann_quadrature

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


def probe(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(list(argv))],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert probe([], tmp_path) == {"code": None, "scipy": []}


@pytest.mark.parametrize(
    "argv",
    [
        ("entropy",),
        ("maxent",),
        ("fit", "--coeffs", "c.txt"),
        ("derive",),
        ("gup", "--alpha0", "0.36"),
    ],
)
def test_commands_without_quadrature_load_no_scipy(argv, tmp_path):
    assert probe(argv, tmp_path) == {"code": 0, "scipy": []}


def test_boltzmann_loads_scipy_on_first_use(tmp_path):
    result = probe(["boltzmann"], tmp_path)
    assert result["code"] == 0
    assert "scipy.integrate" in result["scipy"]


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
