"""Command-level checks: exit codes, stdout and stderr of cold `python -m
entrogup` calls, one table row each, plus the README's example lines.

A row's argv is split on whitespace and runs in a directory shared by the
module, where `fit` has written `c.txt` and `c6.txt`.  Each stream check is
None (not checked), exact text ("" is empty), a `Line`, or `JSON`.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from entrogup import cli
from test_startup import python

README = Path(__file__).resolve().parents[1] / "README.md"


class Line(str):
    """The one line of the stream that starts with this line's key (its text
    up to the first ',' or ' = '), and it is exactly this line."""


JSON = object()  # the stream parses as JSON

ALPHA0 = Line("alpha0_pipeline = -0.560564756")
SPECTRUM_200 = ",".join(map(str, range(200)))
SPECTRUM_65 = ",".join(map(str, range(65)))
FALLBACK_POINT = ",".join(["0", "3.2759879547433557"] * 40)
ENTROPY_CSV = """\
key,value,unit
omega,4,1
n_outcomes,4,1
shannon,1.38629436,1
s_plus,1.17157288,1
s_minus,1.65685425,1
q,2,1
tsallis,0.75,1
renyi,1.38629436,1
s_plus_partial1,1.38629436,1
s_plus_partial2,1.14606785,1
s_plus_partial3,1.17381991,1
s_minus_partial1,1.38629436,1
s_minus_partial2,1.62652087,1
s_minus_partial3,1.65427292,1
"""


def row(id, argv, code=0, out=None, err=""):
    return pytest.param(argv.split(), code, out, err, id=id)


ROWS = [
    row("help", "--help"),
    # every command on its defaults: a default lost from cli._COMMANDS fails
    row("boltzmann", "boltzmann"),
    row("entropy", "entropy"),
    row("maxent", "maxent"),
    row("derive", "derive", out=ALPHA0),
    row("gup", "gup --alpha0 0.36"),
    # the corners of the benchmark's cross-check points at their tightest tol
    row("boltzmann-corners", "boltzmann --p 0.02,1 --grid 0:20:5 --tol 1e-10"),
    # the solver's underflow edge, x ~ 745
    row("maxent-grid-745", "maxent --grid 0:745:2001"),
    # derive reads back both files that fit wrote through maxent's re-export
    row("derive-coeffs", "derive --coeffs c.txt"),
    row("derive-coeffs-order-6", "derive --coeffs c6.txt --order 256"),
    # the largest pipeline order on the built-in kind and two q-exponentials,
    # whose tsallis_coeffs run the exp and ln recurrences at order 128
    row("derive-order-256", "derive --order 256", out=ALPHA0),
    row("derive-q-0.05", "derive --q 0.05 --order 256"),
    row("derive-q-1.5", "derive --q 1.5 --order 256"),
    # order 4, where k**3 is the last normalized coefficient, agrees with 256
    row("derive-order-4", "derive --order 4", out=ALPHA0),
    row("gup-json", "gup --alpha0 0.36 --format json", out=JSON),
    # the most states ProbVector.uniform builds, on numpy arrays
    row("entropy-omega-2**20", "entropy --omega 1048576 --format csv"),
    row("entropy-csv", "entropy --format csv", out=ENTROPY_CSV),
    # a level whose probability underflows is a NumericalError, exit 3
    row("maxent-underflow", "maxent --energies 0,800", 3, "",
        "error: the probability of level 1 (x = beta*E = 800) underflows to 0 "
        "in double precision\n"),
    # --kind is plus|minus everywhere (derive --q alone picks the q-exponential)
    row("maxent-kind-tsallis", "maxent --kind tsallis", 2, "", None),
    row("derive-kind-tsallis", "derive --kind tsallis", 2, "", None),
    # the square root's running sums overflow at order 256: refused, no traceback
    row("derive-overflow", "derive --coeffs overflow.txt --order 256", 2, "",
        "error: series coefficients must be finite\n"),
    # 2 a2 would overflow in the closed form; 0.75 (a1**2/2 - a2)/(1 - a1) does not
    row("derive-a2-1e308", "derive --coeffs big-a2.txt --order 4",
        out=Line("alpha0_closed = -7.5e+307")),
    # dx_bound = 1/(2 dp) passes the largest float: exit 3, no report
    row("gup-bound-overflow", "gup --alpha0 0.36 --grid 1e-309", 3, "",
        "error: the bound (1 + alpha dp**2)/(2 dp) overflows at dp = 1e-309\n"),
    # a coefficient file that repeats a key is malformed input
    row("derive-repeated-key", "derive --coeffs repeated.txt", 2, "",
        "error: repeated.txt: line 5 repeats the key 'a1'\n"),
    # the solver's residual bound is fixed: maxent has no --tol
    row("maxent-tol", "maxent --tol 1e-12", 2, "", None),
    # the start table is read at x clamped to its end: no inf-to-index cast
    row("maxent-grid-largest-double", "maxent --grid 0:1.7976931348623157e308:3"),
    # every node and midpoint of the start table, both kinds, in a fresh process
    row("maxent-grid-0:40:20481", "maxent --grid 0:40:20481"),
    # the minus start table's slope is 0/0 at x = 0, inside np.errstate
    row("maxent-minus-grid-0:1e-3:65", "maxent --kind minus --grid 0:1e-3:65"),
    # an ill-conditioned fit on the float route (Householder QR)
    row("fit-minus-ill-conditioned", "fit --kind minus --grid 1e-8:1e-3:30 --coeffs m.txt",
        err="wrote coefficients to m.txt\n"),
    # 1 - sum(p**q) would cancel: tsallis is the 60-digit mpmath value
    row("entropy-near-certain", "entropy --probs 0.999999999999993,7e-15 --q 1.5 --format csv",
        out=Line("tsallis,2.09944039e-14,1")),
    # the array route sums its weights and checks the sum with entropy._fsum
    row("maxent-energies-200", f"maxent --energies {SPECTRUM_200} --beta 0.1 --format json",
        out=JSON),
    # the benchmark point whose one-step root may fall back to maxent._root
    row("maxent-fallback-point", f"maxent --kind plus --energies {FALLBACK_POINT}"),
    # 65 levels, the fewest on the array route: tuples built on first read
    row("maxent-energies-65-text", f"maxent --energies {SPECTRUM_65} --beta 0.1"),
    row("maxent-energies-65-csv", f"maxent --energies {SPECTRUM_65} --beta 0.1 --format csv"),
    row("maxent-energies-65-json", f"maxent --energies {SPECTRUM_65} --beta 0.1 --format json",
        out=JSON),
    # entropy on 65 states counts them from the array
    row("entropy-omega-65", "entropy --omega 65 --format csv", out=Line("n_outcomes,65,1")),
    # past x ~ 745 the design's running products underflow, outside np.errstate
    row("fit-grid-0:1000:301", "fit --grid 0:1000:301 --coeffs wide.txt",
        err="wrote coefficients to wide.txt\n"),
    # x**4 overflows at the largest x: too wide, exit 2
    row("fit-grid-0:1e100:301", "fit --grid 0:1e100:301", 2, "", None),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("commands")
    for argv in (["fit", "--coeffs", "c.txt"],
                 ["fit", "--grid", "0:3:1001", "--order", "6", "--coeffs", "c6.txt"]):
        proc = python(["-m", "entrogup", *argv], path)
        assert proc.stderr == f"wrote coefficients to {argv[-1]}\n"
    (path / "overflow.txt").write_text(
        "kind = plus\ndegree = 3\na0 = 1.0\na1 = 0.0\na2 = 0.0\na3 = -1e8\n", encoding="utf-8")
    (path / "big-a2.txt").write_text(
        "kind = custom\ndegree = 2\na0 = 1.0\na1 = 0.0\na2 = 1e308\n", encoding="utf-8")
    (path / "repeated.txt").write_text(
        "kind = plus\ndegree = 1\na0 = 1.0\na1 = 0.5\na1 = 0.25\n", encoding="utf-8")
    return path


def check(stream, expected):
    if expected is JSON:
        json.loads(stream)
    elif isinstance(expected, Line):
        key = re.match(r".*?(,| = )", expected).group()
        assert [line for line in stream.splitlines() if line.startswith(key)] == [expected]
    elif expected is not None:
        assert stream == expected


@pytest.mark.parametrize("argv, code, out, err", ROWS)
def test_command(argv, code, out, err, workdir):
    proc = python(["-m", "entrogup", *argv], workdir, code)
    check(proc.stdout, out)
    check(proc.stderr, err)


def test_readme_examples(tmp_path):
    # in order and in one directory: the fit example writes the plus.txt that
    # a derive example reads
    lines = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("entrogup ")]
    assert lines
    for line in lines:
        python(["-m", "entrogup", *line.split()[1:]], tmp_path)


@pytest.mark.parametrize(
    "argv, code, out",
    [(["derive"], 0, ALPHA0), (["maxent", "--kind", "tsallis"], 2, ""),
     (["maxent", "--energies", "0,800"], 3, "")],
    ids=["exit-0", "exit-2", "exit-3"],
)
def test_main_entry_exits_with_main_code(argv, code, out, monkeypatch, capsys):
    # the console script's entry point; the installed script itself runs only in CI
    monkeypatch.setattr(sys, "argv", ["entrogup", *argv])
    with pytest.raises(SystemExit) as info:
        cli.main_entry()
    assert info.value.code == code
    check(capsys.readouterr().out, out)
