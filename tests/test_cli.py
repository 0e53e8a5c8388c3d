"""Command-line interface: formats, determinism, exit codes, command chaining."""

import contextlib
import io
import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from entrogup import gup, superstats
from entrogup.cli import _COMMANDS, _FLAGS, _parse_floats, _parse_grid, main
from entrogup.maxent import DEFAULT_FIT_GRID

PUBLISHED_PLUS = -0.560565
PUBLISHED_MINUS = 0.361022


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# happy paths


def test_boltzmann_defaults(capsys):
    code, out, err = run(capsys, "boltzmann")
    assert code == 0
    assert "closed" in out and "quadrature" in out
    assert "max_rel_diff" in out


def test_boltzmann_small_spread_meets_tight_tolerance(capsys):
    # the exit code alone allows max(1e-7, 10 tol); at p = 1e-6 the quadrature
    # meets tol itself only if no terms of size (1/p) ln(1/p) cancel
    code, out, _ = run(capsys, "boltzmann", "--p", "1e-6", "--tol", "1e-10",
                       "--grid", "0:1:2", "--format", "json")
    assert code == 0
    assert json.loads(out)["footer"]["max_rel_diff"] <= 1e-10


@pytest.mark.parametrize("p,grid", [("0.5", "2e15"), ("0.5", "1e16"), ("1e-8", "0:1:2")])
def test_boltzmann_at_large_spread_times_energy(capsys, p, grid):
    # beta0 E = 2e15: the closed form is (1 + 1e15)**-2 ~ 1e-30.  At 1e16 the
    # mass sits at t ~ 1/(p c) ~ 4e-16; at p = 1e-8 it is a peak of relative
    # width 1e-4 at t ~ 1/p.
    code, out, _ = run(capsys, "boltzmann", "--p", p, "--grid", grid, "--format", "json")
    assert code == 0
    assert json.loads(out)["footer"]["max_rel_diff"] <= 1e-8


def test_boltzmann_multiple_p_csv(capsys):
    code, out, _ = run(capsys, "boltzmann", "--p", "0.1,0.5", "--grid", "0:2:3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,beta0E,closed,quadrature,series2,abs_diff"
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 6  # header + 2 p-values x 3 energies


def test_entropy_defaults(capsys):
    code, out, _ = run(capsys, "entropy")
    assert code == 0
    assert "s_plus = 1.17157288" in out
    assert "s_plus_partial3 = 1.17381991" in out


def test_entropy_single_state(capsys):
    # one state has entropies but no equiprobable expansion (was exit 2)
    code, out, err = run(capsys, "entropy", "--omega", "1")
    assert (code, err) == (0, "")
    assert out.startswith("omega = 1\nn_outcomes = 1\n")
    assert "partial" not in out


def test_entropy_delta_distribution(capsys):
    code, out, _ = run(capsys, "entropy", "--probs", "1")
    assert code == 0
    assert "shannon = 0" in out
    assert "-0" not in out


def test_entropy_explicit_probs(capsys):
    code, out, _ = run(capsys, "entropy", "--probs", "0.25,0.75", "--q", "3")
    assert code == 0
    assert "q = 3" in out
    assert "omega" not in out  # partial sums only apply to the uniform mode


def test_entropy_renyi_at_large_q(capsys):
    # p**q underflows to 0 here; ln(sum(p**q)) was a math domain error
    code, out, _ = run(capsys, "entropy", "--probs", "0.5,0.5", "--q", "2000")
    assert code == 0
    assert "renyi = 0.693147181" in out


def test_entropy_tsallis_renyi_near_certainty(capsys):
    # 1 - sum(p**q) cancels here: it printed tsallis 2.08721929e-14 and renyi
    # 2.09832152e-14, where 60-digit mpmath gives 2.09944039e-14 for both
    code, out, err = run(capsys, "entropy", "--probs", "0.999999999999993,7e-15", "--q", "1.5")
    assert (code, err) == (0, "")
    assert "\ntsallis = 2.09944039e-14\n" in out
    assert "\nrenyi = 2.09944039e-14\n" in out


def test_entropy_at_largest_q_on_the_array_route_is_quiet():
    # |q - 1| ln p overflows to -inf there, which numpy's multiply would warn of
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "entrogup", "entropy",
         "--omega", "129", "--q", "1e308"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "\ntsallis = 1e-308\nrenyi = 4.8598124\n" in proc.stdout


def test_maxent_solver_table(capsys):
    code, out, _ = run(capsys, "maxent", "--grid", "0:2:5")
    assert code == 0
    assert "p_plus" in out and "p_minus" in out and "boltzmann" in out
    # the footer's one record is the largest residual of either kind: on
    # 0:1:3 it is a minus residual, on 0:1:5 a plus residual
    for grid in ("0:1:3", "0:1:5"):
        payload = json.loads(run(capsys, "maxent", "--grid", grid, "--format", "json")[1])
        residuals = [row[f"residual_{kind}"] for row in payload["table"]
                     for kind in ("plus", "minus")]
        assert payload["footer"] == {"max_residual": max(residuals)}
        assert max(residuals) > 0.0


def test_maxent_large_energy_level(capsys):
    code, out, _ = run(capsys, "maxent", "--energies", "0,50")
    assert code == 0
    assert "1.92874985e-22" in out


def test_maxent_distribution_mode(capsys):
    code, out, _ = run(capsys, "maxent", "--energies", "0,1,2", "--beta", "0.5",
                       "--kind", "minus", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["table"]
    assert [row["level"] for row in rows] == [0, 1, 2]
    total = sum(row["p_minus"] for row in rows)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert payload["footer"]["total_variation"] > 0.0


def test_fit_writes_file_and_reports(tmp_path, capsys):
    out_file = tmp_path / "c.txt"
    code, out, err = run(capsys, "fit", "--kind", "minus", "--coeffs", str(out_file))
    assert code == 0
    assert out_file.exists()
    assert "reference" in out
    assert "residual_rms" in out
    assert str(out_file) in err  # diagnostics, not data, go to stderr


def test_fit_file_records_the_grid_it_ran(tmp_path, capsys):
    out_file = tmp_path / "c.txt"
    code, out, _ = run(capsys, "fit", "--grid", "1e-3:0.123456789:31",
                       "--coeffs", str(out_file))
    assert code == 0
    assert "grid = 0.001:0.123456789:31\n" in out_file.read_text()
    assert "0.001:0.123456789:31" in out


def test_fit_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "fit", "--kind", "plus")
    assert code == 0
    assert (tmp_path / "ansatz-plus.txt").exists()


def test_derive_builtins(capsys):
    code, out, _ = run(capsys, "derive", "--kind", "plus", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    records = payload["records"]
    assert records["alpha0_pipeline"] == pytest.approx(PUBLISHED_PLUS, abs=1e-5)
    assert records["regime"] == "max_momentum"

    code, out, _ = run(capsys, "derive", "--kind", "minus", "--format", "json")
    records = json.loads(out)["records"]
    assert records["alpha0_pipeline"] == pytest.approx(PUBLISHED_MINUS, abs=1e-5)
    assert records["regime"] == "minimal_length"


def test_derive_tsallis_reports_both_conventions(capsys):
    code, out, _ = run(capsys, "derive", "--q", "0.8", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert records["alpha0_pipeline"] == pytest.approx(0.075, rel=1e-9)
    assert records["alpha0_nominal"] == pytest.approx(0.2, rel=1e-9)
    assert records["pipeline_to_nominal"] == pytest.approx(0.375, rel=1e-9)


def test_derive_mpl_scaling(capsys):
    code, out, _ = run(capsys, "derive", "--kind", "minus", "--mpl", "2",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert records["alpha"] == pytest.approx(records["alpha0_pipeline"] / 4.0)


@pytest.mark.parametrize("q", ["1e8", "-1e8"])
def test_derive_agreement_bound_is_relative_above_one(q, capsys):
    # |alpha0| = 3.75e7; a1 is exactly 0, so the two routes agree exactly (the
    # file test below has a one-ulp discrepancy there)
    code, out, err = run(capsys, "derive", f"--q={q}")
    assert (code, err) == (0, "")
    assert "discrepancy = 0\n" in out


@pytest.mark.parametrize("q", ["1e8", "-1e8"])
def test_derive_q_overflow_names_q_and_order(q, capsys):
    # a_j grows like |1-q|**j: order 64 runs, and at 256 tsallis_coeffs (built
    # to half the order) overflows; the refusal names the order given
    code, out, err = run(capsys, "derive", f"--q={q}", "--order", "256")
    assert (code, out) == (2, "")
    assert err == ("error: the q-exponential's series coefficients overflow for "
                   f"q = {float(q)!r} at --order 256\n")


def test_derive_agreement_bound_is_relative_for_a_coefficient_file(tmp_path, capsys):
    # alpha0 = -8.35e7, where the two routes differ by one ulp (1.49e-8)
    path = tmp_path / "big.txt"
    path.write_text("kind = minus\ndegree = 2\na0 = 1.0\na1 = 0.273\n"
                    "a2 = 80985000.0\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", "--coeffs", str(path))
    assert (code, err) == (0, "")
    assert "discrepancy = 1.49011612e-08\n" in out


def test_fit_then_derive_chain(tmp_path, capsys):
    for kind, sign in (("plus", -1.0), ("minus", 1.0)):
        path = tmp_path / f"{kind}.txt"
        code, _, _ = run(capsys, "fit", "--kind", kind, "--coeffs", str(path))
        assert code == 0
        code, out, _ = run(capsys, "derive", "--coeffs", str(path),
                           "--format", "json")
        assert code == 0
        records = json.loads(out)["records"]
        assert records["alpha0_pipeline"] * sign > 0.0
        assert records["source"] == f"file:{path}"


def test_gup_table(capsys):
    code, out, _ = run(capsys, "gup", "--alpha0", "0.36", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["regime"] == "minimal_length"
    assert payload["footer"]["minimal_length"] == pytest.approx(0.6, rel=1e-9)
    for row in payload["table"]:
        assert row["commutator"] == pytest.approx(1.0 + 0.36 * row["p"] ** 2, rel=1e-6)


# --------------------------------------------------------------------------
# output formats


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "derive", "--kind", "minus", "--format", "json")
    _, second, _ = run(capsys, "derive", "--kind", "minus", "--format", "json")
    assert first == second


def test_json_roundtrip_idempotent(capsys):
    for argv in (
        ("derive", "--kind", "plus"),
        ("maxent", "--grid", "0:1:4"),
        ("entropy",),
    ):
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_csv_records_mode(capsys):
    _, out, _ = run(capsys, "entropy", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "key,value,unit"
    assert any(line.startswith("s_plus,") for line in lines)


def test_csv_table_mode_footer_comments(capsys):
    _, out, _ = run(capsys, "gup", "--alpha0", "-0.25", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "k,p,commutator,dx_bound"
    assert any(line.startswith("# regime = max_momentum") for line in lines)


_GUP_ARGV = ("gup", "--alpha0", "-0.25", "--grid", "0.5:1:2")
_ENTROPY_ARGV = ("entropy", "--probs", "0.25,0.75")
_GUP_FOOTER = {"alpha0": -0.25, "m_pl": 1.0, "alpha": -0.25,
               "regime": "max_momentum", "max_momentum": 2.0}
_ENTROPY_RECORDS = {"n_outcomes": 2, "shannon": 0.562335145, "s_plus": 0.48696577,
                    "s_minus": 0.655020041, "q": 2.0, "tsallis": 0.375,
                    "renyi": 0.470003629}


@pytest.mark.parametrize(
    "argv, fmt, expected",
    [
        (_GUP_ARGV, "text",
         "  k            p   commutator     dx_bound\n"
         "---  -----------  -----------  -----------\n"
         "0.5  0.489837325  0.940014849  0.959517376\n"
         "  1  0.924234315  0.786447733  0.425459064\n"
         "\n"
         "alpha0 = -0.25\n"
         "m_pl = 1\n"
         "alpha = -0.25\n"
         "regime = max_momentum\n"
         "max_momentum = 2\n"),
        (_GUP_ARGV, "csv",
         "k,p,commutator,dx_bound\n"
         "0.5,0.489837325,0.940014849,0.959517376\n"
         "1,0.924234315,0.786447733,0.425459064\n"
         "# alpha0 = -0.25\n"
         "# m_pl = 1\n"
         "# alpha = -0.25\n"
         "# regime = max_momentum\n"
         "# max_momentum = 2\n"),
        (_GUP_ARGV, "json",
         json.dumps({"command": "gup",
                     "table": [{"k": 0.5, "p": 0.489837325, "commutator": 0.940014849,
                                "dx_bound": 0.959517376},
                               {"k": 1.0, "p": 0.924234315, "commutator": 0.786447733,
                                "dx_bound": 0.425459064}],
                     "footer": _GUP_FOOTER}, indent=2) + "\n"),
        (_ENTROPY_ARGV, "text",
         "n_outcomes = 2\n"
         "shannon = 0.562335145\n"
         "s_plus = 0.48696577\n"
         "s_minus = 0.655020041\n"
         "q = 2\n"
         "tsallis = 0.375\n"
         "renyi = 0.470003629\n"),
        (_ENTROPY_ARGV, "csv",
         "key,value,unit\n"
         "n_outcomes,2,1\n"
         "shannon,0.562335145,1\n"
         "s_plus,0.48696577,1\n"
         "s_minus,0.655020041,1\n"
         "q,2,1\n"
         "tsallis,0.375,1\n"
         "renyi,0.470003629,1\n"),
        (_ENTROPY_ARGV, "json",
         json.dumps({"command": "entropy", "records": _ENTROPY_RECORDS}, indent=2) + "\n"),
    ],
)
def test_output_layout_is_pinned(argv, fmt, expected, capsys):
    # With a table, the records follow it as its footer; without one, they are
    # the whole output.
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out, err) == (0, expected, "")


def test_text_table_alignment(capsys):
    _, out, _ = run(capsys, "maxent", "--grid", "0:1:3")
    lines = out.splitlines()
    header = next(l for l in lines if "p_plus" in l)
    rule = lines[lines.index(header) + 1]
    assert set(rule) <= {"-", " "}
    assert len(rule) == len(header)


# --------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "fit", "--order", "1")[0] == 2
    assert run(capsys, "fit", "--kind", "tsallis")[0] == 2
    assert run(capsys, "maxent", "--grid", "nope")[0] == 2
    assert run(capsys, "maxent", "--grid", "0:1:0")[0] == 2
    assert run(capsys, "gup")[0] == 2  # missing --alpha0
    assert run(capsys, "gup", "--alpha0", "0.36", "--grid", "0:1:5")[0] == 2  # k = 0
    assert run(capsys, "boltzmann", "--p", "2.0")[0] == 2  # spread out of range
    assert run(capsys, "entropy", "--probs", "0.5,0.6")[0] == 2
    assert run(capsys, "maxent", "--energies", "1,2", "--kind", "tsallis")[0] == 2
    assert run(capsys, "maxent", "--kind", "tsallis")[0] == 2  # no kind of the grid table
    assert run(capsys, "derive", "--coeffs", "/nonexistent/c.txt")[0] == 2
    assert run(capsys, "derive", "--mpl", "1e-170")[0] == 2  # m_pl**2 underflows


def test_derive_kind_has_no_tsallis_choice(capsys):
    # --q alone picks the q-exponential; --kind is plus or minus on every command
    code, out, err = run(capsys, "derive", "--kind", "tsallis")
    assert code == 2
    assert out == ""
    assert "argument --kind: invalid choice: 'tsallis'" in err.splitlines()[-1]


@pytest.mark.parametrize("alpha0, k", [("1e-13", "1e200"), ("1e-13", "1e7")])
def test_gup_small_alpha_past_the_domain_exits_2(alpha0, k, capsys):
    # was an OverflowError traceback (exit 1) at 1e200 and a value at 1e7
    code, out, err = run(capsys, "gup", "--alpha0", alpha0, "--grid", k)
    assert code == 2
    assert out == ""
    assert err.startswith("error: |k| must stay below pi/(2 sqrt(alpha))")
    assert err.count("\n") == 1


def test_gup_at_the_rounded_momentum_cap_exits_3(capsys):
    # tanh(sqrt(0.5) k) rounds to 1 past k ~ 26.957 (argument ~ 19.06), so p
    # lands on the cap, which uncertainty_lower_bound refuses: a limit of
    # double precision (was exit 2, naming the spread)
    code, out, err = run(capsys, "gup", "--alpha0", "-0.5", "--grid", "0.1:40:5")
    assert code == 3
    assert out == ""
    assert err == ("error: p(k) rounds to the momentum cap 1/sqrt(|alpha|) = 1.41421 "
                   "in double precision at k = 30.025\n")
    assert run(capsys, "gup", "--alpha0", "-0.5", "--grid", "26.957098945385045")[0] == 0
    assert run(capsys, "gup", "--alpha0", "-0.5", "--grid", "26.95709894538505")[0] == 3


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "entropy", "--nope")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("boltzmann", "--q", "2"),
        ("entropy", "--tol", "1e-3"),
        ("maxent", "--coeffs", "c.txt"),
        ("fit", "--mpl", "2"),
        ("derive", "--grid", "0:1:3"),
        ("gup", "--alpha0", "0.36", "--kind", "plus"),
    ],
)
def test_foreign_flag_exits_2(argv, capsys, tmp_path, monkeypatch):
    # each argv exits 0 without its last flag; the flag belongs to another command
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err
    assert out == ""


def test_missing_subcommand_exits_2(capsys):
    assert run(capsys)[0] == 2


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (("gup", "--alpha0", "-5e-1", "--grid", "0.1:1:2"),
         ("gup", "--alpha0=-5e-1", "--grid", "0.1:1:2")),
        (("derive", "--q", "-1e-3"), ("derive", "--q=-1e-3")),
    ],
)
def test_dash_led_values_read_as_their_flag_value(spaced, joined, capsys):
    # argparse alone takes -5e-1 for an option: "expected one argument"
    result = run(capsys, *spaced)
    assert result[0] == 0
    assert result == run(capsys, *joined)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gup", "--alpha0", "-inf"), "alpha0 must be finite"),
        (("gup", "--alpha0", "0.3", "--grid", "-1:2:3"), "wavenumbers must be positive"),
        (("maxent", "--energies", "-1,2"), "must be finite and non-negative"),
    ],
)
def test_dash_led_values_reach_the_program_checks(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "bare, spelled",
    [
        (["boltzmann"], ["boltzmann", "--p", "0.2", "--grid", "0:5:11", "--tol", "1e-8",
                         "--order", "2"]),
        (["entropy"], ["entropy", "--omega", "4", "--q", "2.0"]),
        (["maxent"], ["maxent", "--beta", "1.0", "--kind", "plus", "--grid", "0:3:31"]),
        (["fit", "--coeffs", "c.txt"], ["fit", "--kind", "plus", "--order", "4",
                                        "--grid", DEFAULT_FIT_GRID, "--coeffs", "c.txt"]),
        (["derive"], ["derive", "--kind", "plus", "--order", "8", "--mpl", "1.0"]),
        (["gup", "--alpha0", "0.36"], ["gup", "--alpha0", "0.36", "--mpl", "1.0",
                                       "--grid", "0.1:1:10"]),
    ],
)
def test_defaults_match_their_spelled_out_values(bare, spelled, capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    for fmt in ("text", "csv", "json"):
        expected = run(capsys, *spelled, "--format", fmt)
        assert expected[0] == 0
        assert run(capsys, *bare, "--format", fmt) == expected
    assert run(capsys, *bare) == run(capsys, *spelled, "--format", "text")


@pytest.mark.parametrize("command", ["boltzmann", "maxent", "fit"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_positive_and_finite(command, tol, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the tolerance is checked before any other argument is read; maxent and
    # fit take none (their solver's residual bound is fixed), so argparse
    # refuses the flag itself
    code, out, err = run(capsys, command, "--grid", "bad", "--tol", tol)
    assert (code, out) == (2, "")
    if command == "boltzmann":
        assert err == f"error: --tol must be positive, got {float(tol)!r}\n"
    else:
        assert f"unrecognized arguments: --tol {tol}\n" in err
    assert not list(tmp_path.iterdir())  # fit wrote no coefficient file


def test_flag_missing_its_value_keeps_argparse_error(capsys):
    code, out, err = run(capsys, "gup", "--alpha0", "--grid", "0.1:1:2")
    assert code == 2
    assert out == ""
    assert "argument --alpha0: expected one argument" in err


@pytest.mark.parametrize("omega", [str(10**12), str(10**20)])
def test_entropy_omega_above_bound_exits_2_quietly(omega, capsys):
    code, out, err = run(capsys, "entropy", "--omega", omega)
    assert code == 2
    assert out == ""
    assert err == f"error: the number of states must lie in [1, 1048576], got {omega}\n"


@pytest.mark.parametrize(
    "argv", [("gup", "--alpha0", "0.36"), ("maxent",), ("boltzmann",), ("fit",)]
)
def test_grid_count_above_bound_exits_2_quietly(argv, capsys, tmp_path, monkeypatch):
    # refused before numpy tries to allocate 10**15 points (7 PiB)
    monkeypatch.chdir(tmp_path)
    grid = "0:1:1000000000000000"
    code, out, err = run(capsys, *argv, "--grid", grid)
    assert (code, out) == (2, "")
    assert err == (
        "error: grid must be 'start:stop:count' with count in [1, 1048576], "
        f"or a single number, got {grid!r}\n"
    )
    assert not list(tmp_path.iterdir())  # fit wrote no coefficient file


def test_grid_count_at_bound_parses():
    assert len(_parse_grid("0:1:1048576")) == 1 << 20


_TINY = 5e-324
_HUGE = 1.7976931348623157e308
# any double (subnormal, huge, signed zero, inf, nan), the extremes, and
# subnormal multiples, whose spans over many points have a step that rounds to 0
_ENDPOINTS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, _TINY, -_TINY, _HUGE, -_HUGE]),
    st.integers(-64, 64).map(lambda n: n * _TINY),
)


@settings(max_examples=1000, deadline=None)
@given(start=_ENDPOINTS, stop=_ENDPOINTS,
       count=st.one_of(st.sampled_from([1, 2]), st.integers(1, 4000)))
@example(start=0.0, stop=3 * _TINY, count=1000)  # step rounds to 0
@example(start=-0.0, stop=-0.0, count=3)
@example(start=-0.0, stop=0.0, count=1)
@example(start=-_HUGE, stop=_HUGE, count=1)  # one point, but the span overflows
@example(start=_HUGE, stop=-_HUGE, count=2)
def test_grid_has_linspace_bits(start, stop, count):
    text = f"{start!r}:{stop!r}:{count}"
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, count)
    if np.isfinite(expected).all():
        assert [v.hex() for v in _parse_grid(text)] == [v.hex() for v in expected.tolist()]
    else:
        with pytest.raises(ValueError) as info:
            _parse_grid(text)
        assert str(info.value) == f"grid endpoints must be finite, got {text!r}"


@pytest.mark.parametrize(
    "argv", [("maxent", "--energies"), ("entropy", "--probs"), ("boltzmann", "--p")]
)
def test_value_list_above_bound_exits_2_quietly(argv, capsys):
    # refused on the count, before any value is converted or solved
    values = ",".join(["0.5"] * ((1 << 20) + 1))
    code, out, err = run(capsys, *argv, values)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[1]} takes at most 1048576 values, got 1048577\n"


def test_value_list_bound_counts_values_not_separators():
    with pytest.raises(ValueError, match="at most 1048576 values, got 1048577"):
        _parse_floats(",".join(["x"] * ((1 << 20) + 1)), "--p")
    # empty items are dropped before counting, as they are when parsing
    assert len(_parse_floats("1," * (1 << 20) + ",,", "--p")) == 1 << 20


def test_out_of_domain_gup_grid_names_bound(capsys):
    code, _, err = run(capsys, "gup", "--alpha0", "0.36", "--grid", "1:4:4")
    assert code == 2
    assert "pi/(2 sqrt(alpha))" in err


def test_overflowing_alpha_names_the_overflow(capsys):
    # alpha0 and m_pl are each in range, alpha0 / m_pl**2 is not
    code, out, err = run(capsys, "gup", "--alpha0", "1e300", "--mpl", "1e-150")
    assert code == 2
    assert out == ""
    assert "alpha = alpha0/m_pl**2 overflows" in err


def assert_exit_3(capsys, *argv):
    """Exit 3 prints no report and exactly one ``error:`` line; returns it."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1
    return err


def test_numerical_failures_exit_3(capsys):
    # a level whose probability underflows
    assert_exit_3(capsys, "maxent", "--energies", "0,800")
    # unreachable quadrature tolerance
    assert_exit_3(capsys, "boltzmann", "--tol", "1e-16")


def test_boltzmann_disagreement_prints_no_report(monkeypatch, capsys):
    closed = superstats.boltzmann_closed
    monkeypatch.setattr(superstats, "boltzmann_quadrature",
                        lambda params, energy, tol: 1.001 * closed(params, energy))
    err = assert_exit_3(capsys, "boltzmann")
    # the first point of the default table
    assert "disagree at p = 0.2, beta0E = 0.0: relative difference 1.000e-03" in err


def test_derive_disagreement_prints_no_report(monkeypatch, capsys):
    closed = gup.deformation_closed
    monkeypatch.setattr(gup, "deformation_closed", lambda a1, a2: closed(a1, a2) + 1e-6)
    err = assert_exit_3(capsys, "derive")
    assert err == "error: series pipeline and closed form disagree by 1.000e-06\n"


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("maxent", "--energies", "0,800"), 3),
        (("maxent", "--energies", "800,801"), 3),
        (("maxent", "--energies", "0,1", "--beta", "1e308"), 3),
        (("maxent", "--energies", "1e308,1e308", "--beta", "10"), 2),
        # the quadrature value is below the normal range: 0 where the panels
        # miss the peak at t ~ 1/p (1e-300); ln Gamma(1/p) overflows (5e-324)
        (("boltzmann", "--p", "1e-300", "--grid", "0:1:2"), 3),
        (("boltzmann", "--p", "5e-324", "--grid", "0:1:2"), 3),
        # ln Gamma(1/p) overflows
        (("boltzmann", "--p", "1e-308"), 3),
        # unreachable quadrature tolerance
        (("boltzmann", "--tol", "1e-16"), 3),
        # an infinite grid endpoint or span
        (("gup", "--alpha0", "0.36", "--grid", "0:inf:3"), 2),
        (("maxent", "--grid", "-1e308:1e308:3"), 2),
        # the quadrature value, the closed form 1e-308, is subnormal
        (("boltzmann", "--p", "1", "--grid", "1e308"), 3),
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would reach the user's stderr
def test_unrepresentable_levels_fail_without_warnings(argv, exit_code, capsys):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("order", ["258", str(10**20)])
@pytest.mark.parametrize("kind", ["plus", "tsallis"])
def test_series_order_above_max_exits_2(kind, order, capsys):
    selector = {"plus": ("--kind", "plus"), "tsallis": ("--q", "1")}[kind]
    code, out, err = run(capsys, "derive", *selector, "--order", order)
    assert code == 2
    assert out == ""
    assert err.startswith("error: order must lie in [") and ", 256], got " in err
    assert err.count("\n") == 1


def test_tsallis_order_above_max_names_the_order_given(capsys):
    # the tsallis coefficients are built to half the order; the refusal must
    # still name the order on the command line
    code, out, err = run(capsys, "derive", "--q", "1", "--order", str(10**20))
    assert code == 2
    assert out == ""
    assert f"got {10**20}\n" in err


@pytest.mark.filterwarnings("error")  # an overflow inside the series must not warn
def test_overflowing_series_coefficients_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("kind = plus\ndegree = 2\na0 = 1.0\na1 = 0.0\na2 = 1e300\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "derive", "--coeffs", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: series coefficients must be finite\n"


@pytest.mark.parametrize("a2", ["0.0", "100.0"])
@pytest.mark.filterwarnings("error")
def test_overflowing_momentum_root_exits_2(a2, tmp_path, capsys):
    # the Hamiltonian series stays finite to order 256; the square root's
    # running sums overflow (a2 = 0) or meet -inf + inf (a2 = 100)
    path = tmp_path / "root.txt"
    path.write_text(f"kind = plus\ndegree = 3\na0 = 1.0\na1 = 0.0\na2 = {a2}\n"
                    "a3 = -1e8\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", "--coeffs", str(path), "--order", "256")
    assert code == 2
    assert out == ""
    assert err == "error: series coefficients must be finite\n"


def test_fit_window_too_wide_for_degree_exits_2_quietly(tmp_path):
    # x**4 overflows on this grid; numpy and LAPACK would write to stderr
    proc = subprocess.run(
        [sys.executable, "-m", "entrogup", "fit", "--grid", "0:1e308:5",
         "--coeffs", str(tmp_path / "c.txt")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "too wide for degree 4" in proc.stderr
    assert "Warning" not in proc.stderr and "DLASCL" not in proc.stderr + proc.stdout


def test_bad_coeffs_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("kind = plus\ndegree = 0\na0 = 1.0\nextra = 1\n", encoding="utf-8")
    assert run(capsys, "derive", "--coeffs", str(path))[0] == 2


# --------------------------------------------------------------------------
# fuzzing the command table

# Values for each kind of flag: edge numbers, and grids and lists that are
# empty, malformed or reversed.  Grid counts stay at most 64 and lists at most
# 8 values, so that no draw runs for long.
_INTS = ("-1", "0", "1", "2", "4", "6", "8", "64", "258", "1e300", "x", "")
_FLOATS = ("-1", "-0.25", "0", "5e-324", "1e-12", "0.36", "1", "2", "1e300",
           "nan", "inf", "-inf", "x", "")
_TEXTS = ("0", "-1", "0.5", "nan", "inf", "1e300", "5e-324", "", ",", "x",
          "0:1:2", "0.1:1:5", "0:3:64", "1:0:3", "-1:2:5", "0:1:0", "0:inf:3",
          "1:2", "1:2:3:4", "a:b:c", "0.25,0.75", "0.2,0.5,0.9", "1,0", "0.5,-0.5",
          "-1e308:1e308:3", "0,1,2,3,4,5,6,7", "0,800", "nan,1", "c.txt",
          "no/such/dir/c.txt")


def _flag_values(flag, default):
    if isinstance(default, tuple):  # the flag's choices
        return (*default, "tsallis", "nope")
    return {int: _INTS, float: _FLOATS}.get(_FLAGS[flag].get("type"), _TEXTS)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    defaults = {"--format": ("text", "csv", "json"), **_COMMANDS[command][2]}
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(defaults)), max_size=5)):
        argv += [flag, draw(st.sampled_from(_flag_values(flag, defaults[flag])))]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_fuzzed_command_table(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # fit writes ansatz-<kind>.txt to the cwd
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    # Warnings are errors in the call only: the pytest mark would also turn
    # hypothesis's own warnings into errors while it reports a failure.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert time.perf_counter() - start < 10.0
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code == 3:
        assert out == ""
    if code == 0:
        assert "error" not in err
        formats = [value for flag, value in zip(argv[1::2], argv[2::2]) if flag == "--format"]
        if formats[-1:] == ["json"]:
            payload = json.loads(out)
            assert payload["command"] == argv[0]
            assert ("records" in payload) != ("footer" in payload)
            assert ("table" in payload) == ("footer" in payload)
    elif err.startswith("error:"):
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert code == 2 and out == ""
        assert ": error: " in err.splitlines()[-1]


# --------------------------------------------------------------------------
# entry point


def test_module_execution_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "entrogup", "derive", "--kind", "plus",
         "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    records = json.loads(proc.stdout)["records"]
    assert records["alpha0_pipeline"] == pytest.approx(PUBLISHED_PLUS, abs=1e-5)


# An input of up to entropy._FLOAT_ROUTE_MAX (64) points takes the float
# route; the same input padded past it takes the array route.
PAST_ROUTE = ",0" * 63


@pytest.mark.parametrize(
    "argv, padded",
    [
        (("maxent", "--energies", "0,800"), ("maxent", "--energies", "0,800" + PAST_ROUTE)),
        (("maxent", "--energies", "800,801"), ("maxent", "--energies", "800,801" + PAST_ROUTE)),
        (("maxent", "--energies", "0,2", "--beta", "1e308"),
         ("maxent", "--energies", "0,2" + PAST_ROUTE, "--beta", "1e308")),
        (("maxent", "--energies", "1e308,1e308"),
         ("maxent", "--energies", "1e308,1e308" + PAST_ROUTE)),
        (("maxent", "--grid", "-1e308:1e308:3"), ("maxent", "--grid", "-1e308:1e308:65")),
        (("maxent", "--grid", "0:1e308:5"), ("maxent", "--grid", "0:1e308:65")),
        (("fit", "--grid", "-1e308:1e308:3"), ("fit", "--grid", "-1e308:1e308:65")),
        (("fit", "--grid", "0:1e308:5"), ("fit", "--grid", "0:1e308:65")),
    ],
    ids=["energies-0,800", "energies-800,801", "beta-1e308", "energies-1e308",
         "maxent-grid-span", "maxent-grid-1e308", "fit-grid-span", "fit-grid-1e308"],
)
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_errors_match_on_both_sides_of_the_float_route(capsys, tmp_path, argv, padded, kind):
    coeffs = ("--coeffs", str(tmp_path / "c.txt")) if argv[0] == "fit" else ()
    code, _, err = run(capsys, *argv, "--kind", kind, *coeffs)
    padded_code, _, padded_err = run(capsys, *padded, "--kind", kind, *coeffs)
    assert padded_code == code
    # a refused grid echoes its own count
    assert padded_err == err.replace(argv[2], padded[2])
    if argv == ("maxent", "--grid", "0:1e308:5"):
        assert (code, err) == (0, "")
    else:
        assert code in (2, 3) and err.startswith("error: ") and err.count("\n") == 1


def test_grid_with_two_parts_is_refused():
    with pytest.raises(ValueError) as info:
        _parse_grid("0:1")
    assert str(info.value) == (
        "grid must be 'start:stop:count' with count in [1, 1048576], "
        "or a single number, got '0:1'"
    )


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_fit_above_the_reference_degree_leaves_its_cells_empty(tmp_path, capsys, fmt):
    # the reference sets stop at a4, so rows 5 and 6 have no reference or diff
    code, out, _ = run(capsys, "fit", "--order", "6", "--coeffs", str(tmp_path / "c.txt"),
                       "--format", fmt)
    assert code == 0
    lines = out.splitlines()
    if fmt == "csv":
        rows = [line.split(",") for line in lines[1:8]]
        assert [row[0] for row in rows] == [str(j) for j in range(7)]
        assert all(row[2] and row[3] for row in rows[:5])
        assert [row[2:] for row in rows[5:]] == [["", ""], ["", ""]]
    else:
        header, rule, *rows = lines[:9]
        assert header.split() == ["j", "fitted", "reference", "diff"]
        assert [row.split()[0] for row in rows] == [str(j) for j in range(7)]
        assert all(len(row.split()) == 4 for row in rows[:5])
        # the empty cells are padded to the columns' width, not dropped
        assert [len(row.split()) for row in rows[5:]] == [2, 2]
        assert all(len(row) == len(rule) for row in rows)
