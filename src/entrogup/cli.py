"""Command-line front end.

Six subcommands cover the workflow end to end: ``boltzmann`` cross-checks the
three evaluation routes for the averaged Boltzmann factor, ``entropy`` prints
the entropy family for a distribution, ``maxent`` tabulates the implicit
maximum-entropy solutions, ``fit`` condenses them into generalized-exponential
coefficients, ``derive`` turns coefficients into the deformation parameter,
and ``gup`` evaluates the deformed uncertainty relation itself.

Data goes to stdout (text, csv, or json); diagnostics go to stderr.  Exit
codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    ProbVector,
    renyi,
    s_minus,
    s_minus_equiprob_expansion,
    s_plus,
    s_plus_equiprob_expansion,
    shannon,
    tsallis,
)
from .errors import NumericalError
from .gup import (
    REFERENCE_MINUS,
    REFERENCE_PLUS,
    GupParams,
    commutator_rhs,
    deformation_pipeline,
    p_of_k,
    regime_summary,
    tsallis_coeffs,
    uncertainty_lower_bound,
)
from .maxent import (
    DEFAULT_FIT_GRID,
    _roots,
    fit_gen_exp,
    load_coeffs,
    maxent_distribution,
    save_coeffs,
)
from .series import MAX_ORDER
from .superstats import (
    GammaBetaParams,
    boltzmann_closed,
    boltzmann_quadrature,
    boltzmann_series,
)

__all__ = ["main", "main_entry"]

_FLOAT_FMT = ".9g"


# --------------------------------------------------------------------------
# report model and renderers


@dataclass
class Report:
    """Ordered records, an optional table, and footer records."""

    command: str
    records: list[tuple[str, object, str]] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    units: list[str] = field(default_factory=list)
    rows: list[list[object]] = field(default_factory=list)
    footer: list[tuple[str, object, str]] = field(default_factory=list)

    def add(self, key: str, value: object, unit: str = "1") -> None:
        self.records.append((key, value, unit))

    def add_footer(self, key: str, value: object, unit: str = "1") -> None:
        self.footer.append((key, value, unit))

    def set_table(
        self,
        columns: list[str],
        rows: list[list[object]],
        units: list[str] | None = None,
    ) -> None:
        self.columns = list(columns)
        self.rows = [list(row) for row in rows]
        self.units = list(units) if units is not None else ["1"] * len(self.columns)


def _fmt_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def _json_value(value: object):
    if isinstance(value, float):
        return float(format(value, _FLOAT_FMT))
    return value


def _record_line(key: str, value: object, unit: str) -> str:
    line = f"{key} = {_fmt_value(value)}"
    if unit != "1":
        line += f" [{unit}]"
    return line


def _render_text(report: Report) -> str:
    lines = [_record_line(*rec) for rec in report.records]
    if report.rows:
        if lines:
            lines.append("")
        header = list(report.columns)
        cells = [[_fmt_value(v) for v in row] for row in report.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in cells)) if cells else len(header[i])
            for i in range(len(header))
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    if report.footer:
        if report.rows or report.records:
            lines.append("")
        lines.extend(_record_line(*rec) for rec in report.footer)
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    lines: list[str] = []
    if report.rows:
        lines.extend(f"# {_record_line(*rec)}" for rec in report.records)
        header = [
            name if unit == "1" else f"{name}[{unit}]"
            for name, unit in zip(report.columns, report.units)
        ]
        lines.append(",".join(header))
        for row in report.rows:
            lines.append(",".join(_fmt_value(v) for v in row))
        lines.extend(f"# {_record_line(*rec)}" for rec in report.footer)
    else:
        lines.append("key,value,unit")
        for key, value, unit in report.records + report.footer:
            lines.append(f"{key},{_fmt_value(value)},{unit}")
    return "\n".join(lines) + "\n"


def _render_json(report: Report) -> str:
    payload: dict[str, object] = {"command": report.command}
    if report.records:
        payload["records"] = {key: _json_value(v) for key, v, _ in report.records}
    if report.rows:
        payload["table"] = [
            {col: _json_value(v) for col, v in zip(report.columns, row)}
            for row in report.rows
        ]
    if report.footer:
        payload["footer"] = {key: _json_value(v) for key, v, _ in report.footer}
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"text": _render_text, "csv": _render_csv, "json": _render_json}


# --------------------------------------------------------------------------
# argument helpers


def _parse_grid(text: str) -> np.ndarray:
    """Parse ``start:stop:count`` (inclusive linspace) or a single number."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            values = np.array([float(parts[0])])
        elif len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            values = np.linspace(start, stop, count)
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"grid must be 'start:stop:count' with count >= 1, or a single "
            f"number, got {text!r}"
        ) from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    return values


def _parse_floats(text: str, flag: str) -> list[float]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _grid_or(args: argparse.Namespace, default: str) -> np.ndarray:
    return _parse_grid(args.grid if args.grid is not None else default)


def _tol_or(args: argparse.Namespace, default: float) -> float:
    tol = default if args.tol is None else float(args.tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"--tol must be positive, got {tol!r}")
    return tol


def _order_or(args: argparse.Namespace, default: int) -> int:
    return default if args.order is None else args.order


# --------------------------------------------------------------------------
# subcommand handlers: each returns (report, exit_code)


def _cmd_boltzmann(args: argparse.Namespace) -> tuple[Report, int]:
    tol = _tol_or(args, 1e-8)
    order = _order_or(args, 2)
    p_values = _parse_floats(args.p, "--p")
    energies = _grid_or(args, "0:5:11")

    report = Report("boltzmann")
    rows = []
    worst = 0.0
    for p in p_values:
        params = GammaBetaParams(p=p, beta0=1.0)
        for energy in energies:
            energy = float(energy)
            closed = boltzmann_closed(params, energy)
            quad = boltzmann_quadrature(params, energy, tol=tol)
            series = boltzmann_series(params, energy, order=order)
            diff = abs(quad - closed)
            worst = max(worst, diff / closed)
            rows.append([p, energy, closed, quad, series, diff])
    report.set_table(
        ["p", "beta0E", "closed", "quadrature", f"series{order}", "abs_diff"], rows
    )
    report.add_footer("max_rel_diff", worst)
    report.add_footer("tol", tol)

    threshold = max(1e-7, 10.0 * tol)
    if worst > threshold:
        print(
            f"error: closed form and quadrature disagree: relative difference "
            f"{worst:.3e} exceeds {threshold:.3e}",
            file=sys.stderr,
        )
        return report, 3
    return report, 0


def _cmd_entropy(args: argparse.Namespace) -> tuple[Report, int]:
    uniform = args.probs is None
    if uniform:
        probs = ProbVector.uniform(args.omega)
    else:
        probs = ProbVector(tuple(_parse_floats(args.probs, "--probs")))
    q = 2.0 if args.q is None else args.q

    report = Report("entropy")
    if uniform:
        report.add("omega", args.omega)
    report.add("n_outcomes", len(probs))
    report.add("shannon", shannon(probs))
    report.add("s_plus", s_plus(probs))
    report.add("s_minus", s_minus(probs))
    report.add("q", q)
    report.add("tsallis", tsallis(probs, q))
    report.add("renyi", renyi(probs, q))
    if uniform:
        for nterms in (1, 2, 3):
            report.add(
                f"s_plus_partial{nterms}",
                s_plus_equiprob_expansion(args.omega, nterms),
            )
        for nterms in (1, 2, 3):
            report.add(
                f"s_minus_partial{nterms}",
                s_minus_equiprob_expansion(args.omega, nterms),
            )
    return report, 0


def _cmd_maxent(args: argparse.Namespace) -> tuple[Report, int]:
    tol = _tol_or(args, 1e-12)
    report = Report("maxent")

    if args.energies is not None:
        energies = _parse_floats(args.energies, "--energies")
        deformed = maxent_distribution(energies, args.beta, kind=args.kind, tol=tol)
        reference = maxent_distribution(energies, args.beta, kind="boltzmann", tol=tol)
        rows = [
            [i, energies[i], deformed[i], reference[i]]
            for i in range(len(energies))
        ]
        report.set_table(["level", "energy", f"p_{args.kind}", "p_boltzmann"], rows)
        report.add_footer("beta", args.beta)
        report.add_footer("kind", args.kind)
        report.add_footer(
            "total_variation",
            0.5 * math.fsum(abs(a - b) for a, b in zip(deformed, reference)),
        )
        return report, 0

    xs = _grid_or(args, "0:3:31")
    plus, residual_plus = _roots(xs, 1, tol)
    minus, residual_minus = _roots(xs, -1, tol)
    rows = [
        [x, p_plus, res_plus, p_minus, res_minus, math.exp(-x)]
        for x, p_plus, res_plus, p_minus, res_minus in zip(
            xs.tolist(),
            plus.tolist(),
            residual_plus.tolist(),
            minus.tolist(),
            residual_minus.tolist(),
        )
    ]
    report.set_table(
        ["x", "p_plus", "residual_plus", "p_minus", "residual_minus", "boltzmann"],
        rows,
    )
    report.add_footer("tol", tol)
    return report, 0


def _cmd_fit(args: argparse.Namespace) -> tuple[Report, int]:
    tol = _tol_or(args, 1e-12)
    degree = _order_or(args, 4)
    grid_text = args.grid if args.grid is not None else DEFAULT_FIT_GRID
    xs = _parse_grid(grid_text)

    fit = fit_gen_exp(args.kind, degree, xs, tol=tol)
    out_path = args.coeffs if args.coeffs is not None else f"ansatz-{args.kind}.txt"
    save_coeffs(fit, out_path)
    print(f"wrote coefficients to {out_path}", file=sys.stderr)

    reference = REFERENCE_PLUS if args.kind == "plus" else REFERENCE_MINUS
    rows = []
    for j, value in enumerate(fit.coeffs.a):
        ref = reference.a[j] if j <= reference.degree else None
        diff = value - ref if ref is not None else None
        rows.append([j, value, ref, diff])
    report = Report("fit")
    report.set_table(["j", "fitted", "reference", "diff"], rows)
    report.add_footer("kind", args.kind)
    report.add_footer("degree", degree)
    report.add_footer("residual_rms", fit.residual)
    report.add_footer("grid", fit.grid)
    report.add_footer("coeffs_file", out_path)
    return report, 0


def _cmd_derive(args: argparse.Namespace) -> tuple[Report, int]:
    order = _order_or(args, 8)

    if args.coeffs is not None:
        coeffs = load_coeffs(args.coeffs).coeffs
        source = f"file:{args.coeffs}"
    elif args.kind == "tsallis" or args.q is not None:
        q = 1.0 if args.q is None else args.q
        if order > MAX_ORDER:
            # Refused here, by the order given: tsallis_coeffs sees only half of it.
            raise ValueError(f"order must lie in [4, {MAX_ORDER}], got {order}")
        # Terms a_j H**j with 2j > order fall outside the truncation anyway.
        coeffs = tsallis_coeffs(q, order=max(2, order // 2))
        source = "tsallis"
    elif args.kind == "plus":
        coeffs, source = REFERENCE_PLUS, "builtin:plus"
    else:
        coeffs, source = REFERENCE_MINUS, "builtin:minus"

    result = deformation_pipeline(coeffs, order=order)
    params = GupParams(result.alpha0_pipeline, args.mpl)
    regime = regime_summary(params)

    report = Report("derive")
    report.add("source", source)
    report.add("kind", coeffs.kind)
    report.add("degree", coeffs.degree)
    for idx in range(2, min(result.hamiltonian.order, 6) + 1, 2):
        report.add(f"h_k{idx}", result.hamiltonian.coeffs[idx])
    for idx in range(1, min(result.momentum_normalized.order, 7) + 1, 2):
        report.add(f"p_k{idx}", result.momentum_normalized.coeffs[idx])
    report.add("alpha0_pipeline", result.alpha0_pipeline)
    report.add("alpha0_closed", result.alpha0_closed)
    report.add("discrepancy", result.discrepancy)
    report.add("m_pl", params.m_pl)
    report.add("alpha", params.alpha)
    report.add("regime", regime.regime)
    if regime.minimal_length is not None:
        report.add("minimal_length", regime.minimal_length)
    if regime.max_momentum is not None:
        report.add("max_momentum", regime.max_momentum)
    if coeffs.kind == "tsallis":
        nominal = 1.0 - coeffs.q
        report.add("q", coeffs.q)
        report.add("alpha0_nominal", nominal)
        if nominal != 0.0:
            report.add("pipeline_to_nominal", result.alpha0_pipeline / nominal)

    if result.discrepancy > 1e-9:
        print(
            f"error: series pipeline and closed form disagree by "
            f"{result.discrepancy:.3e}",
            file=sys.stderr,
        )
        return report, 3
    return report, 0


def _cmd_gup(args: argparse.Namespace) -> tuple[Report, int]:
    if args.alpha0 is None:
        raise ValueError("gup requires --alpha0 (try: entrogup gup --alpha0 0.36)")
    params = GupParams(args.alpha0, args.mpl)
    ks = _grid_or(args, "0.1:1:10")

    rows = []
    for k in ks:
        k = float(k)
        if k <= 0.0:
            raise ValueError(f"wavenumbers must be positive, got {k!r}")
        p = p_of_k(params, k)
        rows.append(
            [k, p, commutator_rhs(params, p), uncertainty_lower_bound(params, p)]
        )
    report = Report("gup")
    report.set_table(["k", "p", "commutator", "dx_bound"], rows)

    regime = regime_summary(params)
    report.add_footer("alpha0", params.alpha0)
    report.add_footer("m_pl", params.m_pl)
    report.add_footer("alpha", params.alpha)
    report.add_footer("regime", regime.regime)
    if regime.minimal_length is not None:
        report.add_footer("minimal_length", regime.minimal_length)
    if regime.max_momentum is not None:
        report.add_footer("max_momentum", regime.max_momentum)
    return report, 0


# --------------------------------------------------------------------------
# parser


# Every flag of the CLI; each subcommand takes ``--format`` and the flags its
# handler reads.
_FLAGS: dict[str, dict[str, object]] = {
    "--format": dict(
        choices=("text", "csv", "json"), default="text", help="output format (default: text)"
    ),
    "--tol": dict(type=float, default=None, help="numerical tolerance"),
    "--order": dict(type=int, default=None, help="series order / fit degree"),
    "--grid": dict(default=None, help="evaluation grid 'start:stop:count'"),
    "--coeffs": dict(default=None, help="coefficient file (fit output, derive input)"),
    "--kind": dict(
        choices=("plus", "minus", "tsallis"),
        default="plus",
        help="which statistics to use (default: plus)",
    ),
    "--q": dict(type=float, default=None, help="entropic index for q-statistics"),
    "--alpha0": dict(type=float, default=None, help="dimensionless deformation parameter"),
    "--mpl": dict(type=float, default=1.0, help="scale dividing alpha0 (default: 1)"),
    "--p": dict(default="0.2", help="comma-separated variance parameters (default: 0.2)"),
    "--omega": dict(type=int, default=4, help="equiprobable outcome count (default: 4)"),
    "--probs": dict(default=None, help="comma-separated probabilities (overrides --omega)"),
    "--energies": dict(default=None, help="comma-separated level energies"),
    "--beta": dict(type=float, default=1.0, help="inverse temperature (default: 1)"),
}

_COMMANDS = (
    ("boltzmann", _cmd_boltzmann, ("--p", "--grid", "--tol", "--order"),
     "compare closed-form, quadrature, and expansion Boltzmann factors"),
    ("entropy", _cmd_entropy, ("--omega", "--probs", "--q"),
     "entropy family of a distribution"),
    ("maxent", _cmd_maxent, ("--energies", "--beta", "--kind", "--grid", "--tol"),
     "implicit maximum-entropy solutions or a discrete distribution"),
    ("fit", _cmd_fit, ("--kind", "--order", "--grid", "--tol", "--coeffs"),
     "fit generalized-exponential coefficients to the implicit solution"),
    ("derive", _cmd_derive, ("--coeffs", "--kind", "--q", "--order", "--mpl"),
     "deformation parameter from coefficients (file, --q, or built-in)"),
    ("gup", _cmd_gup, ("--alpha0", "--mpl", "--grid"),
     "evaluate the deformed uncertainty relation"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrogup",
        description="Entropy-driven momentum-space deformation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, flags, help_text in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag in ("--format", *flags):
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        report, exit_code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(_RENDERERS[args.format](report))
    return exit_code


def main_entry() -> None:
    sys.exit(main())
