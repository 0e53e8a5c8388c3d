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
import math
import sys

from ._value import Record
from .errors import NumericalError

__all__ = ["main", "main_entry"]

_FLOAT_FMT = ".9g"
# Largest grid count or number of listed values, checked before the grid is
# allocated or any value converted (the limit ProbVector.uniform puts on the
# number of states).
_MAX_GRID_COUNT = 1 << 20


# --------------------------------------------------------------------------
# report model and renderers


class Report(Record):
    """Ordered records and an optional table.

    With a table, the records are its footer and follow it; without one, they
    are the whole report.  A list left out starts empty, a new one per report.
    """

    _fields = ("command", "records", "columns", "rows")

    def __init__(
        self,
        command: str,
        records: list[tuple[str, object]] | None = None,
        columns: list[str] | None = None,
        rows: list[list[object]] | None = None,
    ) -> None:
        self.command = command
        self.records = [] if records is None else records
        self.columns = [] if columns is None else columns
        self.rows = [] if rows is None else rows

    def add(self, key: str, value: object) -> None:
        self.records.append((key, value))


def _fmt_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def _json_value(value: object):
    if isinstance(value, float):
        return float(format(value, _FLOAT_FMT))
    return value


def _record_line(key: str, value: object) -> str:
    return f"{key} = {_fmt_value(value)}"


def _render_text(report: Report) -> str:
    lines = [_record_line(*rec) for rec in report.records]
    if report.rows:
        cells = [[_fmt_value(v) for v in row] for row in report.rows]
        widths = [
            max(len(name), *(len(row[i]) for row in cells))
            for i, name in enumerate(report.columns)
        ]
        lines = [
            "  ".join(name.rjust(w) for name, w in zip(report.columns, widths)),
            "  ".join("-" * w for w in widths),
            *("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells),
            "",
            *lines,
        ]
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    if report.rows:
        lines = [
            ",".join(report.columns),
            *(",".join(_fmt_value(v) for v in row) for row in report.rows),
            *(f"# {_record_line(*rec)}" for rec in report.records),
        ]
    else:
        # Every value is dimensionless; the unit column keeps the format stable.
        lines = ["key,value,unit", *(f"{key},{_fmt_value(v)},1" for key, v in report.records)]
    return "\n".join(lines) + "\n"


def _render_json(report: Report) -> str:
    import json

    payload: dict[str, object] = {"command": report.command}
    if report.rows:
        payload["table"] = [
            {col: _json_value(v) for col, v in zip(report.columns, row)}
            for row in report.rows
        ]
    payload["footer" if report.rows else "records"] = {
        key: _json_value(v) for key, v in report.records
    }
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"text": _render_text, "csv": _render_csv, "json": _render_json}


# --------------------------------------------------------------------------
# argument helpers


def _parse_grid(text: str) -> list[float]:
    """Parse ``start:stop:count`` (inclusive linspace) or a single number.

    The points are ``np.linspace(start, stop, count)``'s bits, computed without
    numpy (which ``derive`` and ``gup`` never load): ``i*step + start`` with
    ``step = (stop - start)/(count - 1)``, or ``(i/(count - 1))*(stop - start)
    + start`` where ``step`` rounds to 0, ``0*(stop - start) + start`` for one
    point, and the last point set to ``stop``.  A non-finite endpoint or span
    makes some point inf or nan, and the grid is refused.
    """
    parts = text.split(":")
    try:
        if len(parts) == 1:
            values = [float(parts[0])]
        elif len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if not 1 <= count <= _MAX_GRID_COUNT:
                raise ValueError
            delta, div = stop - start, count - 1
            if not div:
                values = [0 * delta + start]
            else:
                step = delta / div
                if step == 0.0:
                    values = [i / div * delta + start for i in range(div)]
                else:
                    values = [i * step + start for i in range(div)]
                values.append(stop)
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"grid must be 'start:stop:count' with count in [1, {_MAX_GRID_COUNT}], "
            f"or a single number, got {text!r}"
        ) from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    return values


def _parse_floats(text: str, flag: str) -> list[float]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    if len(tokens) > _MAX_GRID_COUNT:
        raise ValueError(f"{flag} takes at most {_MAX_GRID_COUNT} values, got {len(tokens)}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


# --------------------------------------------------------------------------
# subcommand handlers: each returns its report, and a failed check raises
# (ValueError for invalid input, NumericalError for a numerical failure), so
# that main alone picks the exit code.  Each imports what it calls when it
# runs, so that a command loads only the submodules it uses (and a tracer's
# patches of their functions take effect).


def _cmd_boltzmann(args: argparse.Namespace) -> Report:
    # Checked before any other argument is read.
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be positive, got {args.tol!r}")
    from .superstats import (
        GammaBetaParams,
        boltzmann_closed,
        boltzmann_quadrature,
        boltzmann_series,
    )

    p_values = _parse_floats(args.p, "--p")
    energies = _parse_grid(args.grid)

    threshold = max(1e-7, 10.0 * args.tol)
    rows = []
    worst = 0.0
    for p in p_values:
        params = GammaBetaParams(p=p, beta0=1.0)
        for energy in energies:
            closed = boltzmann_closed(params, energy)
            quad = boltzmann_quadrature(params, energy, tol=args.tol)
            series = boltzmann_series(params, energy, order=args.order)
            diff = abs(quad - closed)
            rel = diff / closed
            # Written so that a NaN difference fails.
            if not rel <= threshold:
                raise NumericalError(
                    f"closed form and quadrature disagree at p = {p!r}, beta0E = "
                    f"{energy!r}: relative difference {rel:.3e} exceeds {threshold:.3e}"
                )
            worst = max(worst, rel)
            rows.append([p, energy, closed, quad, series, diff])
    columns = ["p", "beta0E", "closed", "quadrature", f"series{args.order}", "abs_diff"]
    report = Report("boltzmann", columns=columns, rows=rows)
    report.add("max_rel_diff", worst)
    report.add("tol", args.tol)
    return report


def _cmd_entropy(args: argparse.Namespace) -> Report:
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

    uniform = args.probs is None
    if uniform:
        probs = ProbVector.uniform(args.omega)
    else:
        probs = ProbVector(tuple(_parse_floats(args.probs, "--probs")))

    report = Report("entropy")
    if uniform:
        report.add("omega", args.omega)
    report.add("n_outcomes", len(probs))
    report.add("shannon", shannon(probs))
    report.add("s_plus", s_plus(probs))
    report.add("s_minus", s_minus(probs))
    report.add("q", args.q)
    report.add("tsallis", tsallis(probs, args.q))
    report.add("renyi", renyi(probs, args.q))
    # One state has no equiprobable expansion (it needs omega >= 2).
    if uniform and args.omega >= 2:
        for name, expansion in (
            ("s_plus", s_plus_equiprob_expansion),
            ("s_minus", s_minus_equiprob_expansion),
        ):
            for nterms in (1, 2, 3):
                report.add(f"{name}_partial{nterms}", expansion(args.omega, nterms))
    return report


def _cmd_maxent(args: argparse.Namespace) -> Report:
    from .maxent import _root_lists, maxent_distribution

    if args.energies is not None:
        energies = _parse_floats(args.energies, "--energies")
        deformed = maxent_distribution(energies, args.beta, kind=args.kind)
        reference = maxent_distribution(energies, args.beta, kind="boltzmann")
        rows = [
            [i, energies[i], deformed[i], reference[i]]
            for i in range(len(energies))
        ]
        columns = ["level", "energy", f"p_{args.kind}", "p_boltzmann"]
        report = Report("maxent", columns=columns, rows=rows)
        report.add("beta", args.beta)
        report.add("kind", args.kind)
        report.add(
            "total_variation",
            0.5 * math.fsum(abs(a - b) for a, b in zip(deformed, reference)),
        )
        return report

    xs = _parse_grid(args.grid)
    solved = [*_root_lists(xs, 1), *_root_lists(xs, -1)]
    columns = ["x", "p_plus", "residual_plus", "p_minus", "residual_minus", "boltzmann"]
    rows = [[x, *row, math.exp(-x)] for x, *row in zip(xs, *solved)]
    report = Report("maxent", columns=columns, rows=rows)
    report.add("max_residual", max(solved[1] + solved[3]))  # of either kind
    return report


def _cmd_fit(args: argparse.Namespace) -> Report:
    from .maxent import (
        DEFAULT_FIT_GRID,
        REFERENCE_MINUS,
        REFERENCE_PLUS,
        fit_gen_exp,
        save_coeffs,
    )

    xs = _parse_grid(args.grid if args.grid is not None else DEFAULT_FIT_GRID)
    fit = fit_gen_exp(args.kind, args.order, xs)
    out_path = args.coeffs if args.coeffs is not None else f"ansatz-{args.kind}.txt"
    save_coeffs(fit, out_path)
    print(f"wrote coefficients to {out_path}", file=sys.stderr)

    reference = REFERENCE_PLUS if args.kind == "plus" else REFERENCE_MINUS
    rows = []
    for j, value in enumerate(fit.coeffs.a):
        ref = reference.a[j] if j <= reference.degree else None
        diff = value - ref if ref is not None else None
        rows.append([j, value, ref, diff])
    report = Report("fit", columns=["j", "fitted", "reference", "diff"], rows=rows)
    report.add("kind", args.kind)
    report.add("degree", args.order)
    report.add("residual_rms", fit.residual)
    report.add("grid", fit.grid)
    report.add("coeffs_file", out_path)
    return report


def _add_regime(report: Report, regime) -> None:
    """Add the regime and whichever of its two scales exists."""
    report.add("regime", regime.regime)
    if regime.minimal_length is not None:
        report.add("minimal_length", regime.minimal_length)
    if regime.max_momentum is not None:
        report.add("max_momentum", regime.max_momentum)


def _cmd_derive(args: argparse.Namespace) -> Report:
    from .ansatz import REFERENCE_MINUS, REFERENCE_PLUS, load_coeffs
    from .gup import GupParams, deformation_pipeline, regime_summary, tsallis_coeffs
    from .series import MAX_ORDER

    if args.coeffs is not None:
        coeffs = load_coeffs(args.coeffs).coeffs
        source = f"file:{args.coeffs}"
    elif args.q is not None:
        if args.order > MAX_ORDER:
            # Refused here, by the order given: tsallis_coeffs sees only half of it.
            raise ValueError(f"order must lie in [4, {MAX_ORDER}], got {args.order}")
        # Terms a_j H**j with 2j > order fall outside the truncation anyway.
        try:
            coeffs = tsallis_coeffs(args.q, order=max(2, args.order // 2))
        except ValueError:
            if not math.isfinite(args.q):
                raise
            # The only other refusal: a_j grows like |1-q|**j and overflows.
            raise ValueError(
                f"the q-exponential's series coefficients overflow for q = {args.q!r} "
                f"at --order {args.order}"
            ) from None
        source = "tsallis"
    elif args.kind == "plus":
        coeffs, source = REFERENCE_PLUS, "builtin:plus"
    else:
        coeffs, source = REFERENCE_MINUS, "builtin:minus"

    result = deformation_pipeline(coeffs, order=args.order)
    params = GupParams(result.alpha0_pipeline, args.mpl)

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
    _add_regime(report, regime_summary(params))
    if coeffs.kind == "tsallis":
        nominal = 1.0 - coeffs.q
        report.add("q", coeffs.q)
        report.add("alpha0_nominal", nominal)
        if nominal != 0.0:
            report.add("pipeline_to_nominal", result.alpha0_pipeline / nominal)
    return report


def _cmd_gup(args: argparse.Namespace) -> Report:
    from .gup import (
        GupParams,
        commutator_rhs,
        p_of_k,
        regime_summary,
        uncertainty_lower_bound,
    )

    if args.alpha0 is None:
        raise ValueError("gup requires --alpha0 (try: entrogup gup --alpha0 0.36)")
    params = GupParams(args.alpha0, args.mpl)
    ks = _parse_grid(args.grid)
    regime = regime_summary(params)

    rows = []
    for k in ks:
        if k <= 0.0:
            raise ValueError(f"wavenumbers must be positive, got {k!r}")
        p = p_of_k(params, k)
        # Past an argument of ~19.06, tanh(sqrt(|alpha|) k) rounds to 1 and p
        # lands on the cap, which uncertainty_lower_bound refuses: a limit of
        # double precision, not bad input.
        if regime.max_momentum is not None and p >= regime.max_momentum:
            raise NumericalError(
                f"p(k) rounds to the momentum cap 1/sqrt(|alpha|) = "
                f"{regime.max_momentum:g} in double precision at k = {k!r}"
            )
        rows.append(
            [k, p, commutator_rhs(params, p), uncertainty_lower_bound(params, p)]
        )
    report = Report("gup", columns=["k", "p", "commutator", "dx_bound"], rows=rows)
    report.add("alpha0", params.alpha0)
    report.add("m_pl", params.m_pl)
    report.add("alpha", params.alpha)
    _add_regime(report, regime)
    return report


# --------------------------------------------------------------------------
# parser


# Every flag of the CLI.  Defaults and choices are per subcommand, in
# _COMMANDS, and a "(default: ...)" in a help text is filled in from there.
_FLAGS: dict[str, dict[str, object]] = {
    "--format": dict(help="output format (default: %(default)s)"),
    "--tol": dict(type=float, help="relative quadrature tolerance"),
    "--order": dict(type=int, help="series order / fit degree"),
    "--grid": dict(help="evaluation grid 'start:stop:count'"),
    "--coeffs": dict(help="coefficient file (fit output, derive input)"),
    "--kind": dict(help="which statistics to use (default: %(default)s)"),
    "--q": dict(type=float, help="entropic index for q-statistics"),
    "--alpha0": dict(type=float, help="dimensionless deformation parameter"),
    "--mpl": dict(type=float, help="scale dividing alpha0 (default: %(default)g)"),
    "--p": dict(help="comma-separated variance parameters (default: %(default)s)"),
    "--omega": dict(type=int, help="equiprobable outcome count (default: %(default)s)"),
    "--probs": dict(help="comma-separated probabilities (overrides --omega)"),
    "--energies": dict(help="comma-separated level energies"),
    "--beta": dict(type=float, help="inverse temperature (default: %(default)g)"),
}

# Each subcommand: handler, help text, and its flags besides --format with
# their defaults.  A tuple lists the flag's choices, its default first.  A None
# default means "not given", which the handler reads as a choice rather than a
# value: derive's --q then leaves the kind to --kind, and fit's --grid is
# maxent.DEFAULT_FIT_GRID, read at run time so that boltzmann and entropy never
# load maxent.
_COMMANDS: dict[str, tuple] = {
    "boltzmann": (
        _cmd_boltzmann,
        "compare closed-form, quadrature, and expansion Boltzmann factors",
        {"--p": "0.2", "--grid": "0:5:11", "--tol": 1e-8, "--order": 2},
    ),
    "entropy": (
        _cmd_entropy,
        "entropy family of a distribution",
        {"--omega": 4, "--probs": None, "--q": 2.0},
    ),
    "maxent": (
        _cmd_maxent,
        "implicit maximum-entropy solutions or a discrete distribution",
        {"--energies": None, "--beta": 1.0, "--kind": ("plus", "minus"),
         "--grid": "0:3:31"},
    ),
    "fit": (
        _cmd_fit,
        "fit generalized-exponential coefficients to the implicit solution",
        {"--kind": ("plus", "minus"), "--order": 4, "--grid": None, "--coeffs": None},
    ),
    "derive": (
        _cmd_derive,
        "deformation parameter from coefficients (file, --q, or built-in)",
        {"--coeffs": None, "--kind": ("plus", "minus"), "--q": None,
         "--order": 8, "--mpl": 1.0},
    ),
    "gup": (
        _cmd_gup,
        "evaluate the deformed uncertainty relation",
        {"--alpha0": None, "--mpl": 1.0, "--grid": "0.1:1:10"},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrogup",
        description="Entropy-driven momentum-space deformation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, defaults) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        # The formats are the renderers', text first.
        for flag, default in {"--format": tuple(_RENDERERS), **defaults}.items():
            choices = default if isinstance(default, tuple) else None
            default = choices[0] if choices else default
            command.add_argument(flag, default=default, choices=choices, **_FLAGS[flag])
        command.set_defaults(handler=handler)
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Join a ``-``-led value to the flag before it: ``--alpha0=-5e-1``.

    argparse reads a ``-``-led token as an option unless it looks like ``-5``
    or ``-.5``, so ``--alpha0 -5e-1``, ``--alpha0 -inf`` or ``--grid -1:2:3``
    would leave the flag without its value.  Every flag of a subcommand takes
    a value and starts with ``--``, so a single-dash token after one, other
    than ``-h``, can only be its value.  ``--``-led tokens stay options, so a
    flag followed by another flag still gets argparse's own error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return argv
    flags = {"--format", *_COMMANDS[argv[0]][2]}
    out = argv[:1]
    for token in argv[1:]:
        if out[-1] in flags and token[:1] == "-" and token[:2] != "--" and token != "-h":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        report = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(_RENDERERS[args.format](report))
    return 0


def main_entry() -> None:
    sys.exit(main())
