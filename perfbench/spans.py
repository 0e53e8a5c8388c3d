"""Span tracing of entrogup's modules, installed from outside the package.

``Tracer.install`` replaces the public functions of each module (and the
methods of the value classes that carry a layer's work) with wrappers that
record a span: id, parent id, request id, name, start, end, whether it
returned, and an optional observed value.  Every binding of a wrapped function
is replaced, so names that ``cli``, ``gup`` and ``superstats`` imported from
``maxent``, ``series`` and scipy (``superstats.quad``) are traced too.  Spans
stay in memory; ``dump`` writes them once.

``layer_metrics`` turns spans into per-layer numbers.  A span's self time is
its duration minus its children's durations; each span name belongs to
exactly one group, so the groups' self times plus the time outside every span
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> group.  The groups are the per-layer metric prefixes.
GROUPS: dict[str, str] = {
    "cli.main": "cli",
    "maxent.solve_p_plus": "maxent.solve",
    "maxent.solve_p_minus": "maxent.solve",
    "maxent.fit_gen_exp": "maxent.fit",
    "maxent.gen_exp_eval": "maxent.fit",
    "maxent.maxent_distribution": "maxent.distribution",
    "maxent.save_coeffs": "maxent.coeffs_io",
    "maxent.load_coeffs": "maxent.coeffs_io",
    "gup.effective_hamiltonian_series": "gup.pipeline",
    "gup.effective_momentum_series": "gup.pipeline",
    "gup.normalize_momentum": "gup.pipeline",
    "gup.deformation_closed": "gup.pipeline",
    "gup.deformation_pipeline": "gup.pipeline",
    "gup.tsallis_coeffs": "gup.pipeline",
    "gup.p_of_k": "gup.phenom",
    "gup.k_of_p": "gup.phenom",
    "gup.commutator_rhs": "gup.phenom",
    "gup.uncertainty_lower_bound": "gup.phenom",
    "gup.regime_summary": "gup.phenom",
    "superstats.boltzmann_quadrature": "superstats.quad",
    "superstats.quad": "superstats.quad",  # scipy.integrate.quad as bound there
    "superstats.boltzmann_closed": "superstats.closed",
    "superstats.gamma_pdf": "superstats.closed",
    "superstats.boltzmann_series": "superstats.series",
}
for _name in ("mul", "ln_one_plus", "exp_series", "sqrt_series", "compose",
              "tan_series", "arctan_series"):
    GROUPS[f"series.{_name}"] = "series"
for _name in ("__post_init__", "constant", "variable", "truncated", "__add__",
              "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
    GROUPS[f"series.TruncatedSeries.{_name}"] = "series"
for _name in ("shannon", "s_plus", "s_minus", "log_plus", "log_minus", "tsallis",
              "renyi", "s_plus_equiprob_expansion", "s_minus_equiprob_expansion",
              "ProbVector.__post_init__", "ProbVector.uniform"):
    GROUPS[f"entropy.{_name}"] = "entropy"

SELF_GROUPS = sorted(set(GROUPS.values()))

# Value observed on return, per span name.
_OBSERVE = {
    "maxent.solve_p_plus": lambda sol: sol.residual,
    "maxent.solve_p_minus": lambda sol: sol.residual,
}

# Span tuple fields.
SID, PARENT, REQ, NAME, T0, T1, OK, VALUE = range(8)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, observe = self.spans, self._stack, _OBSERVE.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            ok, value = False, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if ok and observe is not None:
                    value = observe(result)
                spans.append((sid, parent, self.request, name, t0, t1, ok, value))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and class method of the loaded package."""
        wrappers: dict[int, object] = {}
        for name in GROUPS:
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"entrogup.{module_name}")
            owner_name, dot, method = attr.partition(".")
            if dot:
                owner = getattr(module, owner_name)
                raw = vars(owner)[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._patch(owner, method, raw, new)
            else:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entrogup"]:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, value, hit[1])

    def _patch(self, owner, key: str, old, new) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()


def dump(path: Path, spans: list[tuple], **extra) -> None:
    """Write spans (and ``extra`` keys) as one JSON object."""
    fields = ["id", "parent", "request", "name", "t0_ns", "t1_ns", "ok", "value"]
    path.write_text(json.dumps({"fields": fields, "spans": spans, **extra}), encoding="utf-8")


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time in ns of every span: its duration minus its children's."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        child_ns[s[PARENT]] += s[T1] - s[T0]
    return {s[SID]: s[T1] - s[T0] - child_ns[s[SID]] for s in spans}


def layer_metrics(spans: list[tuple], n_ops: int) -> dict[str, float]:
    """Per-layer self times (ms/op), call counts (calls/op) and layer counters.

    ``calls`` counts entries into a group from outside it, so a helper that a
    layer calls on itself does not inflate its call count.
    """
    self_ns = self_times(spans)
    group_of = {s[SID]: GROUPS[s[NAME]] for s in spans}
    group_ns: dict[str, int] = defaultdict(int)
    entries: dict[str, int] = defaultdict(int)
    names: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    max_residual = 0.0
    solve_ns = 0
    for s in spans:
        group = group_of[s[SID]]
        group_ns[group] += self_ns[s[SID]]
        if group_of.get(s[PARENT]) != group:
            entries[group] += 1
        names[s[NAME]] += 1
        if not s[OK]:
            failed[s[NAME]] += 1
        if s[VALUE] is not None:
            max_residual = max(max_residual, s[VALUE])
        if group == "maxent.solve":
            solve_ns += s[T1] - s[T0]
    ops = max(n_ops, 1)

    def per_op(count: float) -> float:
        return count / ops

    solves = names["maxent.solve_p_plus"] + names["maxent.solve_p_minus"]
    points = names["superstats.boltzmann_quadrature"]
    scipy_calls = names["superstats.quad"]
    out = {f"{g}.self_ms": per_op(group_ns[g] / 1e6) for g in SELF_GROUPS}
    out.update({
        "maxent.solve.calls": per_op(solves),
        "maxent.solve.us_per_call": solve_ns / 1e3 / solves if solves else 0.0,
        "maxent.solve.failed": per_op(
            failed["maxent.solve_p_plus"] + failed["maxent.solve_p_minus"]),
        "maxent.solve.max_residual": max_residual,
        "maxent.fit.calls": per_op(entries["maxent.fit"]),
        "maxent.distribution.calls": per_op(entries["maxent.distribution"]),
        "series.calls": per_op(entries["series"]),
        "gup.pipeline.calls": per_op(entries["gup.pipeline"]),
        "gup.phenom.calls": per_op(entries["gup.phenom"]),
        "superstats.quad.points": per_op(points),
        "superstats.quad.scipy_calls": per_op(scipy_calls),
        "superstats.quad.calls_per_point": scipy_calls / points if points else 0.0,
        "superstats.quad.failed": per_op(failed["superstats.boltzmann_quadrature"]),
        "entropy.calls": per_op(entries["entropy"]),
        "cli.main_ms": per_op(sum(s[T1] - s[T0] for s in spans
                                  if s[NAME] == "cli.main") / 1e6),
    })
    return out


def attributed_ms(spans: list[tuple]) -> float:
    """Total self time of all spans, in ms (equals the root spans' durations)."""
    return sum(s[T1] - s[T0] for s in spans if s[PARENT] == 0) / 1e6


# ---------------------------------------------------------------------------
# python -X importtime


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split the import of entrogup into scipy, numpy and everything else.

    Each module's self time goes to the nearest module at or above it in the
    import tree whose name is scipy* or numpy*; the rest of the entrogup
    subtree is ``entrogup_self`` (its own modules and the stdlib they pull
    in).  The three parts add up to ``total``.
    """
    pending: dict[int, list] = defaultdict(list)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name_field = fields[2][1:]
        level = (len(name_field) - len(name_field.lstrip(" "))) // 2
        node = (name_field.strip(), int(fields[0]), pending.pop(level + 1, []))
        pending[level].append(node)
    totals = {"scipy": 0, "numpy": 0, "entrogup": 0}

    def visit(node, bucket):
        name, self_us, children = node
        top = name.split(".")[0]
        bucket = top if top in ("scipy", "numpy") else bucket
        totals[bucket] += self_us
        for child in children:
            visit(child, bucket)

    for root in pending.get(0, []):
        if root[0].split(".")[0] == "entrogup":
            visit(root, "entrogup")
    ms = {k: v / 1e3 for k, v in totals.items()}
    return {
        "import.total_ms": sum(ms.values()),
        "import.scipy_ms": ms["scipy"],
        "import.numpy_ms": ms["numpy"],
        "import.entrogup_self_ms": ms["entrogup"],
    }


def median_dicts(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
