"""The four workloads: seeded inputs, one operation, and its correctness check.

Inputs come from ``--seed`` only.  Operation ``i`` draws from its own
generator ``default_rng([seed, i])``, and the properties that set an
operation's cost are stratified over blocks of operations (each block a
seeded permutation of fixed strata), so every run sees the same mix of sizes
while the inputs themselves differ from seed to seed.

``check`` returns ``"ok"``, ``"refused"`` (the program raised its
NumericalError for an input past the solver's x ~ 37 bracket floor: not a
wrong answer and not a failed operation, but not served either) or
``"wrong"`` (a failed operation).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import entrogup as eg
import entrogup.cli
import probes
import spans

# x = beta*E from which both solvers raise today (they still solve 36.0).
FLOOR_X = 36.5


# Machine-speed references.  On a shared host the CPU speed one process gets
# drifts by up to ~2x within seconds to minutes, so end-to-end timings are
# reported as multiples of a fixed reference sampled alongside the operations
# ("ref"), which entrogup cannot change.  The in-process workloads use a loop
# of their own kind of work (interpreter, libm, small numpy); cli-cold uses a
# cold ``python -c "import numpy"``.
_REF_X = [0.001 * i for i in range(1, 400)]
_REF_A = np.linspace(0.0, 1.0, 9)


def loop_reference() -> float:
    """Time of a fixed loop of interpreter, libm and small-numpy work (the
    in-process workloads' reference, ~0.1-0.25 ms), in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for x in _REF_X:
        acc += math.exp(-x) * math.log1p(x) + x**0.5
    for _ in range(40):
        acc += float(np.convolve(_REF_A, _REF_A)[3])
    return time.perf_counter() - t0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _stratum(seed: int, i: int, size: int, salt: int) -> int:
    """Stratum of operation ``i``: a seeded permutation of 0..size-1 per block."""
    return int(_rng(seed, i // size, salt, size).permutation(size)[i % size])


class FitDerive:
    """One paper chain: fit -> series pipeline -> regime -> phenomenology."""

    name = "fit-derive"
    labels = {"p50": "chain_p50_ms", "tail": "chain_tail_ms", "throughput": "chains_per_s"}
    # Widest window per degree at which the least-squares fit keeps the
    # small-x sign of alpha0 (the minus kind flips past ~0.9 at degree 2 and
    # ~1.7 at degree 3; see the DEFAULT_FIT_GRID note in maxent.py).
    WINDOW_CAP = {2: 0.7, 3: 1.5, 4: 3.0, 5: 3.0, 6: 3.0}

    reference = staticmethod(loop_reference)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def spec(self, i: int) -> dict:
        if i < 2:  # the default-window chain for both kinds opens every run
            kind = ("plus", "minus")[i]
            return dict(kind=kind, s=1.0, n=301, degree=4, order=8, nk=50, kmax=1.0)
        j = i - 2
        rng = _rng(self.seed, i)
        k = _stratum(self.seed, j, 10, 1)
        degree = 2 + k // 2
        cap = self.WINDOW_CAP[degree]
        return dict(
            kind=("plus", "minus")[k % 2],
            s=float(0.5 + (cap - 0.5) * rng.random()),
            n=101 + 90 * _stratum(self.seed, j, 10, 2) + int(rng.integers(0, 91)),
            degree=degree,
            order=8 + 2 * (_stratum(self.seed, j, 5, 3)),
            nk=int(rng.integers(20, 101)),
            kmax=float(rng.uniform(0.5, 1.5)),
        )

    def run(self, spec: dict):
        fit = eg.fit_gen_exp(spec["kind"], spec["degree"],
                             np.linspace(0.0, spec["s"], spec["n"]))
        report = eg.deformation_pipeline(fit.coeffs, order=spec["order"])
        params = eg.GupParams(report.alpha0_pipeline)
        eg.regime_summary(params)
        acc = 0.0
        for k in np.linspace(0.05, spec["kmax"], spec["nk"]):
            p = eg.p_of_k(params, float(k))
            acc += eg.commutator_rhs(params, p) + eg.uncertainty_lower_bound(params, p)
        return fit.coeffs.a, report.alpha0_pipeline, acc

    @staticmethod
    def perturb(out):
        a, alpha0, acc = out
        return a, alpha0 * (1.0 + 1e-6), acc

    def check(self, spec: dict, out, exc) -> str:
        if exc is not None:
            return "wrong"
        a, alpha0, acc = out
        closed = probes.alpha0_closed(a[1], a[2])
        sign_ok = alpha0 < 0.0 if spec["kind"] == "plus" else alpha0 > 0.0
        return "ok" if abs(alpha0 - closed) <= 1e-9 and sign_ok and math.isfinite(acc) else "wrong"

    def work(self, spec: dict) -> float:
        return 1.0

    @staticmethod
    def block(i: int) -> int:
        """Stratification block of operation ``i`` (the default chains: -1)."""
        return (i - 2) // 10 if i >= 2 else -1


class Spectrum:
    """One deformed distribution over a seeded level spectrum, its Boltzmann
    comparator, and three entropies of the result."""

    name = "spectrum"
    labels = {"p50": "spectrum_p50_ms", "tail": "spectrum_tail_ms", "throughput": "levels_per_s"}
    FLOOR_SHARE = 10  # one spectrum in every 10 reaches past the bracket floor

    reference = staticmethod(loop_reference)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def spec(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        n = 500 + 350 * _stratum(self.seed, i, 10, 1) + int(rng.integers(0, 351))
        past_floor = _stratum(self.seed, i, self.FLOOR_SHARE, 2) == 0
        emax = float(rng.uniform(40.0, 60.0) if past_floor else rng.uniform(3.0, 30.0))
        energies = [0.0, *np.sort(rng.uniform(0.0, emax, n - 1)).tolist()]
        return dict(kind=("plus", "minus")[i % 2], energies=energies,
                    check_levels=rng.integers(1, n, 2).tolist())

    def run(self, spec: dict):
        dist = eg.maxent_distribution(spec["energies"], 1.0, kind=spec["kind"])
        eg.maxent_distribution(spec["energies"], 1.0, kind="boltzmann")
        return dist.probs, (eg.shannon(dist), eg.s_plus(dist), eg.s_minus(dist))

    @staticmethod
    def perturb(out):
        probs, entropies = out
        return (probs[0] * (1.0 - 1e-6), *probs[1:]), entropies

    def check(self, spec: dict, out, exc) -> str:
        energies = spec["energies"]
        if exc is not None:
            past = isinstance(exc, eg.NumericalError) and energies[-1] >= FLOOR_X
            return "refused" if past else "wrong"
        probs, entropies = out
        if abs(math.fsum(probs) - 1.0) > 1e-12 or not all(map(math.isfinite, entropies)):
            return "wrong"
        if any(b > a for a, b in zip(probs, probs[1:])):
            return "wrong"
        # Level 0 sits at E = 0 where the weight is exactly 1, so p_l / p_0 is
        # the unnormalized root at x = E_l.
        for level in spec["check_levels"]:
            if not probes.root_matches(spec["kind"], energies[level], probs[level] / probs[0]):
                return "wrong"
        return "ok"

    def work(self, spec: dict) -> float:
        return float(len(spec["energies"]))

    @staticmethod
    def block(i: int) -> int:
        return i // 10


class QuadScan:
    """One Boltzmann cross-check point: closed form, quadrature and series."""

    name = "quad-scan"
    labels = {"p50": "quad_p50_ms", "tail": "quad_tail_ms", "throughput": "quad_points_per_s"}
    TOLS = (1e-6, 1e-8, 1e-10)
    LOG_P_MIN = math.log(0.02)

    reference = staticmethod(loop_reference)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def spec(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        k = _stratum(self.seed, i, 30, 1)
        u = (k // 3 + rng.random()) / 10.0
        energy = 20.0 * (_stratum(self.seed, i, 30, 2) + rng.random()) / 30.0
        return dict(p=math.exp(self.LOG_P_MIN * (1.0 - u)), energy=energy,
                    tol=self.TOLS[k % 3])

    def run(self, spec: dict):
        params = eg.GammaBetaParams(spec["p"], 1.0)
        return (eg.boltzmann_closed(params, spec["energy"]),
                eg.boltzmann_quadrature(params, spec["energy"], tol=spec["tol"]),
                eg.boltzmann_series(params, spec["energy"], order=2))

    @staticmethod
    def perturb(out):
        closed, quad, series = out
        return closed, quad * (1.0 + 1e-3), series

    def check(self, spec: dict, out, exc) -> str:
        if exc is not None:
            return "wrong"
        closed, quad, series = out
        reference = probes.boltzmann_closed(spec["p"], spec["energy"])
        # The program's own agreement threshold (cli boltzmann exits 3 past it).
        threshold = max(1e-7, 10.0 * spec["tol"])
        ok = (abs(closed - reference) <= 1e-14 * reference
              and abs(quad - closed) <= threshold * closed
              and math.isfinite(series))
        return "ok" if ok else "wrong"

    def work(self, spec: dict) -> float:
        return 1.0

    @staticmethod
    def block(i: int) -> int:
        return i // 30


class CliCold:
    """One ``python -m entrogup <cmd>`` subprocess; the six commands in turn."""

    name = "cli-cold"
    labels = {"p50": "cli_p50_ms", "tail": "cli_tail_ms", "throughput": "calls_per_s"}
    COMMANDS = ("boltzmann", "entropy", "maxent", "fit", "derive", "gup")
    FORMATS = ("text", "csv", "json")

    def __init__(self, seed: int, work_dir: Path, env: dict) -> None:
        self.seed = seed
        self.coeffs = str(work_dir / "coeffs.txt")
        self.driver = str(Path(__file__).with_name("cli_driver.py"))
        self.work_dir = work_dir
        self.env = env
        self.traced = False
        self.calls: list[dict] = []  # traced calls: wall, import breakdown, spans

    def spec(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        fmt = self.FORMATS[_stratum(self.seed, i, 3, 1)]
        kind = ("plus", "minus")[int(rng.integers(0, 2))]
        if cmd == "boltzmann":
            ps = ",".join(f"{v:.3g}" for v in rng.uniform(0.05, 1.0, int(rng.integers(1, 3))))
            args = ["--p", ps, "--grid", f"0:{rng.uniform(2, 20):.3g}:{rng.integers(5, 22)}",
                    "--tol", str(rng.choice(["1e-6", "1e-8"])),
                    "--order", str(rng.integers(0, 3))]
        elif cmd == "entropy":
            if rng.random() < 0.5:
                args = ["--omega", str(rng.integers(2, 65))]
            else:
                weights = rng.integers(1, 20, int(rng.integers(2, 9)))
                args = ["--probs", ",".join(repr(float(w / weights.sum())) for w in weights)]
            args += ["--q", f"{rng.uniform(1.1, 3.0):.3g}"]
        elif cmd == "maxent":
            if rng.random() < 0.5:
                args = ["--grid", f"0:{rng.uniform(1, 10):.3g}:{rng.integers(11, 42)}"]
            else:
                energies = np.sort(rng.uniform(0.0, 8.0, int(rng.integers(3, 13))))
                args = ["--energies", ",".join(f"{e:.4g}" for e in energies),
                        "--beta", f"{rng.uniform(0.5, 3.0):.3g}"]
            args += ["--kind", kind]
        elif cmd == "fit":
            degree = int(rng.integers(2, 7))
            cap = FitDerive.WINDOW_CAP[degree]
            args = ["--kind", kind, "--order", str(degree), "--coeffs", self.coeffs,
                    "--grid", f"0:{rng.uniform(0.5, cap):.3g}:{rng.integers(31, 102)}"]
        elif cmd == "derive":
            args = ["--coeffs", self.coeffs, "--order", str(2 * rng.integers(4, 9)),
                    "--mpl", f"{rng.uniform(0.5, 2.0):.3g}"]
        else:
            alpha0 = rng.uniform(0.05, 0.5) * (1 if rng.random() < 0.5 else -1)
            args = ["--alpha0", f"{alpha0:.4g}",
                    "--grid", f"0.1:{rng.uniform(0.5, 2.0):.3g}:{rng.integers(5, 31)}"]
        return dict(cmd=cmd, argv=[cmd, *args, "--format", fmt])

    def reference(self) -> float:
        """Wall time of a fresh ``python -c "import numpy"``, in seconds: a
        cold start of the same kind as the calls, which entrogup cannot change."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env,
                       capture_output=True, timeout=120, check=True)
        return time.perf_counter() - t0

    def run(self, spec: dict):
        argv = spec["argv"]
        if not self.traced:
            proc = subprocess.run([sys.executable, "-m", "entrogup", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout
        span_file = self.work_dir / "call-spans.json"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", self.driver, str(span_file), "--", *argv],
            env=self.env, capture_output=True, text=True, timeout=120)
        wall_ms = (time.perf_counter() - t0) * 1e3
        data = json.loads(span_file.read_text(encoding="utf-8"))
        self.calls.append(dict(wall_ms=wall_ms, imports=spans.parse_importtime(proc.stderr),
                               spans=[tuple(s) for s in data["spans"]]))
        return proc.returncode, proc.stdout

    @staticmethod
    def perturb(out):
        code, stdout = out
        pos = next(i for i, ch in enumerate(stdout) if ch.isdigit())
        return code, stdout[:pos] + str((int(stdout[pos]) + 1) % 10) + stdout[pos + 1:]

    def check(self, spec: dict, out, exc) -> str:
        if exc is not None:
            return "wrong"
        code, stdout = out
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            expected_code = eg.cli.main(spec["argv"])
        expected = buffer.getvalue()
        if code != 0 or expected_code != 0 or stdout != expected:
            return "wrong"
        if spec["argv"][-1] == "json":
            try:
                json.loads(stdout)
            except ValueError:
                return "wrong"
        return "ok"

    def work(self, spec: dict) -> float:
        return 1.0

    def block(self, i: int) -> int:
        return i // len(self.COMMANDS)


IN_PROCESS = {w.name: w for w in (FitDerive, Spectrum, QuadScan)}
NAMES = (CliCold.name, *IN_PROCESS)
