"""entrogup benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold (one ``python -m entrogup`` subprocess per operation),
fit-derive, spectrum and quad-scan (in-process calls); see workloads.py and
meta.json.  Every operation's output is checked; a failed check, an exception
or a non-zero exit counts the operation as failed.  On spectrum, the
program's own NumericalError for a spectrum past the solver's bracket floor
counts as refused: not failed, but not served either (it lowers ok_frac and
levels_per_s).

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json, timings in units of the workload's machine-speed reference
("ref", see workloads.py).  The line before it gives the same run in raw
units under the workload's own metric names (cli_p50_ms, levels_per_s, ...),
with the sample count and the tail percentile.  With ``--trace 1`` the run
measures half the time untraced, replays the same operations with span
tracing (spans.py) and reports the per-layer metrics, and the line before
the last gives each layer's share of the traced time.  Processes started
here get one BLAS thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_RUNS = 7
# The traced replay stops at the first operation boundary past this many
# spans, which keeps the in-memory spans (and the file they go to) small.
SPAN_BUDGET = 200_000
# The tail stops at p90: on the shared host p99 follows scheduler bursts
# (its run-to-run spread reached 0.67 of the median on fit-derive).
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
# Operations run in windows of WINDOW_S, and the workload's machine-speed
# reference (see workloads.py) is sampled about every REF_EVERY_S.
WINDOW_S = 0.1
REF_EVERY_S = 0.02


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import(importtime: bool) -> tuple[float, str]:
    """Wall time of a new interpreter that imports entrogup, and its stderr."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import entrogup"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return time.perf_counter() - t0, proc.stderr


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest reported percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


class Records:
    """Per-operation seconds, check status, work done, reference seconds and
    stratification block, in compact columns so that long runs add little to
    the peak RSS."""

    STATUS = ("ok", "refused", "wrong")

    def __init__(self) -> None:
        self.seconds, self.work, self.ref = array("d"), array("d"), array("d")
        self.status, self.block = array("b"), array("q")

    def __len__(self) -> int:
        return len(self.seconds)

    def __add__(self, other: Records) -> Records:
        out = Records()
        for name in ("seconds", "work", "ref", "status", "block"):
            getattr(out, name).extend(getattr(self, name) + getattr(other, name))
        return out

    def count(self, status: str) -> int:
        return self.status.count(self.STATUS.index(status))


def measure(workload, seconds: float, min_ops: int, perturb: bool,
            count: int | None = None, tracer=None) -> Records:
    """Closed loop: run operations until ``seconds`` pass (and ``min_ops`` ran),
    or, given ``count``, that many of them or as many as fit in the span
    budget.

    Operations run in windows of WINDOW_S with the garbage collector off, as
    in ``timeit``.  The workload's reference is sampled after an operation
    once REF_EVERY_S has passed since the last sample, and at the end of each
    window; a window's operations get the median of its samples and of the
    sample that closed the window before.
    """
    records = Records()
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if count is not None:
            return len(records) < count and len(tracer.spans) < SPAN_BUDGET
        return len(records) < min_ops or time.perf_counter() < deadline

    refs = [workload.reference()]
    last_ref = time.perf_counter()
    i = 0
    while more():
        first = len(records)
        refs = refs[-1:]
        sampled = False
        gc.disable()
        window_end = time.perf_counter() + WINDOW_S
        while more() and (len(records) == first or time.perf_counter() < window_end):
            spec = workload.spec(i)
            if tracer is not None:
                tracer.request = i
            out, exc = None, None
            t0 = time.perf_counter()
            try:
                out = workload.run(spec)
            except Exception as err:  # counted as a failed operation
                exc = err
            elapsed = time.perf_counter() - t0
            if perturb and exc is None:
                out = workload.perturb(out)
            status = workload.check(spec, out, exc)
            records.seconds.append(elapsed)
            records.status.append(Records.STATUS.index(status))
            records.work.append(workload.work(spec) if status == "ok" else 0.0)
            records.block.append(workload.block(i))
            i += 1
            sampled = time.perf_counter() - last_ref >= REF_EVERY_S
            if sampled:
                refs.append(workload.reference())
                last_ref = time.perf_counter()
        if not sampled:
            refs.append(workload.reference())
            last_ref = time.perf_counter()
        gc.enable()
        records.ref.extend([statistics.median(refs)] * (len(records) - first))
    return records


def block_throughput(records: Records) -> float:
    """Work per ref, the median over the run's complete stratification blocks
    (each holds the workload's full mix of input sizes once), so that a burst
    of host load moves one block and not the whole figure; over the whole run
    when no block is complete."""
    blocks: dict[int, list[float]] = {}
    for block, work, seconds, ref in zip(records.block, records.work, records.seconds,
                                         records.ref):
        acc = blocks.setdefault(block, [0.0, 0.0])
        acc[0] += work
        acc[1] += seconds / ref
    complete = list(blocks.values())[:-1] or list(blocks.values())
    return statistics.median(work / rel for work, rel in complete)


def summarize(records: Records) -> dict:
    times_ms = [t * 1e3 for t in records.seconds]
    rel = [t / r for t, r in zip(records.seconds, records.ref)]
    pct = tail_percentile(len(records))
    work = sum(records.work)
    return {
        "n": len(records),
        "failed": records.count("wrong"),
        "refused": records.count("refused"),
        "tail_pct": pct,
        "p50_ms": statistics.median(times_ms),
        "tail_ms": percentile(times_ms, pct),
        "throughput": work / sum(records.seconds),
        "p50_rel": statistics.median(rel),
        "tail_rel": percentile(rel, pct),
        "throughput_rel": block_throughput(records),
        "ref_ms": statistics.median(records.ref) * 1e3,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seconds: float, perturb: bool):
    """Untraced run: the BENCHMARK.json end-to-end metrics, and the same
    numbers under the workload's own metric names."""
    import entrogup as eg
    import probes

    fresh_import(False)  # warm the bytecode and page caches
    setup = statistics.median(fresh_import(False)[0] for _ in range(SETUP_RUNS))
    measure(workload, 0.0, 1, False)  # warm-up
    records = measure(workload, seconds, 1, perturb)
    stats = summarize(records)
    rss = peak_rss_mb(workload.name != "cli-cold")
    accuracy = probes.accuracy_probes(eg)
    ok_frac = records.count("ok") / stats["n"]
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "alpha0_gap_plus": accuracy["alpha0_gap_plus"],
        "alpha0_gap_minus": accuracy["alpha0_gap_minus"],
        "op_p50_rel": stats["p50_rel"],
        "op_tail_rel": stats["tail_rel"],
        "throughput_rel": stats["throughput_rel"],
        "ok_frac": ok_frac,
        "root_err_digits": probes.digits(accuracy["root_max_rel_err"]),
        "quad_err_digits": probes.digits(accuracy["quad_max_rel_err"]),
    }
    labels = workload.labels
    named = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_frac": (stats["failed"] / stats["n"], "1"),
        "refused_frac": (stats["refused"] / stats["n"], "1"),
        labels["p50"]: (stats["p50_ms"], "ms"),
        labels["tail"]: (stats["tail_ms"], "ms"),
        labels["throughput"]: (stats["throughput"], "1/s"),
        **{k: (v, "1") for k, v in accuracy.items()},
        "ref_ms": (stats["ref_ms"], "ms"),
    }
    detail = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": stats["n"],
        "refused": stats["refused"],
        "tail_percentile": stats["tail_pct"],
    }
    return stats, metrics, detail


def traced(workload, seconds: float, perturb: bool):
    """Traced run: half the time untraced, then the same operations traced;
    the per-layer metrics, and each layer's share of the traced wall time."""
    import spans
    from workloads import CliCold

    imports = spans.median_dicts(
        [spans.parse_importtime(fresh_import(True)[1]) for _ in range(SETUP_RUNS)])
    cli = workload.name == "cli-cold"
    measure(workload, 0.0, 1, False)  # warm-up
    plain = measure(workload, seconds / 2.0, len(CliCold.COMMANDS) if cli else 1, perturb)
    tracer = spans.Tracer()
    if cli:
        workload.traced = True
    else:
        tracer.install()
    try:
        replay = measure(workload, 0.0, 0, perturb, count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(replay)
    wall_ms = sum(replay.seconds) * 1e3
    plain_ms = sum(plain.seconds[:n]) * 1e3
    cmd_wall = {f"cli.{c}.wall_ms": 0.0 for c in CliCold.COMMANDS}
    if cli:
        # Each call numbers its spans from 1; shift them apart before merging.
        all_spans, import_ms, unattributed = [], 0.0, 0.0
        for call in workload.calls:
            offset = len(all_spans)
            shifted = [(s[0] + offset, s[1] + offset if s[1] else 0, *s[2:])
                       for s in call["spans"]]
            all_spans += shifted
            import_ms += call["imports"]["import.total_ms"]
            unattributed += (call["wall_ms"] - call["imports"]["import.total_ms"]
                             - spans.attributed_ms(shifted))
        per_cmd: dict[str, list[float]] = {}
        for i, elapsed in enumerate(plain.seconds):
            per_cmd.setdefault(workload.spec(i)["cmd"], []).append(elapsed * 1e3)
        cmd_wall = {f"cli.{c}.wall_ms": statistics.median(v) for c, v in per_cmd.items()}
    else:
        all_spans, import_ms = tracer.spans, 0.0
        unattributed = wall_ms - spans.attributed_ms(all_spans)
    spans.dump(WORK / f"spans-{workload.name}.json", all_spans, workload=workload.name)
    values = {
        **imports,
        **cmd_wall,
        **spans.layer_metrics(all_spans, n),
        "trace.overhead_frac": wall_ms / plain_ms - 1.0,
        "trace.unattributed_ms": unattributed / n,
        "trace.wall_ms": wall_ms / n,
    }
    shares = {g: values[f"{g}.self_ms"] * n / wall_ms for g in spans.SELF_GROUPS}
    shares["import"] = import_ms / wall_ms
    shares["unattributed"] = unattributed / wall_ms
    detail = {"samples": n, "traced_shares": shares}
    return summarize(plain + replay), values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="alter every result before its check (self-test of the checks)")
    args = parser.parse_args(argv)
    if not (SRC / "entrogup" / "__init__.py").is_file():
        print(f"error: no entrogup sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy loads, for this process too
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli-cold":
            workload = workloads.CliCold(args.seed, work_dir, child_env())
        else:
            workload = workloads.IN_PROCESS[args.workload](args.seed)
        run = traced if args.trace else end_to_end
        stats, values, detail = run(workload, args.seconds, args.perturb)
    finally:
        shutil.rmtree(work_dir)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **detail}))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["n"],
        "failed": stats["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
