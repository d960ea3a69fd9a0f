#!/usr/bin/env python3
"""betahmm benchmark: three workloads timed on the user path, plus a traced run.

One workload, as the metrics contract in BENCHMARK.json expects:

    python3 perfbench/run.py --workload genome-ftd --seed 0 --seconds 30 --trace 0

``--trace 0`` generates the inputs in child processes (set-up), then repeats
cycles of ``betahmm`` child processes until ``--seconds`` would be exceeded,
checks every output, and prints the end-to-end metrics. The benchmark and its
children share one pinned CPU, whose speed a probe thread samples (speed.py),
so the gated times are each child's CPU time scaled to a reference speed.
``--trace 1`` instead runs the same cycle in this process, once untraced and
once with every public betahmm function wrapped in a span, and prints the
per-layer metrics. Either way the last line of standard output is one JSON
object, and a fuller record (every metric, samples, provenance) goes to
perfbench/out/.

Every workload, every end-to-end metric with unit and direction, and the
traced layers, written to perfbench/out/report.json:

    python3 perfbench/run.py --all [--seed N] [--repeat R] [--seconds S]

``--repeat R`` runs each workload R times on the same seed and prints median,
quartiles and relative IQR per metric; ``--all --seed 1 --sweep-seed 1`` is
the held-out seed check. See perfbench/README.md for what each workload and metric means.
"""

import os

# Fixed before numpy loads, here and in every child: the last bits of a fit
# change with the OpenBLAS thread count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import SpanView, Tracer  # noqa: E402
from speed import SpeedProbe, pin_to_one_cpu  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3  # set-up repeats per run; set-up time is their median
STARTUPS = 3  # bare `import betahmm.cli` processes per traced run
HARD_LIMIT_S = 170.0  # a run must end within 180 s

# every metric the benchmark computes: name -> (unit, better); README.md defines each
METRICS = {
    "setup_s": ("s", "lower"),
    "cycle_ref_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "fit_ref_s": ("s", "lower"),
    "eval_ref_s": ("s", "lower"),
    "sweep_ref_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ftd_err": ("abs.prob.", "lower"),
    "em_err": ("abs.prob.", "lower"),
    "heldout_ll": ("nats/position", "higher"),
    "failed_frac": ("ratio", "lower"),
    "cli.startup_s": ("s", "lower"),
    "io.input_bytes": ("B", "lower"),
    "io.load_s": ("s", "lower"),
    "io.rows_per_s": ("1/s", "higher"),
    "features.map_s": ("s", "lower"),
    "features.distinct_pairs": ("count", "lower"),
    "features.distinct_ratio": ("ratio", "lower"),
    "features.cache_hit_ratio": ("ratio", "higher"),
    "moments.pass_s": ("s", "lower"),
    "moments.triples": ("count", "lower"),
    "moments.feature_dim": ("count", "lower"),
    "spectral.symmetrize_s": ("s", "lower"),
    "spectral.whiten_s": ("s", "lower"),
    "spectral.decompose_s": ("s", "lower"),
    "spectral.effective_rank": ("count", "higher"),
    "spectral.min_rank_margin": ("ratio", "higher"),
    "recovery.joint_lsq_s": ("s", "lower"),
    "recovery.lsq_iterations": ("count", "lower"),
    "pipeline.ftd_fit_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "em.total_s": ("s", "lower"),
    "em.fit_s": ("s", "lower"),
    "em.loglik_s": ("s", "lower"),
    "em.emission_s": ("s", "lower"),
    "em.iterations": ("count", "lower"),
    "em.s_per_iter": ("s", "lower"),
    "em.passes": ("count", "lower"),
    "em.s_per_pass": ("s", "lower"),
    "synth.sample_s": ("s", "lower"),
    "synth.match_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# which end-to-end metrics describe which workload in the --all report
REPORTED = {
    "genome-ftd": ("setup_s", "cycle_ref_s", "fit_ref_s", "eval_ref_s", "peak_rss_mb",
                   "setup_wall_s", "wall_s", "cpu_s", "fit_s", "eval_s", "ftd_err", "heldout_ll",
                   "failed_frac"),
    "sweep": ("setup_s", "cycle_ref_s", "sweep_ref_s", "peak_rss_mb", "setup_wall_s", "wall_s",
              "cpu_s", "sweep_s", "ftd_err", "em_err", "failed_frac"),
    "two-cell": ("setup_s", "cycle_ref_s", "fit_ref_s", "eval_ref_s", "peak_rss_mb",
                 "setup_wall_s", "wall_s", "cpu_s", "fit_s", "eval_s", "ftd_err", "heldout_ll",
                 "failed_frac"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or its set-up failed)."""


def child_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@dataclass
class Child:
    start: float  # perf_counter at spawn
    end: float  # perf_counter at reap
    seconds: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: list, work: Path, deadline: float) -> Child:
    """Run one child to completion; wall time from spawn to reap, rusage via wait4."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, end - start, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def input_digests(work: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir()) if p.name in ("counts.tsv", "truth.json")}


def cli_argv(argv: list) -> list:
    # the `betahmm` console script is betahmm.cli:main; -m runs the same entry point
    return [sys.executable, "-m", "betahmm.cli", *argv]


def keep_going(elapsed: float, done: float, seconds: float) -> bool:
    """Start another repeat only if one more, at the mean so far, ends in time."""
    return elapsed + elapsed / done <= seconds


def setup(workload: str, seed: int, sweep_seed: int, work: Path,
          deadline: float) -> tuple[list, dict]:
    children, digests = [], []
    for _ in range(SETUPS):
        child = run_child([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                           "--seed", str(seed), "--sweep-seed", str(sweep_seed),
                           "--out", str(work)], work, deadline)
        if child.returncode != 0:
            raise BenchError(f"input generation failed ({child.returncode}): {child.stderr[-2000:]}")
        children.append(child)
        digests.append(input_digests(work))
    if any(d != digests[0] for d in digests):
        raise BenchError("the same seed generated different inputs")
    return children, digests[0]


def measure(workload: str, seed: int, sweep_seed: int, seconds: float, work: Path,
            deadline: float) -> dict:
    """End-to-end run: set-up, then timed cycles of betahmm child processes."""
    cpu_index = pin_to_one_cpu()
    with SpeedProbe() as probe:
        return _measure(workload, seed, sweep_seed, seconds, work, deadline, probe, cpu_index)


def _measure(workload: str, seed: int, sweep_seed: int, seconds: float, work: Path,
             deadline: float, probe: SpeedProbe, cpu_index: int) -> dict:
    def ref_s(child: Child) -> float:
        return child.cpu_s * probe.scale(child.start, child.end)

    setups, digests = setup(workload, seed, sweep_seed, work, deadline)
    ops = workloads.operations(workload, str(work))
    samples = {"setup_s": [ref_s(c) for c in setups], "setup_wall_s": [c.seconds for c in setups],
               "cycle_ref_s": [], "wall_s": [], "cpu_s": []}
    values: dict = {}
    attempted = failed = 0
    rss = 0.0
    problems: list = []
    start = time.perf_counter()
    while True:
        cycle = cpu = ref = 0.0
        for op in ops:
            child = run_child(cli_argv(op.argv), work, deadline)
            outcome = workloads.check(workload, op, child.returncode, child.stdout, str(work))
            if outcome.failed:
                problems += outcome.problems + ([child.stderr[-500:]] if child.stderr else [])
            attempted += outcome.attempted
            failed += outcome.failed
            child_ref = ref_s(child)
            samples.setdefault(f"{op.name}_s", []).append(child.seconds)
            samples.setdefault(f"{op.name}_ref_s", []).append(child_ref)
            rss = max(rss, child.rss_mb)
            cycle += child.seconds
            cpu += child.cpu_s
            ref += child_ref
            for key, val in outcome.values.items():
                values.setdefault(key, []).append(val)
        samples["wall_s"].append(cycle)
        samples["cpu_s"].append(cpu)
        samples["cycle_ref_s"].append(ref)
        if not keep_going(time.perf_counter() - start, len(samples["wall_s"]), seconds):
            break
    # per-cycle times are run averages, the inverse of cycles per second
    metrics = {name: statistics.fmean(vals) for name, vals in samples.items()}
    metrics["setup_s"] = statistics.median(samples["setup_s"])
    metrics["setup_wall_s"] = statistics.median(samples["setup_wall_s"])
    metrics["peak_rss_mb"] = rss
    metrics["failed_frac"] = failed / attempted
    for key in ("ftd_err", "em_err", "heldout_ll"):
        if key in values:
            metrics[key] = values[key][0]
    return {
        "workload": workload, "seed": seed, "trace": 0, "cycles": len(samples["wall_s"]),
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        # fixed BLAS threads make each fit repeat exactly on one commit
        "accuracy_repeats_exactly": all(len(set(map(repr, v))) == 1 for v in values.values()),
        "metrics": metrics, "samples": samples, "inputs": digests,
        "cpu": cpu_index, "probes": len(probe.cpu_s),
        "probe_mean_s": statistics.fmean(probe.cpu_s),
        # the floor under every child's ru_maxrss: see run_fresh
        "benchmark_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _distinct_rows(counts: np.ndarray) -> int:
    """Distinct rows of a non-negative integer matrix, via one mixed-radix key."""
    base = int(counts.max()) + 1
    keys = counts.astype(np.int64) @ (base ** np.arange(counts.shape[1], dtype=np.int64))
    return len(np.unique(keys))


def _probe_ftd_fit(counters, args, result) -> None:
    seq = args[0]
    counters["fit_positions"] += len(seq)
    counters["fit_keys"] += _distinct_rows(np.hstack([seq.coverage, seq.meth]))
    counters["distinct_pairs"] += _distinct_rows(
        np.stack([seq.coverage.ravel(), seq.meth.ravel()], axis=1))
    diag = result.diagnostics
    counters["ftd_fits"] += 1
    counters["triples"] += diag.get("triples", 0)
    counters["rank_sum"] += diag.get("effective_rank", 0)
    counters["lsq_iterations"] += diag.get("lsq_iterations", 0)
    counters["feature_dim"] = result.feature_means.shape[0]
    rank = diag.get("effective_rank", 0)
    for val, floor in zip(diag.get("pair_values", [])[:rank], diag.get("pair_floor", [])[:rank]):
        if floor > 0:
            counters["min_margin"] = min(counters.get("min_margin", math.inf), val / floor)


def _probe_em_fit(counters, args, result) -> None:
    counters["em_iterations"] += result.iterations
    counters["em_passes"] += result.iterations


def _probe_log_likelihood(counters, args, result) -> None:
    counters["em_passes"] += 1


def _probe_load(counters, args, result) -> None:
    counters["rows_loaded"] += len(result)


PROBES = {
    "pipeline.ftd_fit": _probe_ftd_fit,
    "em.em_fit": _probe_em_fit,
    "em.log_likelihood": _probe_log_likelihood,
    "io.load_methylation_tsv": _probe_load,
}
NAMED = ("spectral.symmetrize_moments", "spectral.whiten", "recovery.estimate_joint_lsq",
         "em.em_fit", "em.log_likelihood", "em.emission_log_probs", "synth.sample_sequence",
         "synth.estimation_error", "io.load_methylation_tsv", "pipeline.ftd_fit")


def inprocess_cycle(workload: str, seed: int, sweep_seed: int, work: Path, tracer) -> dict:
    """Set-up and every operation of one cycle, called in this process."""
    import betahmm.cli
    import betahmm.features

    features = betahmm.features
    if hasattr(features, "clear_cache"):
        features.clear_cache()
    if tracer is not None:
        tracer.install(betahmm, PROBES)
    attempted = failed = 0
    problems: list = []
    start = time.perf_counter()
    try:
        gen.generate(workload, seed, str(work), sweep_seed)
        for op in workloads.operations(workload, str(work)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = betahmm.cli.main(op.argv)
                except Exception as exc:  # an operation that crashes counts as failed
                    code = repr(exc)
            outcome = workloads.check(workload, op, code, buf.getvalue(), str(work))
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = features.cache_stats() if hasattr(features, "cache_stats") else None
    return {"wall": wall, "attempted": attempted, "failed": failed, "problems": problems,
            "cache": stats}


def layer_metrics(tracer: Tracer, cycle: dict, work: Path) -> dict:
    view = SpanView(tracer.spans)
    c = tracer.counters
    own = view.layer_self()
    em_total = view.layer("em")
    emission = view.named("em.emission_log_probs")
    em_fit = view.named("em.em_fit")
    load = view.named("io.load_methylation_tsv")
    cache = cycle["cache"]
    tsv = work / "counts.tsv"
    m = {
        "io.input_bytes": tsv.stat().st_size if tsv.exists() else 0,
        "io.load_s": load,
        "io.rows_per_s": c["rows_loaded"] / load if load else 0.0,
        "features.map_s": view.layer("features"),
        "features.distinct_pairs": c["distinct_pairs"],
        "features.distinct_ratio": c["fit_keys"] / c["fit_positions"] if c["fit_positions"] else 0.0,
        "features.cache_hit_ratio": (
            (cache["requests"] - cache["computed"]) / cache["requests"]
            if cache and cache["requests"] else 0.0
        ),
        "moments.pass_s": view.layer("moments"),
        "moments.triples": c["triples"],
        "moments.feature_dim": c["feature_dim"],
        "spectral.symmetrize_s": view.named("spectral.symmetrize_moments"),
        "spectral.whiten_s": view.named("spectral.whiten"),
        "spectral.decompose_s": view.layer(
            "spectral", exclude=("spectral.symmetrize_moments", "spectral.whiten")),
        "spectral.effective_rank": c["rank_sum"] / c["ftd_fits"] if c["ftd_fits"] else 0.0,
        "spectral.min_rank_margin": c.get("min_margin", 0.0),
        "recovery.joint_lsq_s": view.named("recovery.estimate_joint_lsq"),
        "recovery.lsq_iterations": c["lsq_iterations"],
        "pipeline.ftd_fit_s": view.layer("pipeline"),
        "pipeline.self_s": own.get("pipeline", 0.0),
        "em.total_s": em_total,
        "em.fit_s": em_fit,
        "em.loglik_s": view.named("em.log_likelihood"),
        "em.emission_s": emission,
        "em.iterations": c["em_iterations"],
        "em.s_per_iter": em_fit / c["em_iterations"] if c["em_iterations"] else 0.0,
        "em.passes": c["em_passes"],
        "em.s_per_pass": (em_total - emission) / c["em_passes"] if c["em_passes"] else 0.0,
        "synth.sample_s": view.named("synth.sample_sequence"),
        "synth.match_s": view.outermost(
            lambda s: s[0] == "synth.estimation_error" or s[1] == "hungarian"),
    }
    breakdown = {root: view.breakdown(root) for root in ("pipeline.ftd_fit", "em.em_fit")}
    return {"metrics": m, "layer_self_s": own, "breakdown": breakdown,
            "absent": sorted(n for n in NAMED if n not in tracer.names)}


def trace_run(workload: str, seed: int, sweep_seed: int, seconds: float, work: Path,
              deadline: float) -> dict:
    """Per-layer run: one untraced warm-up cycle, then traced and untraced cycles in pairs.

    The warm-up takes the first-cycle costs (allocator growth, lazy imports)
    that would otherwise land on whichever cycle ran first.
    """
    startup = [run_child([sys.executable, "-c", "import betahmm.cli"], work, deadline).seconds
               for _ in range(STARTUPS)]
    start = time.perf_counter()
    warmup = inprocess_cycle(workload, seed, sweep_seed, work, None)
    pairs = []
    tracers = []
    while True:
        tracer = Tracer()
        tracer.run_id = f"{workload}-seed{seed}-pair{len(pairs)}"
        traced = inprocess_cycle(workload, seed, sweep_seed, work, tracer)
        untraced = inprocess_cycle(workload, seed, sweep_seed, work, None)
        layers = layer_metrics(tracer, traced, work)
        layers["metrics"]["trace.untraced_s"] = untraced["wall"]
        layers["metrics"]["trace.overhead_s"] = traced["wall"] - untraced["wall"]
        pairs.append({"untraced": untraced, "traced": traced, "layers": layers})
        tracers.append(tracer)
        if not keep_going(time.perf_counter() - start, len(pairs) + 0.5, seconds):
            break
    metrics = {"cli.startup_s": statistics.median(startup)}
    for name in pairs[0]["layers"]["metrics"]:
        metrics[name] = statistics.median(p["layers"]["metrics"][name] for p in pairs)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for tracer in tracers:
            tracer.write_jsonl(fh)
    cycles = [warmup] + [p[k] for p in pairs for k in ("untraced", "traced")]
    return {
        "workload": workload, "seed": seed, "trace": 1, "pairs": len(pairs),
        "attempted": sum(c["attempted"] for c in cycles),
        "failed": sum(c["failed"] for c in cycles),
        "problems": [p for c in cycles for p in c["problems"]][:20],
        "metrics": metrics, "startup_samples": startup,
        "layer_self_s": pairs[0]["layers"]["layer_self_s"],
        "breakdown": pairs[0]["layers"]["breakdown"],
        "absent": pairs[0]["layers"]["absent"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def provenance() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown: not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "betahmm").rglob("*.py"))),
    }


def run_workload(workload: str, seed: int, sweep_seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    work.mkdir()
    try:
        if trace:
            return trace_run(workload, seed, sweep_seed, seconds, work, deadline)
        return measure(workload, seed, sweep_seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def contract_metrics(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "rel_iqr": (q3 - q1) / abs(med) if med else 0.0}


def print_table(title: str, rows: list) -> None:
    print(title)
    for name, stats in rows:
        unit, better = METRICS[name]
        if isinstance(stats, dict) and "median" in stats:
            print(f"  {name:<26} {stats['median']:>14.6g} {unit:<14} ({better} is better)"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  rel IQR {stats['rel_iqr']:.4f}")
        else:
            print(f"  {name:<26} {stats:>14.6g} {unit:<14} ({better} is better)")


def record_path(workload: str, seed: int, trace: bool) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"


def run_fresh(workload: str, seed: int, sweep_seed: int, seconds: float, trace: bool) -> dict:
    """One single-workload run in a fresh process, read back from its record.

    On Linux a child's ru_maxrss also counts the RSS of the process that
    spawned it, so children are spawned only from a small benchmark process.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--sweep-seed", str(sweep_seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} run exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(record_path(workload, seed, trace)) as fh:
        return json.load(fh)


def report_all(seed: int, sweep_seed: int, seconds: float, repeat: int) -> int:
    """Every workload: repeated end-to-end runs, one traced run, one report file."""
    report = {"provenance": provenance(), "seed": seed, "sweep_seed": sweep_seed,
              "seconds": seconds, "repeat": repeat, "workloads": {}}
    failed = 0
    for workload in gen.WORKLOADS:
        runs = [run_fresh(workload, seed, sweep_seed, seconds, False) for _ in range(repeat)]
        traced = run_fresh(workload, seed, sweep_seed, seconds, True)
        stats = {name: spread([r["metrics"][name] for r in runs]) for name in REPORTED[workload]}
        print_table(f"{workload} (seed {seed}, {repeat} run(s) of {seconds:g} s, "
                    f"{runs[0]['cycles']} cycle(s) in the first)", list(stats.items()))
        print_table(f"{workload} traced layers ({traced['pairs']} pair(s); absent: "
                    f"{traced['absent'] or 'none'})", list(traced["metrics"].items()))
        for root, layers in traced["breakdown"].items():
            total = sum(layers.values())
            if total:
                shares = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(layers.items()))
                print(f"  self time inside {root} ({total:.3f} s): {shares}")
        for r in runs + [traced]:
            failed += r["failed"]
            for problem in r["problems"]:
                print(f"  FAILED: {problem}")
        report["workloads"][workload] = {"runs": runs, "spread": stats, "traced": traced}
    with open(OUT / "report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {(OUT / 'report.json').relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, full report")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sweep-seed", type=int, default=gen.SWEEP_SEED,
                        help="master seed of the sweep; the benchmark seed does not change it")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with --all")
    args = parser.parse_args(argv)
    if not (SRC / "betahmm" / "__init__.py").is_file():
        print(f"betahmm sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks and the traced run import betahmm
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    try:
        if args.all:
            return report_all(args.seed, args.sweep_seed, args.seconds, max(1, args.repeat))
        result = run_workload(args.workload, args.seed, args.sweep_seed, args.seconds,
                              bool(args.trace), time.monotonic() + HARD_LIMIT_S)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    result["provenance"] = provenance()
    with open(record_path(args.workload, args.seed, bool(args.trace)), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    metrics = {}
    for spec in contract_metrics(bool(args.trace)):
        value = float(result["metrics"][spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']}: {value!r} {spec['unit']} ({spec['better']} is better)")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
