"""Benchmark of `apbench run`, end to end or layer by layer.

    python3 perfbench/run.py --workload white|colored|long_trace
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from any directory; the program under test is the apbench package in
src/ next to this directory. Each repeat goes through the same calls as
`apbench run`: cli.load_experiment_file (done once), then
cli.run_experiment_file and cli.write_artifacts into a scratch directory under
perfbench/.out that is removed at exit. Repeats continue while the next one
is expected to end within --seconds (at least one; one of each kind when
tracing), and every repeat's outputs are checked (checks.py). setup_s is the
median wall time of fresh processes that import apbench and load the
workload's experiment file (probe.py).

--seed replaces the experiment file's base_seed (default: keep it, which is
42 for white and colored and 7 for long_trace). --trace 1 alternates
untraced and traced repeats and reports the per-layer split instead of the
end-to-end metrics. --tiny shrinks every workload to a smoke-test size for
the benchmark's own test; the reference comparison and criterion 3 need the
full size and are skipped.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. Every set-up probe and every repeat is
one attempt; a nonzero exit, an exception or a failed output check is one
failure. The exit code is 2 when src/apbench is missing and no result is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import SpanStats, Tracer

# fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "signals.generate_noise.calls": "count",
    "signals.generate_noise.s": "s",
    "setup.import_s": "s",
    "cli.load_experiment_file.s": "s",
    "algorithms.lms_step.calls": "count",
    "algorithms.lms_step.s": "s",
    "algorithms.ap_step.calls": "count",
    "algorithms.ap_step.s": "s",
    "algorithms.ap_step.self_s": "s",
    "algorithms.ap_step.ok_ratio": "ratio",
    "linalg.solve_regularized.calls": "count",
    "linalg.solve_regularized.s": "s",
    "linalg.solve_regularized.singular": "count",
    "sysid.run_single.calls": "count",
    "sysid.run_single.s": "s",
    "sysid.run_single.self_s": "s",
    "sysid.run_single.wait_s": "s",
    "sysid.run_ensemble.s": "s",
    "sysid.run_ensemble.cores_used": "cores",
    "sysid.run_ensemble.variant1.step_us": "us",
    "sysid.run_ensemble.variant2.step_us": "us",
    "sysid.run_ensemble.variant3.step_us": "us",
    "sysid.multiplies": "count",
    "metrics.smooth.s": "s",
    "metrics.compute_tm.s": "s",
    "metrics.misalignment_db.s": "s",
    "signals.frequency_response.s": "s",
    "cli.write_artifacts.s": "s",
    "cli.write_artifacts.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def span_targets(cli, sysid, algorithms):
    """(module, attribute, span name, process CPU) at each layer boundary.

    Each function is wrapped where its caller looks it up, so the spans see
    exactly the calls `apbench run` makes.
    """
    return [
        (sysid, "generate_noise", "signals.generate_noise", False),
        (sysid, "lms_step", "algorithms.lms_step", False),
        (sysid, "ap_step", "algorithms.ap_step", False),
        (algorithms, "solve_regularized", "linalg.solve_regularized", False),
        (sysid, "run_single", "sysid.run_single", False),
        (cli, "run_ensemble", "sysid.run_ensemble", True),
        (cli, "smooth", "metrics.smooth", False),
        (cli, "compute_tm", "metrics.compute_tm", False),
        (cli, "misalignment_db", "metrics.misalignment_db", False),
        (cli, "frequency_response", "signals.frequency_response", False),
    ]


@dataclass
class Repeat:
    run_s: float  # run_experiment_file + write_artifacts
    ensemble_s: list[float]  # wall time of each variant's run_ensemble call
    multiplies: int
    spans: dict[str, SpanStats] | None
    results: list | None = None
    artifact_bytes: int = 0


def run_repeat(modules, spec, threads: int, out_dir: Path, traced: bool) -> Repeat:
    """One timed run_experiment_file + write_artifacts, with spans if ``traced``.

    Each variant's run_ensemble call is timed in both modes; the wrappers are
    removed again before returning.
    """
    cli, sysid, algorithms = modules
    tracer = Tracer()
    ensemble_s: list[float] = []
    with tracer:
        if traced:
            tracer.install(span_targets(cli, sysid, algorithms))
        inner = cli.run_ensemble

        def timed_run_ensemble(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                ensemble_s.append(perf_counter() - t0)

        write = tracer.wrap("cli.write_artifacts", cli.write_artifacts) if traced \
            else cli.write_artifacts
        cli.run_ensemble = timed_run_ensemble
        try:
            t0 = perf_counter()
            results = cli.run_experiment_file(spec, threads=threads)
            write(spec, results, out_dir)
            run_s = perf_counter() - t0
        finally:
            cli.run_ensemble = inner
    multiplies = sum(run.total_multiplies for res in results for run in res.ensemble.runs)
    return Repeat(run_s, ensemble_s, multiplies, tracer.totals() if traced else None, results)


def settle_artifacts(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and their total size.

    Each file is also flushed to disk, so that its writeback does not overlap
    the next timed repeat (long_trace writes 29 MB per repeat).
    """
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        with open(path, "rb") as f:  # streamed, so the check does not raise peak RSS
            digest.update(path.name.encode() + b"\0" + hashlib.file_digest(f, "sha256").digest())
            os.fsync(f.fileno())
        size += path.stat().st_size
    return digest.hexdigest(), size


def run_probe(workload_name: str, seed: int | None, tiny: bool) -> tuple[float, dict] | None:
    """Time one fresh process that imports apbench and loads the workload."""
    cmd = [sys.executable, str(workloads.BENCH_DIR / "probe.py"), workload_name,
           "default" if seed is None else str(seed)] + (["--tiny"] if tiny else [])
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"set-up probe timed out after {PROBE_TIMEOUT_S} s", file=sys.stderr)
        return None
    wall = perf_counter() - t0
    if proc.returncode != 0:
        print(f"set-up probe failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return wall, json.loads(proc.stdout.splitlines()[-1])


def run_probes(count: int, workload_name: str, seed: int | None, tiny: bool) -> list:
    """The probes of ``count`` set-up runs that succeeded."""
    probes = (run_probe(workload_name, seed, tiny) for _ in range(count))
    return [probe for probe in probes if probe is not None]


def layer_metrics(rep: Repeat) -> dict[str, float]:
    spans = rep.spans

    def span(name: str) -> SpanStats:
        return spans.get(name) or SpanStats()

    noise = span("signals.generate_noise")
    lms = span("algorithms.lms_step")
    ap = span("algorithms.ap_step")
    solve = span("linalg.solve_regularized")
    single = span("sysid.run_single")
    ensemble = span("sysid.run_ensemble")
    return {
        "signals.generate_noise.calls": noise.calls,
        "signals.generate_noise.s": noise.wall,
        "algorithms.lms_step.calls": lms.calls,
        "algorithms.lms_step.s": lms.wall,
        "algorithms.ap_step.calls": ap.calls,
        "algorithms.ap_step.s": ap.wall,
        "algorithms.ap_step.self_s": ap.self_s,
        # no attempt wasted when there was no attempt
        "algorithms.ap_step.ok_ratio": ap.returned / ap.calls if ap.calls else 1.0,
        "linalg.solve_regularized.calls": solve.calls,
        "linalg.solve_regularized.s": solve.wall,
        "linalg.solve_regularized.singular": solve.raised.get("SingularMatrixError", 0),
        "sysid.run_single.calls": single.calls,
        "sysid.run_single.s": single.wall,
        "sysid.run_single.self_s": single.self_s,
        "sysid.run_single.wait_s": single.wait_s,
        "sysid.run_ensemble.s": ensemble.wall,
        "sysid.run_ensemble.cores_used": (ensemble.process_cpu / ensemble.wall
                                          if ensemble.wall else 0.0),
        "sysid.multiplies": rep.multiplies,
        "metrics.smooth.s": span("metrics.smooth").wall,
        "metrics.compute_tm.s": span("metrics.compute_tm").wall,
        "metrics.misalignment_db.s": span("metrics.misalignment_db").wall,
        "signals.frequency_response.s": span("signals.frequency_response").wall,
        "cli.write_artifacts.s": span("cli.write_artifacts").wall,
        "cli.write_artifacts.bytes": rep.artifact_bytes,
        # share of run_s inside a top-level span of the benchmark's thread
        "trace.coverage": sum(s.top for s in spans.values()) / rep.run_s,
    }


def environment(threads: int) -> dict:
    import numpy
    import scipy

    # a checkout without git history is identified by source_sha256 alone
    commit = None
    if (workloads.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    package = workloads.SRC / "apbench"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def import_apbench():
    sys.path.insert(0, str(workloads.SRC))
    import apbench
    from apbench import algorithms, cli, sysid

    expected = (workloads.SRC / "apbench").resolve()
    if Path(apbench.__file__).resolve().parent != expected:
        raise ImportError(f"apbench imported from {apbench.__file__}, not {expected}")
    return cli, sysid, algorithms


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "apbench" / "__init__.py").is_file():
        print(f"error: no apbench package under {workloads.SRC}", file=sys.stderr)
        return 2
    modules = import_apbench()
    cli = modules[0]
    workload = workloads.WORKLOADS[args.workload]
    traced_mode = bool(args.trace)

    # half the set-up probes run before the repeats and half after, so that
    # their median samples the machine over the whole run
    probe_count = 1 if args.tiny else SETUP_PROBES
    probes = run_probes(probe_count // 2, workload.name, args.seed, args.tiny)

    try:
        spec = workloads.load_spec(workload, args.seed, args.tiny)
    except cli.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reference = None if args.tiny else checks.load_reference(workload.name, spec)
    check_criterion_3 = workload.checks_criterion_3 and not args.tiny
    print("env " + json.dumps(environment(workload.threads)
                              | {"workload": workload.name, "seed": spec.base_seed,
                                 "reference_check": reference is not None,
                                 "criterion_3_check": check_criterion_3}))

    out_dir = workloads.BENCH_DIR / ".out" / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    attempted = failed = 0
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    first_digest = None
    started = perf_counter()
    try:
        for repeat in range(sys.maxsize):
            is_traced = traced_mode and repeat % 2 == 1
            attempted += 1
            try:
                rep = run_repeat(modules, spec, workload.threads, out_dir, is_traced)
                problems = checks.check_outputs(rep.results, reference, check_criterion_3)
                digest, rep.artifact_bytes = settle_artifacts(out_dir)
            except Exception:  # noqa: BLE001 - a failed repeat is counted, not fatal
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                rep.results = None
                if first_digest is None:
                    first_digest = digest
                elif digest != first_digest:
                    problems.append("CSV artifacts differ from the first repeat's")
                if problems:
                    failed += 1
                    print("check failed: " + "; ".join(problems), file=sys.stderr)
                else:
                    (traced if is_traced else plain).append(rep)
            # stop before a repeat that would end past --seconds, once every
            # kind of repeat has succeeded; stop anyway when they keep failing
            elapsed = perf_counter() - started
            if plain and (traced or not traced_mode):
                if elapsed * (repeat + 2) / (repeat + 1) > args.seconds:
                    break
            elif elapsed > 3 * max(args.seconds, 1.0):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    probes += run_probes(probe_count - probe_count // 2, workload.name, args.seed, args.tiny)
    attempted += probe_count
    failed += probe_count - len(probes)
    if not probes or not plain or (traced_mode and not traced):
        print(f"error: {failed} of {attempted} attempts failed; no result", file=sys.stderr)
        return 1

    median = statistics.median
    run_s = median(r.run_s for r in plain)
    steps = spec.ensemble_runs * spec.iterations
    for k, (name, _) in enumerate(spec.variants):
        print(f"variant{k + 1} is {name}")
    if traced_mode:
        per_repeat = [layer_metrics(r) for r in traced]
        values = {name: median(m[name] for m in per_repeat) for name in per_repeat[0]}
        values["setup.import_s"] = median(p["import_s"] for _, p in probes)
        values["cli.load_experiment_file.s"] = median(p["load_s"] for _, p in probes)
        values["trace.overhead_s"] = median(r.run_s for r in traced) - run_s
        # per-variant step cost comes from the untraced repeats of this run
        for k in range(len(spec.variants)):
            values[f"sysid.run_ensemble.variant{k + 1}.step_us"] = (
                median(r.ensemble_s[k] for r in plain) / steps * 1e6)
        units = PER_LAYER
    else:
        values = {
            "setup_s": median(wall for wall, _ in probes),
            "run_s": run_s,
            # wall time of all run_ensemble calls per adaptation step
            "step_us": median(sum(r.ensemble_s) for r in plain)
                       / (steps * len(spec.variants)) * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"repeats: {len(plain)} untraced, {len(traced)} traced; "
          f"output check: {'PASS' if failed == 0 else 'FAIL'}; "
          f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} attempts)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
