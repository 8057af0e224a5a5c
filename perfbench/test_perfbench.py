"""Tests of the benchmark itself, on tiny versions of its three workloads."""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def modules():
    return run.import_apbench()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_emits_every_metric_of_benchmark_json(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_artifacts_are_byte_identical_and_spans_count_calls(name, modules, tmp_path):
    workload = workloads.WORKLOADS[name]
    spec = workloads.load_spec(workload, None, tiny=True)
    plain = run.run_repeat(modules, spec, workload.threads, tmp_path / "plain", traced=False)
    traced = run.run_repeat(modules, spec, workload.threads, tmp_path / "traced", traced=True)
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for file in files:
        assert (tmp_path / "plain" / file).read_bytes() == (tmp_path / "traced" / file).read_bytes()
    assert plain.spans is None

    layer = run.layer_metrics(traced)
    kinds = [algo.kind.value for _, algo in spec.variants]
    members = spec.ensemble_runs
    assert layer["sysid.run_single.calls"] == members * len(kinds)
    assert layer["algorithms.lms_step.calls"] == members * spec.iterations * kinds.count("lms")
    assert layer["linalg.solve_regularized.calls"] == layer["algorithms.ap_step.calls"]
    if "lms" in kinds and len(set(kinds)) == 1:
        assert layer["algorithms.ap_step.calls"] == 0
    assert layer["sysid.multiplies"] == plain.multiplies
    assert 0.0 < layer["trace.coverage"] <= 1.0
    # installed wrappers are gone again
    cli, sysid, algorithms = modules
    assert not hasattr(sysid.ap_step, "__wrapped__")
    assert not hasattr(algorithms.solve_regularized, "__wrapped__")
    assert not hasattr(cli.run_ensemble, "__wrapped__")


def test_check_rejects_outputs_off_the_reference(modules):
    cli = modules[0]
    spec = workloads.load_spec(workloads.WORKLOADS["colored"], None, tiny=True)
    results = cli.run_experiment_file(spec)
    reference = checks.reference_arrays(results)
    assert checks.check_outputs(results, reference, criterion_3=False) == []
    reference["r_ap.weights"] = reference["r_ap.weights"] * (1.0 + 1e-5)
    assert checks.check_outputs(results, reference, criterion_3=False) != []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_applies_only_at_the_experiment_files_seed(name, modules):
    workload = workloads.WORKLOADS[name]
    spec = workloads.load_spec(workload, None)
    assert checks.load_reference(name, spec) is not None
    assert checks.load_reference(name, workloads.load_spec(workload, spec.base_seed + 1)) is None


def test_fails_without_result_when_the_program_is_absent(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "white",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
