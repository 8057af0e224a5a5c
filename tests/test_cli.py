"""Tests for the experiment-file CLI: validation, artifacts, determinism."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import apbench.linalg
from apbench import cli
from apbench.algorithms import (AlgorithmConfig, AlgorithmKind, step_multiplies,
                                step_multiplies_literal)
from apbench.cli import (
    ConfigError,
    ExperimentFile,
    VariantResult,
    load_experiment_file,
    main,
    resolve_config_path,
    write_artifacts,
)
from apbench.metrics import MseTrace, TmReport
from apbench.signals import NoiseKind, NoiseSpec, design_highpass_fir, frequency_response
from apbench.sysid import EnsembleResult, PlantModel, RunResult

SRC = os.path.dirname(os.path.dirname(os.path.abspath(apbench.linalg.__file__)))


def _tiny_config(out_dir, **overrides):
    config = {
        "output_dir": str(out_dir),
        "iterations": 60,
        "ensemble_runs": 4,
        "base_seed": 7,
        "plant": {"design": {"num_taps": 7, "cutoff_fn": 0.5}},
        "noise": {"kind": "white", "sigma": 1.0},
        "algorithms": [
            {"name": "lms", "kind": "lms", "filter_length": 7, "mu": 0.05},
            {"name": "bndr_lms", "kind": "bndr_lms", "filter_length": 7,
             "mu_mode": "fixed", "mu": 1.0},
            {"name": "r_ap", "kind": "r_ap", "filter_length": 7, "projection_order": 3,
             "mu_mode": "fixed", "mu": 1.0},
        ],
    }
    config.update(overrides)
    return config


def _write_config(tmp_path, config, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


ARTIFACTS = ["lms_mse.csv", "lms_weights.csv", "lms_freqresp.csv",
             "bndr_lms_mse.csv", "bndr_lms_weights.csv", "bndr_lms_freqresp.csv",
             "r_ap_mse.csv", "r_ap_weights.csv", "r_ap_freqresp.csv", "summary.csv"]


class TestDesignCommand:
    def test_output_matches_library_bit_for_bit(self, capsys):
        assert main(["design", "13", "0.4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        printed = np.array([float(v) for v in lines])
        assert np.array_equal(printed, design_highpass_fir(13, 0.4))
        assert abs(printed.sum()) < 1e-3
        assert np.array_equal(printed, printed[::-1])

    def test_even_tap_count_is_validation_error(self, capsys):
        assert main(["design", "12", "0.4"]) == 1
        assert "odd" in capsys.readouterr().err

    def test_bad_cutoff_is_validation_error(self):
        assert main(["design", "13", "1.5"]) == 1


class TestRunCommand:
    def test_artifacts_and_summary(self, tmp_path):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", str(path)]) == 0
        for name in ARTIFACTS:
            assert (out / name).is_file(), name

        rows = (out / "summary.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["algorithm", "final_smoothed_mse_db", "t_m", "misalignment_db",
                          "total_multiplies_literal", "total_multiplies_corrected"]
        by_name = {r.split(",")[0]: r.split(",") for r in rows[1:]}
        assert set(by_name) == {"lms", "bndr_lms", "r_ap"}
        for name, kind, order in (("lms", AlgorithmKind.LMS, 1),
                                  ("bndr_lms", AlgorithmKind.BNDR_LMS, 2),
                                  ("r_ap", AlgorithmKind.R_AP, 3)):
            assert int(by_name[name][4]) == 60 * step_multiplies_literal(kind, 7, order)
            assert int(by_name[name][5]) == 60 * step_multiplies(kind, 7, order)

        mse_rows = (out / "lms_mse.csv").read_text().strip().splitlines()
        assert mse_rows[0] == "iteration,mse_db,smoothed_mse_db"
        assert len(mse_rows) == 61

        weight_rows = (out / "r_ap_weights.csv").read_text().strip().splitlines()
        assert weight_rows[0] == "tap_index,adaptive_weight,plant_weight"
        plant = design_highpass_fir(7, 0.5)
        got_plant = np.array([float(r.split(",")[2]) for r in weight_rows[1:]])
        assert np.array_equal(got_plant, plant)

        freq_rows = (out / "r_ap_freqresp.csv").read_text().strip().splitlines()
        assert freq_rows[0] == "omega_over_pi,magnitude_db,plant_magnitude_db"
        assert len(freq_rows) == 513

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
        path = _write_config(tmp_path, _tiny_config(out_a))
        assert main(["run", str(path)]) == 0
        assert main(["run", str(path), "--out", str(out_b)]) == 0
        assert main(["run", str(path), "--out", str(out_c), "--threads", "3"]) == 0
        for name in ARTIFACTS:
            blob = (out_a / name).read_bytes()
            assert blob == (out_b / name).read_bytes(), name
            assert blob == (out_c / name).read_bytes(), name

    def test_out_flag_overrides_config_dir(self, tmp_path):
        cfg_dir = tmp_path / "ignored"
        out = tmp_path / "flagged"
        path = _write_config(tmp_path, _tiny_config(cfg_dir))
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").is_file()
        assert not cfg_dir.exists()

    def test_unknown_key_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = _tiny_config(out)
        config["typo_key"] = 1
        path = _write_config(tmp_path, config)
        assert main(["run", str(path)]) == 1
        assert "typo_key" in capsys.readouterr().err
        assert not out.exists()

    def test_nested_unknown_key_rejected(self, tmp_path):
        out = tmp_path / "out"
        config = _tiny_config(out)
        config["algorithms"][0]["step"] = 0.1
        path = _write_config(tmp_path, config)
        assert main(["run", str(path)]) == 1
        assert not out.exists()

    def test_invalid_invariants_rejected(self, tmp_path):
        out = tmp_path / "out"
        for patch in ({"ensemble_runs": 0}, {"iterations": 0},
                      {"noise": {"kind": "ar1", "sigma": 1.0, "ar_coefficient": 1.5}}):
            path = _write_config(tmp_path, _tiny_config(out, **patch))
            assert main(["run", str(path)]) == 1
            assert not out.exists()

    def test_fir_colored_noise_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        config = _tiny_config(out, noise={"kind": "fir", "sigma": 1.0,
                                          "fir_coefficients": [1.0, 0.5, 0.25]})
        path = _write_config(tmp_path, config)
        assert main(["run", str(path)]) == 0
        assert (out / "summary.csv").is_file()

    def test_cross_kind_noise_keys_rejected(self, tmp_path):
        out = tmp_path / "out"
        for noise in ({"kind": "white", "sigma": 1.0, "ar_coefficient": 0.5},
                      {"kind": "ar1", "sigma": 1.0, "ar_coefficient": 0.5,
                       "fir_coefficients": [1.0]}):
            path = _write_config(tmp_path, _tiny_config(out, noise=noise))
            assert main(["run", str(path)]) == 1
            assert not out.exists()

    def test_duplicate_variant_names_rejected(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        config["algorithms"][1]["name"] = "lms"
        path = _write_config(tmp_path, config)
        assert main(["run", str(path)]) == 1

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_is_validation_error(self):
        assert main(["run", "no_such_config.json"]) == 1

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # scalar-regressor BNDR-LMS makes the order-2 Gram singular mid-run
        config = _tiny_config(tmp_path / "out")
        config["algorithms"] = [{"name": "bndr_lms", "kind": "bndr_lms",
                                 "filter_length": 1, "mu_mode": "fixed", "mu": 1.0}]
        config["plant"] = {"coefficients": [1.0]}
        path = _write_config(tmp_path, config)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "iteration" in err

    def test_noise_seed_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = _tiny_config(out, noise={"kind": "white", "sigma": 1.0, "seed": 3})
        path = _write_config(tmp_path, config)
        assert main(["run", str(path)]) == 1
        assert "unknown key(s) in noise: seed" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_is_a_runtime_failure_without_traceback(self, tmp_path, capsys):
        config = _tiny_config(tmp_path / "out", iterations=400,
                              noise={"kind": "ar1", "sigma": 1.0, "ar_coefficient": 0.9})
        config["algorithms"] = [{"name": "lms", "kind": "lms", "filter_length": 7, "mu": 0.5}]
        path = _write_config(tmp_path, config)
        with pytest.warns(UserWarning, match="expected to diverge"):
            code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"runtime error: run 0 failed at iteration \d+: diverged\n", err)
        assert "Traceback" not in err

    def test_residual_failure_is_a_runtime_failure_without_traceback(self, tmp_path, capsys):
        config = _tiny_config(tmp_path / "out", iterations=30, base_seed=0,
                              plant={"coefficients": [1.0], "measurement_noise_sigma": 0.01})
        config["algorithms"] = [{"name": "r_ap", "kind": "r_ap", "filter_length": 1,
                                 "projection_order": 2, "mu_mode": "fixed", "mu": 1.0,
                                 "delta": 1e-8}]
        code = main(["run", str(_write_config(tmp_path, config))])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"runtime error: run 1 failed at iteration \d+: solve_regularized "
                            r"could not reach the guaranteed residual bound .*\n", err)
        assert "Traceback" not in err

    def test_bundled_configs_resolve_and_validate(self):
        for name in ("white", "colored"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. no LMS step-size warning
                spec = load_experiment_file(resolve_config_path(name))
            assert spec.iterations >= 500
            assert spec.ensemble_runs == 100
            assert [n for n, _ in spec.variants] == ["lms", "bndr_lms", "r_ap"]

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            resolve_config_path("grey")


def _reference_artifacts(spec, results, out):
    """The artifacts as the per-cell csv.writer formatter used to write them."""
    def fmt(value):
        return format(float(value), ".17g")

    def write(path, header, rows):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    out.mkdir()
    h = spec.plant.h
    for res in results:
        trace = res.ensemble.trace.values_db
        write(out / f"{res.name}_mse.csv", ["iteration", "mse_db", "smoothed_mse_db"],
              ([n, fmt(trace[n]), fmt(res.smoothed_db[n])] for n in range(len(trace))))
        w_mean = res.ensemble.final_weights_mean
        write(out / f"{res.name}_weights.csv", ["tap_index", "adaptive_weight", "plant_weight"],
              ([k, fmt(w_mean[k]) if k < w_mean.shape[0] else fmt(0.0),
                fmt(h[k]) if k < h.shape[0] else fmt(0.0)]
               for k in range(max(w_mean.shape[0], h.shape[0]))))
        adaptive_fr = frequency_response(w_mean, spec.freq_points)
        plant_fr = frequency_response(h, spec.freq_points)
        write(out / f"{res.name}_freqresp.csv",
              ["omega_over_pi", "magnitude_db", "plant_magnitude_db"],
              ([fmt(adaptive_fr.omegas[k] / np.pi), fmt(adaptive_fr.magnitude_db[k]),
                fmt(plant_fr.magnitude_db[k])] for k in range(spec.freq_points)))
    write(out / "summary.csv",
          ["algorithm", "final_smoothed_mse_db", "t_m", "misalignment_db",
           "total_multiplies_literal", "total_multiplies_corrected"],
          ([res.name, fmt(res.final_smoothed_db), res.tm.t_m, fmt(res.misalignment_db),
            res.total_multiplies_literal, res.total_multiplies_corrected] for res in results))


# -0, the smallest subnormal, the -300 dB floor and extreme exponents
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, -300.0, 1.7976931348623157e308,
                  -1e300, 1e-300, 0.1, 1.0 / 3.0, -123456789.12345679, 1e16, 1e17]


def _crafted_results(rows):
    """Two variants whose every column mixes the special values with noise."""
    rng = np.random.default_rng(29)
    specials = np.array(SPECIAL_VALUES)

    def column(extra=()):
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        picks = np.concatenate([specials, extra])
        values[rng.integers(0, rows, 4 * picks.size)] = np.tile(picks, 4)
        return values

    spec = ExperimentFile(
        plant=PlantModel(h=[-0.0, 5e-324, 0.5, -1e-300, 1.0]),
        noise=NoiseSpec(NoiseKind.WHITE, sigma=1.0),
        iterations=rows, ensemble_runs=1, base_seed=0,
        variants=(), freq_points=rows,
    )
    results = []
    for name, weights, t_m, misalignment in [
        ("r_ap.order-4", [1e308, -0.0, 5e-324, -1e-310, 0.25, 3.0, -7.5], 0, -np.inf),
        ("lms_2", [-0.0, 1e-300, 0.3, -0.7, 5e-324, 0.1], rows - 1, np.nan),
    ]:
        runs = (RunResult(mse_trace=np.zeros(rows), final_weights=np.array(weights),
                          total_multiplies=2**62),)
        ensemble = EnsembleResult(trace=MseTrace(column(), smoothing_window=1), runs=runs)
        results.append(VariantResult(
            name=name, algorithm=AlgorithmConfig(AlgorithmKind.LMS, filter_length=len(weights),
                                                 mu=0.1),
            ensemble=ensemble, smoothed_db=column([np.nan, np.inf, -np.inf]),
            tm=TmReport(t_m=t_m, window=10, slack_db=0.1, never_monotone=False),
            misalignment_db=misalignment, total_multiplies_corrected=2**62 + 1,
            total_multiplies_literal=3,
        ))
    return spec, results


def test_summary_quotes_variant_names_as_csv_writer_did(tmp_path):
    # names from experiment files are filesystem-safe; library callers may pass any
    spec, results = _crafted_results(3)
    names = ['a,b', 'say "hi"', "line\nbreak"]
    results = [dataclasses.replace(results[0], name=name) for name in names]
    write_artifacts(spec, results, tmp_path / "chunked")
    _reference_artifacts(spec, results, tmp_path / "reference")
    assert ((tmp_path / "chunked" / "summary.csv").read_bytes()
            == (tmp_path / "reference" / "summary.csv").read_bytes())


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_artifacts_are_byte_identical_to_the_per_cell_csv_writer(chunk_rows, tmp_path,
                                                                 monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    # more rows than two chunks, and not a multiple of the chunk size
    rows = 2 * cli.CHUNK_ROWS + 17
    spec, results = _crafted_results(rows)
    with np.errstate(over="ignore"):
        write_artifacts(spec, results, tmp_path / "chunked")
        _reference_artifacts(spec, results, tmp_path / "reference")
    files = sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "chunked").iterdir())
    assert len(files) == 7
    for file in files:
        expected = (tmp_path / "reference" / file).read_bytes()
        assert (tmp_path / "chunked" / file).read_bytes() == expected, file
    mse_lines = (tmp_path / "chunked" / "lms_2_mse.csv").read_text().splitlines()
    assert len(mse_lines) == rows + 1
    for token in ("-0", "4.9406564584124654e-324", "-300", "1.7976931348623157e+308", "nan",
                  "inf", "-inf"):
        assert any(token in line.split(",") for line in mse_lines), token
    summary = (tmp_path / "chunked" / "summary.csv").read_text().splitlines()
    final = [format(res.final_smoothed_db, ".17g") for res in results]
    assert summary[1:] == [f"r_ap.order-4,{final[0]},0,-inf,3,{2**62 + 1}",
                           f"lms_2,{final[1]},{rows - 1},nan,3,{2**62 + 1}"]


class TestSelftestCommand:
    def test_passes_on_healthy_build(self, capsys):
        import time

        started = time.perf_counter()
        assert main(["selftest"]) == 0
        assert time.perf_counter() - started < 10.0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_negative_control_perturbed_solver(self, monkeypatch, capsys):
        real = apbench.linalg.solve_regularized

        def perturbed(gram, delta, rhs):
            return real(gram, 0.1, rhs)  # solves the wrong system

        monkeypatch.setattr(apbench.linalg, "solve_regularized", perturbed)
        assert main(["selftest"]) != 0
        assert "FAIL" in capsys.readouterr().out


def test_usage_errors_are_validation_failures():
    assert main(["bogus-command"]) == 1
    assert main(["run"]) == 1


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is only needed to color noise; loading it costs more than
    # a whole white-noise run
    code = ("import sys; import apbench; from apbench import cli; "
            "print('scipy.signal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
