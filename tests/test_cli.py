"""Tests for the experiment-file CLI: validation, artifacts, determinism."""

import contextlib
import csv
import dataclasses
import decimal
import enum
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apbench.linalg
import apbench.selftest
from apbench import artifacts, cli, sysid
from apbench.algorithms import (AlgorithmConfig, AlgorithmKind, MuMode, step_multiplies,
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
from apbench.metrics import MAX_COUNT, MseTrace, TmReport
from apbench.signals import NoiseKind, NoiseSpec, design_highpass_fir, frequency_response
from apbench.sysid import AdaptationError, EnsembleResult, PlantModel, RunResult, run_ensemble

import pins

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


_LMS7 = AlgorithmConfig(AlgorithmKind.LMS, filter_length=7, mu=0.05)


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

    def test_a_tap_count_numpy_cannot_allocate_is_a_runtime_failure(self, capsys):
        # its half-length index array alone is 3.47 EiB, which numpy refuses at once
        assert main(["design", str(10**18 + 1), "0.4"]) == 2
        assert re.fullmatch(r"runtime error: Unable to allocate 3\.47 EiB .*\n",
                            capsys.readouterr().err)


def test_help_states_the_user_contract_not_the_writer(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    for phrase in ("run <config.json>", "design <num_taps>", "selftest", "strict JSON",
                   "same noise realizations", "byte-identical",
                   "Exit codes: 0 success, 1 validation failure, 2 runtime failure."):
        assert phrase in text, phrase
    for internal in ("CHUNK_ROWS", "PARALLEL_ROWS", "fork"):
        assert internal not in text, internal


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
        pins.assert_pinned(pins.file_sha256(out, pins.FIR_ARTIFACT_SHA256),
                           pins.FIR_ARTIFACT_SHA256)

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

    @pytest.mark.parametrize("case", ["not_utf8", "nested_too_deep", "duplicate_key"])
    def test_unparsable_files_fail_with_one_error_line(self, case, tmp_path, capsys):
        text, reason = {
            "not_utf8": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            "nested_too_deep": (b"[" * 100000, "maximum recursion depth exceeded"),
            # a runnable file but for the key given twice, whose last value used to win
            "duplicate_key": (b'{"iterations": 10, '
                              + json.dumps(_tiny_config(tmp_path / "out"))[1:].encode(),
                              "duplicate key 'iterations'"),
        }[case]
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(path))} is not valid JSON: [^\n]*\n", err)
        assert reason in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("patch, args, message", [
        ({"noise": 5}, [], "noise must be a JSON object"),
        ({"noise": {"kind": "pink", "sigma": 1.0}}, [],
         "noise.kind must be one of ['white', 'ar1', 'fir'], got 'pink'"),
        ({"plant": {"design": {"num_taps": 7, "cutoff_fn": 0.5}, "coefficients": [1.0]}}, [],
         "plant needs exactly one of 'design' or 'coefficients'"),
        ({"plant": {"measurement_noise_sigma": 0.0}}, [],
         "plant needs exactly one of 'design' or 'coefficients'"),
        ({"algorithms": [{"name": "a/b", "kind": "lms", "filter_length": 7, "mu": 0.05}]}, [],
         "algorithms[0].name must be non-empty and filesystem-safe, got 'a/b'"),
        ({"algorithms": []}, [], "algorithms must be a non-empty list"),
        ({}, ["--threads", "0"], "--threads must be >= 1, got 0"),
        # unchecked, a number was not iterable and a string was read character by character
        ({"plant": {"coefficients": 5}}, [],
         "invalid plant: plant.coefficients must be a JSON array, got 5"),
        ({"plant": {"coefficients": "12"}}, [],
         "invalid plant: plant.coefficients must be a JSON array, got '12'"),
        ({"noise": {"kind": "fir", "sigma": 1.0, "fir_coefficients": "12"}}, [],
         "invalid noise: noise.fir_coefficients must be a JSON array, got '12'"),
    ], ids=["not_an_object", "unknown_enum_value", "plant_both", "plant_neither",
            "unsafe_variant_name", "no_algorithms", "zero_threads", "plant_taps_a_number",
            "plant_taps_a_string", "fir_taps_a_string"])
    def test_an_invalid_file_or_option_fails_with_one_error_line(self, tmp_path, capsys, patch,
                                                                 args, message):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, **patch))
        assert main(["run", str(path), *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_an_unreadable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match=f"cannot read {re.escape(str(tmp_path))}: "):
            load_experiment_file(tmp_path)

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

    def test_an_allocation_numpy_refuses_is_a_runtime_failure(self, tmp_path, capsys):
        # one run's 10**18 input samples are 6.94 EiB, which numpy refuses at once
        out = tmp_path / "out"
        config = _tiny_config(out, iterations=10**18, ensemble_runs=1)
        config["algorithms"] = config["algorithms"][:1]
        assert main(["run", str(_write_config(tmp_path, config))]) == 2
        assert re.fullmatch(r"runtime error: Unable to allocate 6\.94 EiB .*\n",
                            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("edit, field, replaced", [
        ({"iterations": 2**61}, "iterations", {"iterations": 2**61}),
        ({"freq_points": 2**61}, "freq_points", {"freq_points": 2**61}),
        ({"algorithms": [{"name": "r_ap", "kind": "r_ap", "filter_length": 2**61}]},
         "filter_length", None),
        ({"algorithms": [{"name": "r_ap", "kind": "r_ap", "filter_length": 7,
                          "projection_order": 2**61}]}, "projection_order", None),
        # every term is within the limit, the zero-padded input is not
        ({"algorithms": [{"name": "r_ap", "kind": "r_ap", "filter_length": 2**59 + 1,
                          "projection_order": 2**59 + 1}]},
         "iterations + projection_order + filter_length - 2", {"iterations": MAX_COUNT}),
        ({"plant": {"design": {"num_taps": 2**61 + 1, "cutoff_fn": 0.4}}}, "num_taps", None),
        (["design", str(2**61 + 1), "0.4"], "num_taps", None),
        ({"ensemble_runs": 2**61}, "ensemble_runs", {"ensemble_runs": 2**61}),
        # every term is within the limit, the runs' stacked padded input is not
        ({"ensemble_runs": 2**31, "iterations": 2**30},
         "ensemble_runs * (iterations + projection_order + filter_length - 2)", None),
    ], ids=["iterations", "freq_points", "filter_length", "projection_order", "padded_input",
            "plant_num_taps", "design_num_taps", "ensemble_runs", "ensemble_input"])
    def test_a_count_numpy_cannot_describe_fails_validation(self, tmp_path, capsys, edit, field,
                                                           replaced):
        # numpy refuses a float64 array of more than MAX_COUNT elements without allocating
        out = tmp_path / "out"
        argv = edit if isinstance(edit, list) else \
            ["run", str(_write_config(tmp_path, _tiny_config(out, **edit)))]
        message = rf"{re.escape(field)} must be at most {MAX_COUNT}, got \d+"
        assert main(argv) == 1
        assert re.fullmatch(rf"error: [^\n]*{message}\n", capsys.readouterr().err)
        assert not out.exists()
        if replaced is not None:  # dataclasses.replace cannot bypass the limit
            spec = load_experiment_file(_write_config(tmp_path, _tiny_config(out), "ok.json"))
            with pytest.raises(ConfigError, match=message):
                dataclasses.replace(spec, **replaced)

    def test_an_ensemble_too_large_to_allocate_fails_at_once(self, tmp_path):
        # 2**55 runs of 8 samples pass validation; their 2 EiB of inputs cannot be
        # allocated. A subprocess with a timeout, so that a hang fails the test.
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, ensemble_runs=2**55, iterations=8))
        proc = subprocess.run([sys.executable, "-m", "apbench.cli", "run", str(path)],
                              capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2, proc.stderr
        assert re.fullmatch(r"runtime error: Unable to allocate 2\.00 EiB .*\n", proc.stderr)
        assert not out.exists()

    def test_a_zero_noise_sigma_is_rejected_for_files_replaced_specs_and_the_library(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        zero = {"kind": "white", "sigma": 0.0}
        message = "invalid experiment file: noise.sigma must be > 0, got 0.0"
        assert main(["run", str(_write_config(tmp_path, _tiny_config(out, noise=zero)))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        spec = load_experiment_file(_write_config(tmp_path, _tiny_config(out), "ok.json"))
        silent = NoiseSpec(NoiseKind.WHITE, sigma=0.0)  # a spec alone may be silent
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(spec, noise=silent)
        with pytest.raises(ValueError, match=r"^noise\.sigma must be > 0, got 0\.0$"):
            dataclasses.replace(spec.experiment_config(spec.variants[0][1]), noise=silent)

    def test_an_all_zero_fir_excitation_is_rejected_for_files_replaced_specs_and_the_library(
            self, tmp_path, capsys):
        # sigma > 0, but taps of zero color every sample to 0: the input is silent
        out = tmp_path / "out"
        fir = {"kind": "fir", "sigma": 1.0, "fir_coefficients": [0.0, -0.0]}
        assert main(["run", str(_write_config(tmp_path, _tiny_config(out, noise=fir)))]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "noise.fir_coefficients" in lines[0]
        assert not out.exists()
        spec = load_experiment_file(_write_config(tmp_path, _tiny_config(out), "ok.json"))
        silent = NoiseSpec(NoiseKind.FIR_COLORED, sigma=1.0, fir_coefficients=(0.0, -0.0))
        with pytest.raises(ConfigError, match=r"noise\.fir_coefficients"):
            dataclasses.replace(spec, noise=silent)
        with pytest.raises(ValueError, match=r"^noise\.sigma and noise\.fir_coefficients .* "
                                             r"variance > 0, got 0\.0$"):
            dataclasses.replace(spec.experiment_config(spec.variants[0][1]), noise=silent)

    def test_a_replaced_smoothing_window_follows_the_count_rule(self, tmp_path):
        # unchecked here, a float window would fail only in metrics.smooth, after the runs
        spec = load_experiment_file(_write_config(tmp_path, _tiny_config(tmp_path / "out")))
        message = "invalid experiment file: smoothing_window must be an integer, got 2.5"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(spec, smoothing_window=2.5)
        replaced = dataclasses.replace(spec, smoothing_window=np.int64(5),
                                       freq_points=np.int64(64))
        assert type(replaced.smoothing_window) is int and replaced.smoothing_window == 5
        assert type(replaced.freq_points) is int and replaced.freq_points == 64

    @pytest.mark.parametrize("field, value, message", [
        ("smoothing_window", "5", "smoothing_window must be an integer, got '5'"),
        ("tm_slack_db", "a", "tm_slack_db must be a number, got 'a'"),
        ("freq_points", None, "freq_points must be an integer, got None"),
        ("plant", None, "plant must be a PlantModel, got None"),
        ("noise", "white", "noise must be a NoiseSpec, got 'white'"),
        ("variants", [("a", "lms")],
         "variants must be (name, AlgorithmConfig) pairs, got [('a', 'lms')]"),
        ("output_dir", None, "output_dir must be a string, got None"),
        ("description", 3, "description must be a string, got 3"),
        # the variant rules: a replaced spec fails with the line a file fails with
        pytest.param("variants", (("../escaped", _LMS7),),
                     "algorithms[0].name must be non-empty and filesystem-safe, got '../escaped'",
                     id="escaped_name"),
        pytest.param("variants", (("", _LMS7),),
                     "algorithms[0].name must be non-empty and filesystem-safe, got ''",
                     id="empty_name"),
        pytest.param("variants", (("a", _LMS7), ("a", _LMS7)),
                     "algorithm variant names must be unique", id="duplicate_names"),
        pytest.param("variants", (), "algorithms must be a non-empty list", id="no_variants"),
        # unchecked, an infinite slack and a bool window ran
        pytest.param("tm_slack_db", np.inf, "tm_slack_db must be finite, got inf",
                     id="infinite_slack"),
        pytest.param("smoothing_window", True, "smoothing_window must be an integer, got True",
                     id="bool_window"),
    ])
    def test_a_replaced_field_of_the_wrong_type_is_a_config_error_naming_it(self, tmp_path,
                                                                           field, value, message):
        # unchecked, each would end in a bare TypeError or AttributeError, run no
        # variant, or write CSV files that overwrite each other or lie outside out
        spec = load_experiment_file(_write_config(tmp_path, _tiny_config(tmp_path / "out")))
        prefix = "" if message.startswith("algorithm") else "invalid experiment file: "
        with pytest.raises(ConfigError, match=f"^{re.escape(prefix + message)}$"):
            dataclasses.replace(spec, **{field: value})
        assert [path.name for path in tmp_path.iterdir()] == ["exp.json"]

    def test_an_all_zero_plant_is_rejected_for_files_and_replaced_specs(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, plant={"coefficients": [0.0, -0.0]}))
        message = "plant coefficients must have a nonzero norm, as misalignment is relative to it"
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        spec = load_experiment_file(_write_config(tmp_path, _tiny_config(out), "ok.json"))
        with pytest.raises(ConfigError, match=f"^{message}$"):
            dataclasses.replace(spec, plant=PlantModel(h=[0.0]))

    @pytest.mark.parametrize("patch, message", [
        pytest.param({"noise": {"kind": "fir", "sigma": 1.0, "fir_coefficients": [1e308, 1e308]}},
                     "input variance must be finite, got inf", id="fir_taps"),
        pytest.param({"noise": {"kind": "white", "sigma": 1e200}},
                     "input variance must be finite, got inf", id="sigma"),
        pytest.param({"plant": {"coefficients": [1.0, 1e308]}},
                     "plant norm must be finite, got inf", id="plant_coefficients"),
        pytest.param({"plant": {"coefficients": [1.0, 0.5], "measurement_noise_sigma": 1e300}},
                     "measurement noise variance must be finite, got inf",
                     id="measurement_noise_sigma"),
    ])
    def test_finite_values_that_overflow_the_variance_or_plant_norm_fail_validation(
            self, tmp_path, capsys, patch, message):
        # unchecked, each would warn of an overflow and end as a runtime failure (exit 2)
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, **patch))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: invalid experiment file: {message}\n"
        assert not out.exists()

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

    def test_an_overflowing_square_is_a_runtime_failure_without_traceback(self, tmp_path,
                                                                          capsys):
        config = _tiny_config(tmp_path / "out", iterations=300, ensemble_runs=1)
        config["algorithms"] = [{"name": "lms", "kind": "lms", "filter_length": 64, "mu": 1.5}]
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

    @pytest.mark.parametrize("patch, field", [
        ({"noise": {"kind": "white", "sigma": float("nan")}}, "noise.sigma"),
        ({"algorithms": [{"name": "r_ap", "kind": "r_ap", "filter_length": 7,
                          "delta": float("nan")}]}, "algorithms[0].delta"),
        ({"tm_slack_db": float("inf")}, "tm_slack_db"),
        ({"iterations": 50.7}, "iterations"),
        ({"iterations": "50"}, "iterations"),
        ({"ensemble_runs": True}, "ensemble_runs"),
        ({"output_dir": 5}, "output_dir"),
        ({"description": ["colored"]}, "description"),
        ({"algorithms": [{"name": True, "kind": "lms", "filter_length": 7, "mu": 0.05}]},
         "algorithms[0].name"),
    ])
    def test_numbers_must_be_finite_and_integers_integral(self, tmp_path, capsys, patch, field):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, **patch))  # json writes NaN, Infinity
        assert main(["run", str(path)]) == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_null_fields_take_their_defaults(self, tmp_path):
        config = _tiny_config(tmp_path / "out", output_dir=None, description=None,
                              smoothing_window=None)
        spec = load_experiment_file(_write_config(tmp_path, config))
        assert (spec.output_dir, spec.description, spec.smoothing_window) == (".", "", 10)
        with pytest.raises(ConfigError, match="^missing required field: iterations$"):
            load_experiment_file(_write_config(tmp_path, {**config, "iterations": None}))

    @pytest.mark.parametrize("field, value, message", [
        ("smoothing_window", 0, "smoothing_window must be >= 1"),
        ("tm_slack_db", -0.1, "tm_slack_db must be >= 0"),
        ("freq_points", 1, "freq_points must be >= 2"),
    ])
    def test_output_limits_hold_for_files_and_replaced_specs(self, tmp_path, capsys, field,
                                                             value, message):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, **{field: value}))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # dataclasses.replace (perfbench's --seed and --tiny) cannot bypass the limits
        spec = load_experiment_file(_write_config(tmp_path, _tiny_config(out), "ok.json"))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(spec, **{field: value})

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

    def test_a_directory_does_not_shadow_a_bundled_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "white").mkdir()  # as a first run with --out white leaves it
        assert main(["run", "white", "--out", "white"]) == 0
        assert (tmp_path / "white" / "summary.csv").is_file()


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
    spec = ExperimentFile(
        plant=PlantModel(h=[-0.0, 5e-324, 0.5, -1e-300, 1.0]),
        noise=NoiseSpec(NoiseKind.WHITE, sigma=1.0),
        iterations=rows, ensemble_runs=1, base_seed=0,
        variants=tuple((res.name, res.algorithm) for res in results), freq_points=rows,
    )
    return spec, results


def test_summary_quotes_variant_names_as_csv_writer_did(tmp_path):
    # names from experiment files are filesystem-safe; library callers may pass any
    spec, results = _crafted_results(3)
    names = ['a,b', 'say "hi"', "line\nbreak", "naïve"]
    results = [dataclasses.replace(results[0], name=name) for name in names]
    write_artifacts(spec, results, tmp_path / "chunked")
    _reference_artifacts(spec, results, tmp_path / "reference")
    assert ((tmp_path / "chunked" / "summary.csv").read_bytes()
            == (tmp_path / "reference" / "summary.csv").read_bytes())


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_artifacts_are_byte_identical_to_the_per_cell_csv_writer(chunk_rows, tmp_path,
                                                                 monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", chunk_rows)
    # more rows than two chunks, and not a multiple of the chunk size
    rows = 2 * artifacts.CHUNK_ROWS + 17
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


def test_bundled_white_artifacts_keep_their_bytes(tmp_path, capsys):
    assert main(["run", "white", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    pins.assert_pinned(pins.file_sha256(tmp_path, pins.WHITE_ARTIFACT_SHA256),
                       pins.WHITE_ARTIFACT_SHA256)


def test_the_blas_thread_count_does_not_change_the_bytes(tmp_path):
    # OpenBLAS may split a large enough product across its threads; that must change no bit
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        command = [sys.executable, "-m", "apbench.cli", "run", "white", "--out", str(out)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        files[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(files["1"]) == 10 and files["1"] == files["2"]


def _bulk_path_inputs():
    """Rows of (int, float, float) for the bulk path, and the edge rows alone."""
    rng = np.random.default_rng(15)
    rows = 500_000
    low, high = np.log10(1e-3), np.log10(2.0**52)
    floats = 10.0 ** rng.uniform(low, high, 2 * rows) * rng.choice([-1.0, 1.0], 2 * rows)
    edges = [1e-3, 2.0**52, 100.000030517578125]
    edges += [float(f"1e{p}") for p in range(-3, 16)]
    edges = [np.nextafter(v, towards) for v in edges for towards in (0.0, np.inf)] + edges
    # exact ties at the 18th significant digit, which round half to even
    ties = [10.0**d + c * 2.0 ** (d - 17) for d in range(16) for c in (1, 3)]
    ties += [a + c * 2.0**-t for a, t in ((0.5, 18), (0.0625, 19), (0.00390625, 20))
             for c in (1, 3)]
    assert all(len(decimal.Decimal(v).as_tuple().digits) == 18 for v in ties)
    outside = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e17]
    specials = np.array(edges + ties + outside)
    specials = np.concatenate([specials, -specials])
    ints = rng.integers(0, 10**8, rows)
    int_specials = np.array([0, 1, 9, 10, 9999, 10**4, 10**8 - 1, -1, 10**8])
    special_rows = np.stack([np.resize(int_specials, specials.size), specials,
                             np.roll(specials, 1)])
    at = rng.choice(rows, special_rows.shape[1], replace=False)
    columns = [ints, floats[:rows], floats[rows:]]
    for column, special in zip(columns, special_rows):
        column[at] = special
    return columns, [special_rows[0].astype(np.int64), special_rows[1], special_rows[2]]


@pytest.mark.parametrize("chunk_rows", [1, 7, artifacts.CHUNK_ROWS])
def test_the_bulk_path_writes_the_bytes_of_percent_formatting(chunk_rows):
    columns, edge_rows = _bulk_path_inputs()
    if chunk_rows < artifacts.CHUNK_ROWS:
        columns = edge_rows  # one call per chunk: the edges alone
    fields = ["%d", "%.17g", "%.17g"]
    line = b"%d,%.17g,%.17g\n"
    for start in range(0, len(columns[0]), chunk_rows):
        chunk = [c[start:start + chunk_rows] for c in columns]
        expected = b"".join(line % row for row in zip(*(c.tolist() for c in chunk)))
        assert artifacts._bulk_rows(line, fields, chunk) == expected, start


@pytest.mark.parametrize("line, fields, columns", [
    # a %.17g column given as Python ints: int64, not float64
    (b"%d,%.17g\n", ["%d", "%.17g"], [np.array([3, 4]), [1, -2]]),
    # a %d cell of 17 characters, wider than the row's 16 bytes
    (b"%d\n", ["%d"], [np.array([1, 10**16])]),
], ids=["int_float_column", "wide_int_cell"])
def test_the_bulk_path_falls_back_to_percent_formatting(line, fields, columns, monkeypatch):
    fallbacks = []
    rows = artifacts._rows
    monkeypatch.setattr(artifacts, "_rows", lambda *args: fallbacks.append(args) or rows(*args))
    expected = b"".join(line % row for row in zip(*(np.asarray(c).tolist() for c in columns)))
    assert artifacts._bulk_rows(line, fields, columns) == expected
    assert len(fallbacks) == 1


@pytest.mark.parametrize("meas_sigma", [0.0, 0.01])
def test_a_file_generates_its_signals_once_for_all_variants(meas_sigma, tmp_path, monkeypatch):
    config = _tiny_config(tmp_path / "out")
    config["plant"]["measurement_noise_sigma"] = meas_sigma
    spec = load_experiment_file(_write_config(tmp_path, config))
    alone = [run_ensemble(spec.experiment_config(algo)) for _, algo in spec.variants]
    calls = []
    generate_noise = sysid.generate_noise
    monkeypatch.setattr(sysid, "generate_noise", lambda *args: calls.append(args) or
                        generate_noise(*args))
    results = cli.run_experiment_file(spec)
    # one input stream per run, and one measurement stream per run if there is noise
    assert len(calls) == spec.ensemble_runs * (2 if meas_sigma else 1)
    for res, ensemble in zip(results, alone):
        assert res.ensemble.trace.values_db.tobytes() == ensemble.trace.values_db.tobytes()
        for a, b in zip(res.ensemble.runs, ensemble.runs):
            assert a.mse_trace.tobytes() == b.mse_trace.tobytes()
            assert a.final_weights.tobytes() == b.final_weights.tobytes()


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_a_files_signals_are_dropped_when_it_ends(fails, tmp_path, monkeypatch):
    config = _tiny_config(tmp_path / "out")
    if fails:
        # the second variant's order-2 Gram of scalar regressors is singular mid-run
        config["plant"] = {"coefficients": [1.0]}
        config["algorithms"] = [
            {"name": "lms", "kind": "lms", "filter_length": 1, "mu": 0.05},
            {"name": "bndr_lms", "kind": "bndr_lms", "filter_length": 1,
             "mu_mode": "fixed", "mu": 1.0}]
    spec = load_experiment_file(_write_config(tmp_path, config))
    built = []
    signals = sysid._signals

    def recorded(*args):
        x, d = signals(*args)
        built.extend(weakref.ref(a) for a in (x, d))
        return x, d

    monkeypatch.setattr(sysid, "_signals", recorded)
    try:
        cli.run_experiment_file(spec)
    except AdaptationError:
        assert fails
    else:
        assert not fails
    assert len(built) == 2 * len(spec.variants)
    assert sysid._SCOPE.get() is None
    gc.collect()
    assert all(ref() is None for ref in built)


def _lms_sweep(tmp_path, mus, filter_length=7):
    """A file of LMS variants differing only in µ, with R = 4 and measurement noise."""
    config = _tiny_config(tmp_path / "out", iterations=200)
    config["plant"]["measurement_noise_sigma"] = 0.01
    config["algorithms"] = [{"name": f"lms{k}", "kind": "lms", "filter_length": filter_length,
                             "mu": mu} for k, mu in enumerate(mus)]
    return config


def _unscoped(spec):
    """Each variant's run_ensemble result or AdaptationError, each call outside a scope."""
    outcomes = []
    for _, algo in spec.variants:
        try:
            outcomes.append(run_ensemble(spec.experiment_config(algo)))
        except AdaptationError as exc:
            outcomes.append(exc)
    return outcomes


def _assert_same_ensemble(got, expected):
    assert got.trace.values_db.tobytes() == expected.trace.values_db.tobytes()
    assert len(got.runs) == len(expected.runs)
    for a, b in zip(got.runs, expected.runs):
        assert a.mse_trace.tobytes() == b.mse_trace.tobytes()
        assert a.final_weights.tobytes() == b.final_weights.tobytes()
        assert a.total_multiplies == b.total_multiplies


def _record_adapt(monkeypatch):
    """Wraps sysid._adapt; returns the (kind, L, µ column or None, batch) of each call."""
    calls = []
    adapt = sysid._adapt

    def recorded(algo, delta, x, d, *args, mu=None):
        calls.append((algo.kind, algo.filter_length, None if mu is None else mu.ravel().tolist(),
                      d.shape[:-1]))
        return adapt(algo, delta, x, d, *args, mu=mu)

    monkeypatch.setattr(sysid, "_adapt", recorded)
    return calls


@pytest.mark.parametrize("via_flag", [True, False], ids=["out_flag", "output_dir"])
@pytest.mark.parametrize("under", [False, True], ids=["is_a_file", "under_a_file"])
def test_an_output_path_at_or_under_a_file_fails_before_any_run(under, via_flag, tmp_path,
                                                                monkeypatch, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    path = _write_config(tmp_path, _tiny_config(tmp_path if via_flag else out))
    calls = _record_adapt(monkeypatch)
    assert main(["run", str(path)] + (["--out", str(out)] if via_flag else [])) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"{blocker} is not a directory" in err
    assert calls == []
    assert blocker.read_text() == "kept"
    assert not list(tmp_path.rglob("*.csv"))


def test_a_mu_sweep_file_equals_unscoped_runs_bit_for_bit(tmp_path, monkeypatch):
    spec = load_experiment_file(_write_config(tmp_path, _lms_sweep(tmp_path, [0.05, 0.01, 0.1])))
    expected = _unscoped(spec)
    calls = _record_adapt(monkeypatch)
    results = cli.run_experiment_file(spec)
    assert calls == [(AlgorithmKind.LMS, 7, [0.05, 0.01, 0.1], (3, 4))]
    for res, ensemble in zip(results, expected, strict=True):
        _assert_same_ensemble(res.ensemble, ensemble)


def test_a_one_run_mu_sweep_adapts_at_one_axis(tmp_path, monkeypatch):
    # _signals' row-0 views for a lone run keep long_trace's sweep at (V,), not (V, 1)
    config = _lms_sweep(tmp_path, [0.05, 0.01, 0.1])
    config["ensemble_runs"] = 1
    spec = load_experiment_file(_write_config(tmp_path, config))
    calls = _record_adapt(monkeypatch)
    cli.run_experiment_file(spec)
    assert calls == [(AlgorithmKind.LMS, 7, [0.05, 0.01, 0.1], (3,))]


def test_a_mixed_file_adapts_only_its_lms_variants_of_one_length_together(tmp_path,
                                                                         monkeypatch):
    config = _tiny_config(tmp_path / "out", plant={"design": {"num_taps": 5, "cutoff_fn": 0.5}})
    config["algorithms"] = [
        {"name": "lms_a", "kind": "lms", "filter_length": 7, "mu": 0.05},
        {"name": "lms_short", "kind": "lms", "filter_length": 5, "mu": 0.05},
        {"name": "bndr_lms", "kind": "bndr_lms", "filter_length": 7, "mu_mode": "fixed",
         "mu": 1.0},
        {"name": "lms_b", "kind": "lms", "filter_length": 7, "mu": 0.02},
    ]
    spec = load_experiment_file(_write_config(tmp_path, config))
    expected = _unscoped(spec)
    calls = _record_adapt(monkeypatch)
    results = cli.run_experiment_file(spec)
    assert calls == [(AlgorithmKind.LMS, 7, [0.05, 0.02], (2, 4)),
                     (AlgorithmKind.LMS, 5, None, (4,)),
                     (AlgorithmKind.BNDR_LMS, 7, None, (4,))]
    for res, ensemble in zip(results, expected, strict=True):
        _assert_same_ensemble(res.ensemble, ensemble)


def test_a_sweeps_mu_column_is_in_scope_order_whichever_variant_runs_first(tmp_path,
                                                                          monkeypatch):
    config = _tiny_config(tmp_path / "out", plant={"design": {"num_taps": 5, "cutoff_fn": 0.5}})
    config["algorithms"] = [
        {"name": "lms_a", "kind": "lms", "filter_length": 7, "mu": 0.05},
        {"name": "lms_short", "kind": "lms", "filter_length": 5, "mu": 0.05},
        {"name": "bndr_lms", "kind": "bndr_lms", "filter_length": 7, "mu_mode": "fixed",
         "mu": 1.0},
        {"name": "lms_b", "kind": "lms", "filter_length": 7, "mu": 0.02},
    ]
    spec = load_experiment_file(_write_config(tmp_path, config))
    expected = _unscoped(spec)
    calls = _record_adapt(monkeypatch)
    lms_a, _, _, lms_b = (algo for _, algo in spec.variants)
    with sysid._shared_signals([algo for _, algo in spec.variants]):
        got_b = run_ensemble(spec.experiment_config(lms_b))
        got_a = run_ensemble(spec.experiment_config(lms_a))
    assert calls == [(AlgorithmKind.LMS, 7, [0.05, 0.02], (2, 4))]
    _assert_same_ensemble(got_a, expected[0])
    _assert_same_ensemble(got_b, expected[3])


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_diverging_mu_fails_the_file_at_its_own_variant(position, tmp_path, monkeypatch):
    mus = [0.05, 0.01]
    mus.insert(position, 100.0)  # far above 2/(L Var(x)): non-finite within 200 steps
    with pytest.warns(UserWarning, match="expected to diverge"):
        spec = load_experiment_file(_write_config(tmp_path, _lms_sweep(tmp_path, mus)))
    with warnings.catch_warnings(record=True) as expected_warnings:
        warnings.simplefilter("always")
        expected = _unscoped(spec)[:position + 1]
    assert [isinstance(e, AdaptationError) for e in expected] == [False] * position + [True]
    completed = []
    run_ensemble_ = cli.run_ensemble
    monkeypatch.setattr(cli, "run_ensemble",
                        lambda *args, **kwargs: completed.append(run_ensemble_(*args, **kwargs))
                        or completed[-1])
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        try:
            cli.run_experiment_file(spec)
        except AdaptationError as exc:
            error = exc
    assert (str(error), error.run_index, error.iteration) == (
        str(expected[-1]), expected[-1].run_index, expected[-1].iteration)
    assert str(error).endswith(": diverged")
    assert len(completed) == position
    for got, ensemble in zip(completed, expected):
        _assert_same_ensemble(got, ensemble)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in expected_warnings]


def test_a_sweep_adapts_once_inside_its_first_variants_call(tmp_path, monkeypatch):
    # perfbench's step_us times the run_ensemble calls, so the work must not leave them
    spec = load_experiment_file(_write_config(tmp_path, _lms_sweep(tmp_path, [0.05, 0.01, 0.1])))
    entered, active, adapted_in = [], [None], []
    adapt, run_ensemble_ = sysid._adapt, cli.run_ensemble

    def timed(*args, **kwargs):
        active[0] = len(entered)
        entered.append(active[0])
        try:
            return run_ensemble_(*args, **kwargs)
        finally:
            active[0] = None

    def counted(*args, **kwargs):
        adapted_in.append(active[0])
        return adapt(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", timed)
    monkeypatch.setattr(sysid, "_adapt", counted)
    cli.run_experiment_file(spec)
    assert (entered, adapted_in) == ([0, 1, 2], [0])


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_a_sweeps_stored_results_are_dropped_once_taken(fails, tmp_path, monkeypatch):
    # the first variant diverges, so its call raises with the others' results stored
    config = _lms_sweep(tmp_path, [100.0 if fails else 0.05, 0.01, 0.1])
    config["algorithms"].append({"name": "bndr_lms", "kind": "bndr_lms", "filter_length": 7,
                                 "mu_mode": "fixed", "mu": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = load_experiment_file(_write_config(tmp_path, config))
    sweep_errors = []
    adapt, run_ensemble_ = sysid._adapt, cli.run_ensemble

    def recorded(*args, **kwargs):
        errors, *rest = adapt(*args, **kwargs)
        if kwargs.get("mu") is not None:
            sweep_errors.append(weakref.ref(errors))
        return errors, *rest

    def checked(config, **kwargs):
        if config.algorithm.kind is AlgorithmKind.BNDR_LMS:
            # the sweep's last variant has taken its results: nothing holds them
            gc.collect()
            assert sweep_errors and sweep_errors[0]() is None
        return run_ensemble_(config, **kwargs)

    monkeypatch.setattr(sysid, "_adapt", recorded)
    monkeypatch.setattr(cli, "run_ensemble", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            results = cli.run_experiment_file(spec)
        except AdaptationError:
            assert fails
        else:
            assert not fails and len(results) == 4
    assert sysid._SCOPE.get() is None
    gc.collect()
    assert len(sweep_errors) == 1 and sweep_errors[0]() is None


def test_a_replaced_run_single_sees_every_run_of_a_sweep(tmp_path, monkeypatch):
    spec = load_experiment_file(_write_config(tmp_path, _lms_sweep(tmp_path, [0.05, 0.01, 0.1])))
    expected = cli.run_experiment_file(spec)
    calls = _record_adapt(monkeypatch)
    runs = []
    run_single = sysid.run_single
    monkeypatch.setattr(sysid, "run_single",
                        lambda config, r: runs.append((config.algorithm.mu, r))
                        or run_single(config, r))
    results = cli.run_experiment_file(spec)
    assert runs == [(mu, r) for mu in (0.05, 0.01, 0.1) for r in range(4)]
    # each run adapted alone, as a single run
    assert calls == [(AlgorithmKind.LMS, 7, None, ())] * 12
    for res, ref in zip(results, expected, strict=True):
        _assert_same_ensemble(res.ensemble, ref.ensemble)


class ForkLog:
    """Wraps os.fork and os.waitpid to count forks and the children in flight."""

    def __init__(self, monkeypatch):
        self.forks = self.in_flight = self.peak = 0
        real_fork, real_waitpid = os.fork, os.waitpid

        def fork():
            pid = real_fork()
            if pid:
                self.forks += 1
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
            return pid

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            if reaped[0]:
                self.in_flight -= 1
            return reaped

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)


def _forking(monkeypatch, slots=2, parallel_rows=8):
    """Files of ``parallel_rows`` rows or more go to children, ``slots`` at a time."""
    monkeypatch.setattr(artifacts, "PARALLEL_ROWS", parallel_rows)
    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: slots)
    return ForkLog(monkeypatch)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_and_forked(spec, results, tmp_path, monkeypatch, parallel_rows):
    """Writes the artifacts serially, then forked; returns the fork log."""
    with monkeypatch.context() as serial:
        serial.setattr(artifacts, "_usable_cpus", lambda: 1)
        write_artifacts(spec, results, tmp_path / "serial")
    log = _forking(monkeypatch, parallel_rows=parallel_rows)
    write_artifacts(spec, results, tmp_path / "forked")
    files = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "forked").iterdir())
    for file in files:
        assert ((tmp_path / "forked" / file).read_bytes()
                == (tmp_path / "serial" / file).read_bytes()), file
    _assert_no_child_left()
    return log


def test_forked_artifacts_match_the_serial_ones_for_crafted_results(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts, "CHUNK_ROWS", 7)
    spec, results = _crafted_results(3 * 7 + 2)
    with np.errstate(over="ignore"):
        log = _serial_and_forked(spec, results, tmp_path, monkeypatch, parallel_rows=8)
    # the two _mse.csv and two _freqresp.csv files; 7 and 6 weight rows and
    # the summary stay below the threshold
    assert log.forks == 4


def test_forked_artifacts_match_the_serial_ones_for_the_white_config(tmp_path, monkeypatch):
    spec = load_experiment_file(resolve_config_path("white"))
    results = cli.run_experiment_file(spec)
    # 500-row traces and 512-row frequency responses; 13 weight rows
    log = _serial_and_forked(spec, results, tmp_path, monkeypatch, parallel_rows=500)
    assert log.forks == 6


@pytest.mark.parametrize("slots", [2, 3])
def test_children_in_flight_never_exceed_the_usable_cpus(slots, tmp_path, monkeypatch):
    log = _forking(monkeypatch, slots=slots)
    spec, results = _crafted_results(20)
    with np.errstate(over="ignore"):
        write_artifacts(spec, results, tmp_path)
    assert (log.forks, log.peak, log.in_flight) == (4, slots, 0)
    _assert_no_child_left()


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_mask_are_the_cpu_count(cpu_count, usable, monkeypatch):
    # a platform that cannot restrict a process to some CPUs has no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert artifacts._usable_cpus() == usable


def test_an_interrupted_parent_reaps_its_children_and_forks_no_more(tmp_path, monkeypatch):
    log = _forking(monkeypatch)

    def interrupted(text):
        raise KeyboardInterrupt

    # the summary comes last: both _mse.csv children run, and both
    # _freqresp.csv files wait for a free slot
    monkeypatch.setattr(artifacts, "_csv_text", interrupted)
    spec, results = _crafted_results(20)
    with np.errstate(over="ignore"), pytest.raises(KeyboardInterrupt):
        write_artifacts(spec, results, tmp_path)
    assert (log.forks, log.in_flight) == (2, 0)
    assert not (tmp_path / "lms_2_freqresp.csv").exists()
    _assert_no_child_left()
    assert len((tmp_path / "lms_2_mse.csv").read_text().splitlines()) == 21


def test_a_file_that_cannot_get_a_child_is_written_in_process(tmp_path, monkeypatch):
    spec, results = _crafted_results(20)
    attempts = []

    def no_process():
        attempts.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    with np.errstate(over="ignore"):
        write_artifacts(spec, results, tmp_path / "serial")
        monkeypatch.setattr(artifacts, "PARALLEL_ROWS", 8)
        monkeypatch.setattr(artifacts, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_process)
        write_artifacts(spec, results, tmp_path / "forked")
    assert len(attempts) == 4
    for path in (tmp_path / "serial").iterdir():
        assert (tmp_path / "forked" / path.name).read_bytes() == path.read_bytes(), path.name


def test_below_the_threshold_nothing_forks(tmp_path, monkeypatch, capsys):
    log = ForkLog(monkeypatch)
    monkeypatch.setattr(artifacts, "_usable_cpus", lambda: 2)
    assert main(["run", "white", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert log.forks == 0


def test_a_file_a_child_cannot_write_fails_the_run_with_one_line(tmp_path, monkeypatch, capsys):
    log = _forking(monkeypatch)
    out = tmp_path / "out"
    (out / "bndr_lms_mse.csv").mkdir(parents=True)
    assert main(["run", str(_write_config(tmp_path, _tiny_config(out)))]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"runtime error: cannot write \S+bndr_lms_mse\.csv: .*Is a directory.*\n",
                        err)
    # every other _mse.csv and _freqresp.csv child still ran and was reaped
    assert (log.forks, log.in_flight) == (6, 0)
    _assert_no_child_left()
    assert len((out / "r_ap_mse.csv").read_text().splitlines()) == 61


def test_a_file_this_process_cannot_write_reaps_the_children_and_forks_no_more(
        tmp_path, monkeypatch, capsys):
    log = _forking(monkeypatch)
    out = tmp_path / "out"
    # the 7-row weights files are written here, while both slots hold an _mse.csv child
    (out / "lms_weights.csv").mkdir(parents=True)
    assert main(["run", str(_write_config(tmp_path, _tiny_config(out)))]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"runtime error: .*Is a directory: '\S+lms_weights\.csv'\n", err)
    assert (log.forks, log.in_flight) == (2, 0)
    _assert_no_child_left()
    for name in ("lms_mse.csv", "bndr_lms_mse.csv"):
        assert len((out / name).read_text().splitlines()) == 61
    # the queued r_ap_mse.csv was dropped, never forked
    assert not (out / "r_ap_mse.csv").exists()


def test_forked_writing_raises_no_warning_in_development_mode(tmp_path):
    # -W error turns a fork, resource or deprecation warning into a failure
    code = ("import sys; from apbench import artifacts, cli; "
            "artifacts.PARALLEL_ROWS = 100; artifacts._usable_cpus = lambda: 2; "
            f"sys.exit(cli.main(['run', 'white', '--out', {str(tmp_path)!r}]))")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stderr) == (0, "")
    pins.assert_pinned(pins.file_sha256(tmp_path, pins.WHITE_ARTIFACT_SHA256),
                       pins.WHITE_ARTIFACT_SHA256)


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

    def test_negative_control_perturbed_step(self, monkeypatch, capsys):
        real = apbench.selftest.ap_step

        def perturbed(w, data, d_vec, mu, delta):
            return real(w, data, d_vec, mu * (1 + 1e-6), delta)  # a slightly long step

        monkeypatch.setattr(apbench.selftest, "ap_step", perturbed)
        assert main(["selftest"]) != 0
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        assert failed == ["nlms_equivalence", "aposteriori_contraction"]


def test_usage_errors_are_validation_failures():
    assert main(["bogus-command"]) == 1
    assert main(["run"]) == 1


def test_import_leaves_scipy_signal_unloaded(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked, the CLI imports,
    # both colorings generate and a colored run writes its artifacts
    out = tmp_path / "out"
    config = _tiny_config(out, noise={"kind": "ar1", "sigma": 1.0, "ar_coefficient": 0.9})
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from apbench import cli\n"
            "from apbench.signals import NoiseKind, NoiseSpec, generate_noise\n"
            "generate_noise(NoiseSpec(NoiseKind.AR1_COLORED, 1.0, ar_coefficient=0.9), 50)\n"
            "generate_noise(NoiseSpec(NoiseKind.FIR_COLORED, 1.0, fir_coefficients=(1, 2)), 50)\n"
            "sys.exit(cli.main(['run', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", code, str(_write_config(tmp_path, config))],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").is_file()


# The CLI contract as properties: every file ends in exit 0, 1 or 2 and never in a
# traceback, and every field a library config is given is accepted or refused by name.
# derandomize draws the same examples on every run, and database=None keeps no example
# database, so a failure found once cannot change what a later run draws.
_PROPERTY = settings(derandomize=True, database=None, deadline=None)
_EXTREMES = [1e308, -1e308, 5e-324, -0.0, float("inf"), float("nan")]
_WRONG_TYPES = [None, True, "1", [1.0], {"a": 1}]
# a few strings, as st.text() builds a Unicode table that costs seconds on a fresh checkout
_STRINGS = st.sampled_from(["", "0.5", "lms", "white", "é"])
_VARIANT = st.fixed_dictionaries({"name": st.sampled_from(["a", "b", "c"]),
                                  "kind": st.sampled_from(["lms", "bndr_lms", "r_ap"]),
                                  "filter_length": st.integers(1, 8)})
_PLAUSIBLE = {  # by JSON key, whichever object holds it
    "iterations": st.integers(1, 40), "ensemble_runs": st.integers(1, 3),
    "base_seed": st.integers(0, 2**64), "output_dir": st.just("ignored"),
    "smoothing_window": st.integers(1, 50), "tm_slack_db": st.floats(0.0, 3.0),
    "freq_points": st.integers(2, 64), "description": _STRINGS,
    "plant": st.just({"coefficients": [1.0, -0.5]}),
    "noise": st.just({"kind": "white", "sigma": 1.0}),
    "algorithms": st.lists(_VARIANT, max_size=2),
    "design": st.just({"num_taps": 3, "cutoff_fn": 0.5}),
    "coefficients": st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
    "measurement_noise_sigma": st.floats(0.0, 0.5), "num_taps": st.integers(-1, 9),
    "cutoff_fn": st.floats(0.0, 1.0),
    "kind": st.sampled_from(["white", "ar1", "fir", "lms", "bndr_lms", "r_ap"]),
    "sigma": st.floats(0.0, 2.0), "ar_coefficient": st.floats(-1.0, 1.0),
    "fir_coefficients": st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    "name": st.sampled_from(["a", "lms", "../x", ""]), "filter_length": st.integers(0, 8),
    "mu": st.floats(0.0, 2.0), "mu_mode": st.sampled_from(["fixed", "auto", "pink"]),
    "projection_order": st.integers(0, 4), "delta": st.floats(0.0, 1.0),
    "normalization_order": st.integers(0, 4),
}
_KEYS = {
    "file": ["iterations", "ensemble_runs", "base_seed", "plant", "noise", "algorithms",
             "output_dir", "smoothing_window", "tm_slack_db", "freq_points", "description"],
    "plant": ["design", "coefficients", "measurement_noise_sigma"],
    "design": ["num_taps", "cutoff_fn"],
    "noise": ["kind", "sigma", "ar_coefficient", "fir_coefficients"],
    "variant": ["name", "kind", "filter_length", "mu", "mu_mode", "projection_order", "delta",
                "normalization_order"],
}


@st.composite
def _experiment_files(draw):
    """A small runnable experiment file (T <= 40, R <= 3, L <= 8), then up to three edits:
    a plausible value, an extreme or a wrong type set, a key dropped or an unknown one added."""
    variants = []
    for kind in draw(st.lists(st.sampled_from(["lms", "bndr_lms", "r_ap"]), min_size=1,
                              max_size=3, unique=True)):
        variant = {"name": kind, "kind": kind, "filter_length": draw(st.integers(1, 8))}
        if kind == "lms":
            variant["mu"] = draw(st.floats(0.001, 0.2))
        if kind == "r_ap":
            variant["projection_order"] = draw(st.integers(1, 4))
        variants.append(variant)
    design = {"num_taps": draw(st.sampled_from([1, 3, 5, 7])),
              "cutoff_fn": draw(st.floats(0.05, 0.95))}
    plant = draw(st.sampled_from([{"design": design},
                                  {"coefficients": [1.0, 0.5], "measurement_noise_sigma": 0.1}]))
    noise = draw(st.sampled_from([{"kind": "white", "sigma": 1.0},
                                  {"kind": "ar1", "sigma": 0.5, "ar_coefficient": 0.6},
                                  {"kind": "fir", "sigma": 1.0, "fir_coefficients": [1.0, 0.5]}]))
    config = {key: draw(_PLAUSIBLE[key])
              for key in ("iterations", "ensemble_runs", "base_seed", "freq_points")}
    config.update(plant=plant, noise=noise, algorithms=variants)
    objects = [("file", config), ("plant", plant), ("noise", noise)]
    objects += [("variant", v) for v in variants]
    if "design" in plant:
        objects.append(("design", design))
    for _ in range(draw(st.integers(0, 3))):
        where, obj = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(_KEYS[where] + ["unknown_key"]))
        if draw(st.integers(0, 3)) == 0:
            obj.pop(key, None)
        else:
            obj[key] = draw(st.one_of(_PLAUSIBLE.get(key, st.just(1)),
                                      st.sampled_from(_EXTREMES + _WRONG_TYPES)))
    return config


@settings(_PROPERTY, max_examples=150)
@given(config=_experiment_files())
def test_every_file_ends_in_its_exit_code_with_one_error_line_or_every_artifact(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "exp.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))  # json writes nan and inf as NaN and Infinity
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")  # e.g. the LMS step-size warning
            code = main(["run", str(path), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        if code:
            assert re.fullmatch(r"(runtime )?error: [^\n]*\n", err), err
            assert not out.exists()
        else:
            assert err == ""
            names = [v["name"] for v in config["algorithms"]]
            assert sorted(p.name for p in out.iterdir()) == sorted(
                [f"{n}_{s}.csv" for n in names for s in ("mse", "weights", "freqresp")]
                + ["summary.csv"])


_LMS4 = AlgorithmConfig(AlgorithmKind.LMS, filter_length=4, mu=0.1)
_CONFIGS = [
    ExperimentFile(plant=PlantModel(h=[1.0, -0.5]), noise=NoiseSpec(NoiseKind.WHITE, 1.0),
                   iterations=20, ensemble_runs=2, base_seed=3, variants=(("lms", _LMS4),)),
    _LMS4,
    AlgorithmConfig(AlgorithmKind.BNDR_LMS, filter_length=4),
    AlgorithmConfig(AlgorithmKind.R_AP, filter_length=4, projection_order=3),
    AlgorithmConfig(AlgorithmKind.R_AP, filter_length=4, mu_mode=MuMode.FIXED, mu=0.5,
                    delta=1e-3),
    NoiseSpec(NoiseKind.WHITE, 1.0),
    NoiseSpec(NoiseKind.AR1_COLORED, 1.0, ar_coefficient=0.5, seed=9),
    NoiseSpec(NoiseKind.FIR_COLORED, 1.0, fir_coefficients=(1.0, 0.5)),
    PlantModel(h=[1.0, 0.5]),
    PlantModel(h=[1.0], measurement_noise_sigma=0.1),
]
_FIELD_VALUES = st.one_of(
    st.integers(-3, 10), st.integers(-2**70, 2**70), st.floats(), st.booleans(), st.none(),
    _STRINGS, st.sampled_from(_EXTREMES + [2**64, np.int64(3), np.float64(0.5),
                                                      np.array([1.0, 2.0]), np.array(0.5)]),
    st.lists(st.floats(), max_size=3).map(tuple), st.lists(_STRINGS, max_size=2),
    st.sampled_from([*AlgorithmKind, *MuMode, *NoiseKind, *_CONFIGS]),
    st.sampled_from([(("a", _LMS4),), (("a", _LMS4), ("a", _LMS4)), (("../x", _LMS4),), (),
                     [("a", _LMS4)]]),
)
# the name a refusal must give: variants are the file's algorithms, and h is the plant's
_NAMES = {"variants": ("variants", "algorithm"), "h": ("plant h",)}


@settings(_PROPERTY, max_examples=500)
@given(data=st.data())
def test_a_replaced_field_is_accepted_or_refused_naming_it(data):
    base = data.draw(st.sampled_from(_CONFIGS))
    field = data.draw(st.sampled_from([f.name for f in dataclasses.fields(base)]))
    value = data.draw(_FIELD_VALUES)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. a plant longer than the filter
        try:
            dataclasses.replace(base, **{field: value})
        except ValueError as exc:  # ConfigError included
            names = _NAMES.get(field, (field,))
            if value is None or isinstance(value, enum.Enum):
                # a member, or None for the default, may break a rule shared with another
                # field: then that field or the member may be the one named
                names += tuple(f.name for f in dataclasses.fields(base))
                names += (value.value,) if value is not None else ()
            assert any(name in str(exc) for name in names), (field, value, str(exc))
