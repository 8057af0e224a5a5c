"""Configuration-driven experiment runner with CSV artifacts.

Commands:
  run <config.json> [--out DIR] [--threads K]   run every algorithm variant
  design <num_taps> <cutoff_fn>                 print high-pass coefficients
  selftest                                      run built-in property suites

Config files are strict JSON: unknown keys are rejected and every field is
validated against the library invariants before any run starts. All variants
in one file consume identical noise realizations (the per-run seeds derive
only from base_seed), so their learning curves are directly comparable.
Outputs are deterministic: rerunning a config reproduces byte-identical CSV
files. Every float is written as "%.17g" (the same text as
format(float(v), ".17g")), and each file is formatted and written in chunks
of CHUNK_ROWS rows.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import selftest as selftest_mod
from .algorithms import AlgorithmConfig, AlgorithmKind, MuMode, step_multiplies_literal
from .metrics import TmReport, compute_tm, misalignment_db, smooth
from .signals import NoiseKind, NoiseSpec, design_highpass_fir, frequency_response
from .sysid import AdaptationError, EnsembleResult, ExperimentConfig, PlantModel, run_ensemble

__all__ = [
    "ConfigError",
    "ExperimentFile",
    "VariantResult",
    "load_experiment_file",
    "resolve_config_path",
    "run_experiment_file",
    "write_artifacts",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Invalid command line or experiment file."""


@dataclasses.dataclass(frozen=True)
class ExperimentFile:
    """Parsed and validated experiment description."""

    plant: PlantModel
    noise: NoiseSpec
    iterations: int
    ensemble_runs: int
    base_seed: int
    variants: tuple[tuple[str, AlgorithmConfig], ...]
    output_dir: str = "."
    smoothing_window: int = 10
    tm_slack_db: float = 0.1
    freq_points: int = 512
    description: str = ""

    def experiment_config(self, algorithm: AlgorithmConfig) -> ExperimentConfig:
        return ExperimentConfig(
            plant=self.plant,
            algorithm=algorithm,
            noise=self.noise,
            iterations=self.iterations,
            ensemble_runs=self.ensemble_runs,
            base_seed=self.base_seed,
        )


@dataclasses.dataclass(frozen=True)
class VariantResult:
    name: str
    algorithm: AlgorithmConfig
    ensemble: EnsembleResult
    smoothed_db: np.ndarray
    tm: TmReport
    misalignment_db: float
    total_multiplies_corrected: int
    total_multiplies_literal: int

    @property
    def final_smoothed_db(self) -> float:
        return float(self.smoothed_db[-1])


def _pop_known(obj: dict, context: str, known: dict):
    """Extract known keys from a JSON object, rejecting everything else."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")
    return {key: obj.get(key, default) for key, default in known.items()}


def _require(value, context: str):
    if value is None:
        raise ConfigError(f"missing required field: {context}")
    return value


def _number(value, context: str, default, kind):
    """A finite JSON number as ``kind`` (int: integral values only); None gives ``default``.

    Booleans and strings are rejected, and so is None when ``default`` is ``...``.
    """
    if value is None:
        return _require(None, context) if default is ... else default
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (kind is float or value == int(value))):
        return kind(value)
    raise ConfigError(f"{context} must be {'an integer' if kind is int else 'a finite number'}, "
                      f"got {value!r}")


def _int(value, context: str, default=...):
    return _number(value, context, default, int)


def _float(value, context: str, default=...):
    return _number(value, context, default, float)


def _floats(values, context: str) -> list[float]:
    return [_float(v, f"{context}[{i}]") for i, v in enumerate(values)]


def _enum(cls, value, context: str):
    try:
        return cls(value)
    except ValueError as exc:
        raise ConfigError(
            f"{context} must be one of {[m.value for m in cls]}, got {value!r}") from exc


def _parse_plant(obj) -> PlantModel:
    fields = _pop_known(obj, "plant", {
        "design": None, "coefficients": None, "measurement_noise_sigma": 0.0,
    })
    if (fields["design"] is None) == (fields["coefficients"] is None):
        raise ConfigError("plant needs exactly one of 'design' or 'coefficients'")
    try:
        if fields["design"] is not None:
            d = _pop_known(fields["design"], "plant.design", {"num_taps": None, "cutoff_fn": None})
            h = design_highpass_fir(_int(d["num_taps"], "plant.design.num_taps"),
                                    _float(d["cutoff_fn"], "plant.design.cutoff_fn"))
        else:
            h = _floats(fields["coefficients"], "plant.coefficients")
        return PlantModel(h=h, measurement_noise_sigma=_float(
            fields["measurement_noise_sigma"], "plant.measurement_noise_sigma"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid plant: {exc}") from exc


def _parse_noise(obj) -> NoiseSpec:
    fields = _pop_known(obj, "noise", {
        "kind": None, "sigma": None, "ar_coefficient": None, "fir_coefficients": None,
    })
    kind = _enum(NoiseKind, _require(fields["kind"], "noise.kind"), "noise.kind")
    if kind is not NoiseKind.AR1_COLORED and fields["ar_coefficient"] is not None:
        raise ConfigError("noise.ar_coefficient is only valid for kind 'ar1'")
    if kind is not NoiseKind.FIR_COLORED and fields["fir_coefficients"] is not None:
        raise ConfigError("noise.fir_coefficients is only valid for kind 'fir'")
    fir = fields["fir_coefficients"]
    try:
        return NoiseSpec(
            kind=kind,
            sigma=_float(fields["sigma"], "noise.sigma"),
            ar_coefficient=_float(fields["ar_coefficient"], "noise.ar_coefficient", 0.0),
            fir_coefficients=None if fir is None else tuple(_floats(fir, "noise.fir_coefficients")),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid noise: {exc}") from exc


def _parse_variant(obj, index: int) -> tuple[str, AlgorithmConfig]:
    ctx = f"algorithms[{index}]"
    fields = _pop_known(obj, ctx, {
        "name": None, "kind": None, "filter_length": None, "mu": None,
        "mu_mode": None, "projection_order": None, "delta": None,
        "normalization_order": None,
    })
    name = str(_require(fields["name"], f"{ctx}.name"))
    if not name or any(c not in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-." for c in name):
        raise ConfigError(f"{ctx}.name must be non-empty and filesystem-safe, got {name!r}")
    kind = _enum(AlgorithmKind, _require(fields["kind"], f"{ctx}.kind"), f"{ctx}.kind")
    mu_mode = None if fields["mu_mode"] is None else \
        _enum(MuMode, fields["mu_mode"], f"{ctx}.mu_mode")
    try:
        config = AlgorithmConfig(
            kind=kind,
            filter_length=_int(fields["filter_length"], f"{ctx}.filter_length"),
            mu=_float(fields["mu"], f"{ctx}.mu", None),
            mu_mode=mu_mode,
            projection_order=_int(fields["projection_order"], f"{ctx}.projection_order", None),
            delta=_float(fields["delta"], f"{ctx}.delta", None),
            normalization_order=_int(fields["normalization_order"], f"{ctx}.normalization_order",
                                     None),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {ctx}: {exc}") from exc
    return name, config


def load_experiment_file(path: Path) -> ExperimentFile:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc

    # the optional top-level keys default to ExperimentFile's own field defaults
    fields = _pop_known(raw, "experiment file", {
        "iterations": None, "ensemble_runs": None, "base_seed": None,
        "plant": None, "noise": None, "algorithms": None,
        **{f.name: f.default for f in dataclasses.fields(ExperimentFile)
           if f.default is not dataclasses.MISSING},
    })
    plant = _parse_plant(_require(fields["plant"], "plant"))
    noise = _parse_noise(_require(fields["noise"], "noise"))
    variants_raw = _require(fields["algorithms"], "algorithms")
    if not isinstance(variants_raw, list) or not variants_raw:
        raise ConfigError("algorithms must be a non-empty list")
    variants = tuple(_parse_variant(v, i) for i, v in enumerate(variants_raw))
    names = [n for n, _ in variants]
    if len(set(names)) != len(names):
        raise ConfigError("algorithm variant names must be unique")

    try:
        spec = ExperimentFile(
            plant=plant,
            noise=noise,
            iterations=_int(fields["iterations"], "iterations"),
            ensemble_runs=_int(fields["ensemble_runs"], "ensemble_runs"),
            base_seed=_int(fields["base_seed"], "base_seed"),
            variants=variants,
            output_dir=str(fields["output_dir"]),
            smoothing_window=_int(fields["smoothing_window"], "smoothing_window"),
            tm_slack_db=_float(fields["tm_slack_db"], "tm_slack_db"),
            freq_points=_int(fields["freq_points"], "freq_points"),
            description=str(fields["description"]),
        )
        if spec.smoothing_window < 1:
            raise ConfigError("smoothing_window must be >= 1")
        if not spec.tm_slack_db >= 0:
            raise ConfigError("tm_slack_db must be >= 0")
        if spec.freq_points < 2:
            raise ConfigError("freq_points must be >= 2")
        # validate every variant's full experiment before any run starts
        for _, algo in spec.variants:
            spec.experiment_config(algo)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid experiment file: {exc}") from exc
    return spec


def resolve_config_path(name: str) -> Path:
    """Resolve a filesystem path or the name of a bundled config."""
    p = Path(name)
    if p.exists():
        return p
    for candidate in (name, f"{name}.json"):
        res = resources.files("apbench").joinpath("configs", candidate)
        if res.is_file():
            return Path(str(res))
    raise ConfigError(f"config not found: {name}")


def run_experiment_file(spec: ExperimentFile, threads: int = 1) -> list[VariantResult]:
    results = []
    for name, algo in spec.variants:
        ensemble = run_ensemble(spec.experiment_config(algo), max_workers=threads)
        window = min(spec.smoothing_window, spec.iterations)
        smoothed = smooth(ensemble.trace, window)
        tm = compute_tm(smoothed, window=window, slack_db=spec.tm_slack_db)
        mis = misalignment_db(ensemble.final_weights_mean, spec.plant.h)
        results.append(VariantResult(
            name=name,
            algorithm=algo,
            ensemble=ensemble,
            smoothed_db=smoothed.values_db,
            tm=tm,
            misalignment_db=mis,
            total_multiplies_corrected=ensemble.runs[0].total_multiplies,
            total_multiplies_literal=spec.iterations * step_multiplies_literal(
                algo.kind, algo.filter_length, algo.projection_order),
        ))
    return results


# rows formatted and written at a time: only one chunk of each column is
# ever converted to Python objects, so writing adds little to peak memory
CHUNK_ROWS = 4096


def _write_columns(path: Path, header: list[str], row_format: str, columns) -> None:
    """Write equally long columns as a CSV file, one ``row_format % row`` per line.

    Columns are numpy arrays or Python sequences (ranges, lists). Floats go
    through ``%.17g``, which is exactly ``format(float(v), ".17g")``, nan,
    inf and -0 included. Numbers never need CSV quoting; text columns are
    passed through _csv_text first.
    """
    line = row_format + "\n"
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, rows, CHUNK_ROWS):
            chunk = [c[start:start + CHUNK_ROWS] for c in columns]
            cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in chunk)
            f.write("".join(map(line.__mod__, zip(*cells))))


def _csv_text(text: str) -> str:
    """``text`` as a CSV field, quoted exactly where csv.writer would quote it."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_artifacts(spec: ExperimentFile, results: list[VariantResult], out_dir: Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = spec.plant.h
    plant_fr = frequency_response(h, spec.freq_points)
    for res in results:
        trace = res.ensemble.trace.values_db
        _write_columns(out / f"{res.name}_mse.csv",
                       ["iteration", "mse_db", "smoothed_mse_db"], "%d,%.17g,%.17g",
                       [range(len(trace)), trace, res.smoothed_db])

        w_mean = res.ensemble.final_weights_mean
        taps = max(w_mean.shape[0], h.shape[0])
        _write_columns(out / f"{res.name}_weights.csv",
                       ["tap_index", "adaptive_weight", "plant_weight"], "%d,%.17g,%.17g",
                       [range(taps)] + [np.pad(v, (0, taps - v.shape[0])) for v in (w_mean, h)])

        adaptive_fr = frequency_response(w_mean, spec.freq_points)
        _write_columns(out / f"{res.name}_freqresp.csv",
                       ["omega_over_pi", "magnitude_db", "plant_magnitude_db"],
                       "%.17g,%.17g,%.17g",
                       [adaptive_fr.omegas / np.pi, adaptive_fr.magnitude_db,
                        plant_fr.magnitude_db])

    summary = [(_csv_text(res.name), res.final_smoothed_db, res.tm.t_m, res.misalignment_db,
                res.total_multiplies_literal, res.total_multiplies_corrected)
               for res in results]
    _write_columns(out / "summary.csv",
                   ["algorithm", "final_smoothed_mse_db", "t_m", "misalignment_db",
                    "total_multiplies_literal", "total_multiplies_corrected"],
                   "%s,%.17g,%d,%.17g,%d,%d", list(zip(*summary)))


def cmd_run(config: str, out: str | None, threads: int) -> int:
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    path = resolve_config_path(config)
    spec = load_experiment_file(path)
    results = run_experiment_file(spec, threads=threads)
    write_artifacts(spec, results, Path(out) if out is not None else Path(spec.output_dir))
    for res in results:
        print(f"{res.name}: final smoothed MSE {res.final_smoothed_db:.1f} dB, "
              f"t_m {res.tm.t_m}, misalignment {res.misalignment_db:.1f} dB")
    return EXIT_OK


def cmd_design(num_taps: int, cutoff_fn: float) -> int:
    try:
        coeffs = design_highpass_fir(num_taps, cutoff_fn)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for c in coeffs:
        print("%.17g" % c)
    return EXIT_OK


def cmd_selftest() -> int:
    outcome = selftest_mod.run_all()
    failed = False
    for name, (ok, detail) in outcome.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed = failed or not ok
    return EXIT_RUNTIME if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation failures, not exit 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apbench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all variants of an experiment file")
    p_run.add_argument("config", help="path to an experiment JSON file, or the name "
                                      "of a bundled config (white, colored)")
    p_run.add_argument("--out", default=None, help="output directory (overrides the config)")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility (must be >= 1); ensemble runs "
                            "are batched in one loop, so the value changes neither "
                            "execution nor outputs (default 1)")

    p_design = sub.add_parser("design", help="print high-pass FIR coefficients")
    p_design.add_argument("num_taps", type=int)
    p_design.add_argument("cutoff_fn", type=float)

    sub.add_parser("selftest", help="run built-in property suites")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args.config, args.out, args.threads)
        if args.command == "design":
            return cmd_design(args.num_taps, args.cutoff_fn)
        return cmd_selftest()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AdaptationError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
