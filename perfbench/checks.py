"""Output checks applied to every repeat of a workload.

At any seed the learning curves and mean final weights must be finite, and
the colored workload must keep acceptance criterion 3. At the experiment
file's own seed the outputs must also match the stored reference, taken from
the commit that introduced the benchmark, within the repository's oracle
tolerances. Curves are compared in the linear domain: near the -300 dB floor
a reordering of float operations moves the dB figures but not the linear
values beyond atol.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def linear_curve(ensemble) -> np.ndarray:
    """Ensemble-mean squared a-priori error per iteration (linear, not dB)."""
    return np.mean(np.stack([run.mse_trace for run in ensemble.runs]), axis=0)


def reference_arrays(results) -> dict[str, np.ndarray]:
    arrays = {}
    for res in results:
        arrays[f"{res.name}.curve"] = linear_curve(res.ensemble)
        arrays[f"{res.name}.weights"] = res.ensemble.final_weights_mean
    return arrays


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.npz"


def experiment_key(spec) -> tuple[int, int, int]:
    return (spec.base_seed, spec.ensemble_runs, spec.iterations)


def load_reference(workload_name: str, spec) -> dict[str, np.ndarray] | None:
    """Stored outputs for this experiment, or None when they do not apply.

    The reference applies only to the experiment it was taken from: the same
    seed, ensemble size and iteration count.
    """
    path = reference_path(workload_name)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    key = arrays.pop("experiment")
    if tuple(int(v) for v in key) != experiment_key(spec):
        return None
    return arrays


def check_outputs(results, reference, criterion_3: bool) -> list[str]:
    """Problems found in one repeat's results; empty when all checks pass."""
    produced = reference_arrays(results)
    problems = [f"{name} is not finite" for name, array in produced.items()
                if not np.all(np.isfinite(array))]
    if reference is not None:
        if sorted(produced) != sorted(reference):
            problems.append(f"outputs {sorted(produced)} do not match reference "
                            f"{sorted(reference)}")
        else:
            for name, expected in reference.items():
                got = produced[name]
                if got.shape != expected.shape or not np.allclose(got, expected,
                                                                  rtol=RTOL, atol=ATOL):
                    problems.append(f"{name} differs from the reference "
                                    f"(rtol {RTOL}, atol {ATOL})")
    if criterion_3:
        problems.extend(check_criterion_3(results))
    return problems


def check_criterion_3(results) -> list[str]:
    """Colored-noise gap: LMS-RAP >= 40 dB, LMS-BNDR >= 20 dB, R-AP <= BNDR <= LMS."""
    finals = {res.name: res.final_smoothed_db for res in results}
    gap_rap = finals["lms"] - finals["r_ap"]
    gap_bndr = finals["lms"] - finals["bndr_lms"]
    problems = []
    if gap_rap < 40.0:
        problems.append(f"criterion 3: LMS-RAP gap {gap_rap:.1f} dB < 40")
    if gap_bndr < 20.0:
        problems.append(f"criterion 3: LMS-BNDR gap {gap_bndr:.1f} dB < 20")
    if not finals["r_ap"] <= finals["bndr_lms"] <= finals["lms"]:
        problems.append(f"criterion 3: ordering R-AP <= BNDR-LMS <= LMS violated: {finals}")
    return problems
