"""Acceptance suite: every criterion is checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The white and colored benchmark bundles execute once per
session and are shared across criteria.
"""

import time

import numpy as np
import pytest

from apbench.algorithms import AlgorithmKind, i_inv, step_multiplies, step_multiplies_literal
from apbench.cli import load_experiment_file, main, resolve_config_path, run_experiment_file
from apbench.metrics import misalignment_db
from apbench.selftest import aposteriori_contraction, nlms_equivalence, solver_residual


def _report(criterion: int, description: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} [{'PASS' if ok else 'FAIL'}] {description}: {detail}")


@pytest.fixture(scope="module")
def white_run():
    spec = load_experiment_file(resolve_config_path("white"))
    started = time.perf_counter()
    results = run_experiment_file(spec, threads=1)
    elapsed = time.perf_counter() - started
    return spec, {r.name: r for r in results}, elapsed


@pytest.fixture(scope="module")
def colored_run():
    spec = load_experiment_file(resolve_config_path("colored"))
    results = run_experiment_file(spec, threads=1)
    return spec, {r.name: r for r in results}


def test_criterion_1_white_noise_convergence(white_run):
    _, by_name, elapsed = white_run
    finals = {name: res.final_smoothed_db for name, res in by_name.items()}
    all_below = all(v < -60.0 for v in finals.values())
    rap_lowest = finals["r_ap"] <= min(finals["lms"], finals["bndr_lms"])
    in_time = elapsed < 30.0
    ok = all_below and rap_lowest and in_time
    _report(1, "white-noise convergence",
            ok, f"final smoothed MSE {['%s=%.1f dB' % kv for kv in finals.items()]}, "
                f"runtime {elapsed:.1f} s")
    assert all_below, finals
    assert rap_lowest, finals
    assert in_time, elapsed


def test_criterion_2_adaptation_onset_ordering(white_run):
    _, by_name, _ = white_run
    tm_lms = by_name["lms"].tm.t_m
    tm_bndr = by_name["bndr_lms"].tm.t_m
    ratio = tm_lms / max(tm_bndr, 1)
    ok = tm_bndr < tm_lms and ratio >= 1.5
    _report(2, "adaptation-onset ordering",
            ok, f"T_m(LMS)={tm_lms}, T_m(BNDR-LMS)={tm_bndr}, ratio={ratio:.2f}")
    assert tm_bndr < tm_lms
    assert ratio >= 1.5


def test_criterion_3_colored_noise_gap(colored_run):
    _, by_name = colored_run
    finals = {name: res.final_smoothed_db for name, res in by_name.items()}
    gap_rap = finals["lms"] - finals["r_ap"]
    gap_bndr = finals["lms"] - finals["bndr_lms"]
    ordered = finals["r_ap"] <= finals["bndr_lms"] <= finals["lms"]
    ok = gap_rap >= 40.0 and gap_bndr >= 20.0 and ordered
    _report(3, "colored-noise gap",
            ok, f"LMS-RAP gap {gap_rap:.1f} dB (>=40), LMS-BNDR gap {gap_bndr:.1f} dB (>=20), "
                f"ordering R-AP <= BNDR-LMS <= LMS {'holds' if ordered else 'VIOLATED'}")
    assert gap_rap >= 40.0, finals
    assert gap_bndr >= 20.0, finals
    assert ordered, finals


def test_criterion_4_weight_match(colored_run):
    spec, by_name = colored_run
    h = spec.plant.h
    good = 0
    runs = by_name["r_ap"].ensemble.runs
    for run in runs:
        mis = misalignment_db(run.final_weights, h)
        inf_err = float(np.max(np.abs(run.final_weights - h)))
        if mis <= -60.0 and inf_err < 1e-3:
            good += 1
    ok = good >= 95
    _report(4, "weight match after colored R-AP run",
            ok, f"{good}/{len(runs)} members with misalignment <= -60 dB and "
                f"max|w-h| < 1e-3")
    assert ok, good


def test_criterion_5_nlms_equivalence_property():
    ok, detail = nlms_equivalence(10**4, 2468)
    _report(5, "NLMS equivalence over 10^4 instances", ok, detail)
    assert ok, detail


def test_criterion_6_aposteriori_contraction_property():
    ok, detail = aposteriori_contraction(10**3, 1357)
    _report(6, "a-posteriori contraction over 10^3 instances x 3 step sizes", ok, detail)
    assert ok, detail


def test_criterion_7_solver_residual_property():
    ok, detail = solver_residual(10**4, 9753)
    _report(7, "solver residual bound over 10^4 systems", ok, detail)
    assert ok, detail


def test_criterion_8_complexity_accounting(white_run, colored_run):
    formulas_ok = True
    for L in range(4, 65):
        formulas_ok &= step_multiplies(AlgorithmKind.LMS, L) == 2 * L
        formulas_ok &= step_multiplies(AlgorithmKind.BNDR_LMS, L) == 4 * L + 4 * i_inv(2)
        for N in range(1, 9):
            formulas_ok &= step_multiplies(AlgorithmKind.R_AP, L, N) == 2 * N * L + N**3
            formulas_ok &= (step_multiplies_literal(AlgorithmKind.R_AP, L, N)
                            == 2 * N * L + i_inv(N) * N**2)

    totals_ok = True
    for spec, by_name in (white_run[:2], colored_run):
        for res in by_name.values():
            per_step = step_multiplies(res.algorithm.kind, res.algorithm.filter_length,
                                       res.algorithm.projection_order)
            for run in res.ensemble.runs:
                totals_ok &= run.total_multiplies == spec.iterations * per_step

    ok = formulas_ok and totals_ok
    _report(8, "complexity accounting", ok,
            f"formula grid L=4..64, N=1..8 {'ok' if formulas_ok else 'WRONG'}; "
            f"per-run totals {'ok' if totals_ok else 'WRONG'}")
    assert formulas_ok
    assert totals_ok


def test_criterion_9_determinism(tmp_path):
    config = resolve_config_path("white")
    dirs = [tmp_path / x for x in ("a", "b", "c")]
    assert main(["run", str(config), "--out", str(dirs[0])]) == 0
    assert main(["run", str(config), "--out", str(dirs[1])]) == 0
    assert main(["run", str(config), "--out", str(dirs[2]), "--threads", "8"]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert len(names) == 10  # 3 tables per variant + summary
    identical = True
    for name in names:
        blob = (dirs[0] / name).read_bytes()
        identical &= blob == (dirs[1] / name).read_bytes()
        identical &= blob == (dirs[2] / name).read_bytes()
    _report(9, "byte-identical reruns and thread invariance", identical,
            f"{len(names)} artifact files compared across 3 invocations")
    assert identical
