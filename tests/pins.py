"""Every sha256 that the suite pins, and the helpers that take and check them.

Each value was taken on one host: a 2-vCPU KVM guest with an AVX-512 Intel
Xeon, numpy 2.4.6 and its bundled scipy-openblas 0.3.31, which picks the
SkylakeX kernel there. The BLAS kernel fixes the order in which sums are
taken, and numpy's SIMD level how some functions round, so another host may
give other last bits (README, "Determinism"). A failing pin therefore names
the kernel and SIMD flags it ran with.
"""

import hashlib
import os

from numpy._core._multiarray_umath import __cpu_features__

# tests/test_cli.py: sha256 of the FIR-colored tiny run's artifacts, taken while
# scipy.signal.lfilter colored the noise. The _freqresp.csv files are left out,
# as for the white run.
FIR_ARTIFACT_SHA256 = {
    "lms_mse.csv": "99b9d8491bddf827785d5bf0f8f4b2ff3d90dba7af969b6819c8b4853816c524",
    "lms_weights.csv": "24caee6ecbcf752c66bce2e9dd6d2a1890578a26c12745d272ea58722847a48a",
    "bndr_lms_mse.csv": "0ba60cade3f45be07b28f2c19ad615f9e506d52d218f3b459167896b6c3bdc1b",
    "bndr_lms_weights.csv": "fb717ed68bf541e929aebfccaee5fbe25293294dd88eb0b165ec22c3f3971083",
    "r_ap_mse.csv": "11a468371d8daa693b5efb33d6a56c544f360002f0a8c412111114958018c8d2",
    "r_ap_weights.csv": "c060f9c0b07417ae89d7dd28efa737393ef01a3522bfa3ef587ba39d056d4383",
    "summary.csv": "a9faf5e677178fc701d06b933a6529cc43c0711d986ad643f5ba3d2b5277f6cb",
}

# tests/test_cli.py: sha256 of the bundled white run's artifacts, taken before
# the projection loop was blocked. The _freqresp.csv files are left out: their
# last bits depend on the BLAS kernel that evaluates the frequency response.
WHITE_ARTIFACT_SHA256 = {
    "lms_mse.csv": "cb8b3a158d015de3090a92f928b45daae47540d85d9d4c0e99f1893768730c6e",
    "lms_weights.csv": "38660bab2b1cffe469ae2587cf56b22ec214a7f912760e63605b90eeb1eb0bb7",
    "bndr_lms_mse.csv": "47bb921c93ed15fa6f64993859d7b5705be347b1ad0d88a04eeca2e6aafca807",
    "bndr_lms_weights.csv": "877af92ee333a4fdd22a83dae9c72e9650428e4d348821b9949f5a4ed9432b21",
    "r_ap_mse.csv": "d13f3611d691de4892395df564beed6a5a263e7d25fde6bbeacd9f49c6810a1f",
    "r_ap_weights.csv": "0d49c9efb9bddb2fe42902e3c92432acdcad365500142ced52ef0d5a56576a78",
    "summary.csv": "f2bda99658507be33980e83519e547578d6e96da7cbbe111e71c0d69fe12b065",
}

# tests/test_pins.py: directory_sha256 of the output directory of
# `apbench run white|colored|perfbench/long_trace.json`, every file included.
# They have held since the projection loop was blocked.
DIRECTORY_SHA256 = {
    "white": "9e1d4a2a1cb955ea45af8865382bf5d0f221fb73b63be743898beecdd822ea7e",
    "colored": "3e603fec4fb2fe022c5810e191a76861b9df2bfba34a9cf4045cb84041003ff1",
    "long_trace": "b5ce1d59a65d3c16afea53cb55660054be8e3716ec5e8e1dd09b9c43deb36246",
}

# tests/test_linalg.py: sha256 over (x, singular, inexact) of every
# _single_systems() solve, taken while a single system still ran on Python floats
SINGLE_SYSTEMS_SHA256 = "bfe6ba10806ac746e7df962f67c850e289f669d7d93c70e84d27fc58bcb11263"

# tests/test_signals.py: sha256 prefixes of the sequences that
# scipy.signal.lfilter colored before generate_noise stopped using scipy
COLORED_SEQUENCE_PREFIXES = {
    "ar1_0.9_2000": "804deeb52e6b6c3c",
    "ar1_-0.95_1": "753ce7e784d9cd6b",
    "fir_highpass13_5000": "2ae6c3679573a9be",
    "fir_5_taps_3": "9cfcb69676a27ac9",
}

# tests/test_sysid.py: sha256 of every run_single and run_ensemble outcome (or
# of the batch as _adapt left it, when the ensemble fails), taken before the
# block loop (r_ap2_recovers_mid_block: before the per-block residual check;
# r_ap6_delta0_l64_fir_leading_zero: before the per-step blocks called ap_update)
PROJECTION_BLOCK_SHA256 = {
    "bndr_auto":
        "16ec85442083ba1c64b2ab5dc787289c729f062f1eaf1c133be6f2682f3bc661",
    "bndr_auto_fir_leading_zero":
        "4ad82036e7d0aef447a6bb89fbeb3c90e038de271a76825b443d4fa698ccb0df",
    "r_ap3_delta0":
        "da887b9f0cc1f3785bc211478163efb9f38a1c8f6f855eedc6cd7e2df8266b0d",
    "r_ap3_delta1e-8":
        "12e0ccc4b4095cc7f45aac2f5e57377bf9a04c13dc4d099c14975e0eb0edb45c",
    "r_ap4_delta0":
        "223c6c7a6fdb52b7552789e25df97178062edd504162d9421809e80218fd1606",
    "r_ap4_delta1e-8":
        "80e598b1b3873da54c1f82402987757a7cc4ebf5b502c2e04e46e8b0d89cb2dd",
    "r_ap4_delta0_fir_leading_zero":
        "9594a6b90c78cbacd288cb0fd2cd380d76c11ba95fd2d258f5019f8ebc6f9418",
    "r_ap2_fails_mid_block":
        "0cb60a652bcf01327714163174c4e40d04c635868565027d23889f4cce48179c",
    "r_ap2_freezes_early":
        "75c5d23ef58dcb4c1e15a5148e2daa24c7fac5fe432a54d271d6cb19c3c51362",
    "r_ap2_recovers_mid_block":
        "8e3ce4f711a23b7ea011f5b10af34cc6114a098775d6d2d9f8c0820a33d8cb58",
    "r_ap6_delta0_l64_fir_leading_zero":
        "a5f22a6503990f9387d8c37095c96ec9355e724989d5a59a28a2628a60733ff4",
}


def file_sha256(directory, names=None):
    """{name: sha256 hex} of the named files in directory, or of all of them by name."""
    if names is None:
        names = sorted(path.name for path in directory.iterdir())
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def directory_sha256(directory):
    """`sha256sum * | sha256sum` run inside directory: sha256 of its sorted lines."""
    lines = "".join(f"{digest}  {name}\n" for name, digest in file_sha256(directory).items())
    return hashlib.sha256(lines.encode()).hexdigest()


def assert_pinned(actual, pinned):
    """Check a pin, naming this run's BLAS kernel and SIMD flags when it fails."""
    flags = ", ".join(f"{flag} {'on' if __cpu_features__.get(flag) else 'off'}"
                      for flag in ("AVX2", "AVX512F", "AVX512_SKX"))
    assert actual == pinned, (
        f"{actual!r} != pinned {pinned!r}. The pins were taken with OpenBLAS's SkylakeX "
        "kernel and AVX2, AVX512F and AVX512_SKX on; this run had OPENBLAS_CORETYPE="
        f"{os.environ.get('OPENBLAS_CORETYPE', 'default')} and {flags}")
