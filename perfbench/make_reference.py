"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/make_reference.py

Runs each workload once at its experiment file's own seed, single threaded
(outputs do not depend on the thread count), and stores the linear learning
curves and mean final weights in perfbench/reference/<workload>.npz. Only run
this on a commit whose outputs are known to be right: the benchmark's output
check compares every later commit against these files.
"""

import sys

import numpy as np

import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    from apbench import cli

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        spec = workloads.load_spec(workload, None)
        results = cli.run_experiment_file(spec, threads=1)
        arrays = checks.reference_arrays(results)
        path = checks.reference_path(workload.name)
        np.savez_compressed(path, experiment=np.array(checks.experiment_key(spec)), **arrays)
        print(f"{workload.name}: wrote {path.name} ({len(arrays)} arrays)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
