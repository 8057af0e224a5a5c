"""Set-up probe: import apbench and load one workload's experiment file.

Run in a fresh interpreter by run.py, which times the whole process as the
set-up time. Prints one JSON line with the import and load times measured
inside the process.

    python3 perfbench/probe.py <workload> <seed|default> [--tiny]
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv[0], argv[1]
    sys.path.insert(0, str(workloads.SRC))
    import apbench  # noqa: F401

    imported = time.perf_counter()
    workloads.load_spec(workloads.WORKLOADS[name], None if seed == "default" else int(seed),
                        tiny="--tiny" in argv[2:])
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - _started, "load_s": loaded - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
