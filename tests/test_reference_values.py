"""The bundled white and colored runs against perfbench's stored reference values.

perfbench/checks.py holds the reference arrays' tolerances and criterion 3; it is
loaded from its file, so the test uses those tolerances and does not restate them.
"""

import importlib.util
from pathlib import Path

import pytest

from apbench import cli

_spec = importlib.util.spec_from_file_location(
    "checks", Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


@pytest.mark.parametrize("name", ["white", "colored"])
def test_a_bundled_run_matches_its_reference_values(name):
    spec = cli.load_experiment_file(cli.resolve_config_path(name))
    reference = checks.load_reference(name, spec)
    assert reference is not None  # the bundled file is the referenced experiment
    results = cli.run_experiment_file(spec)
    assert checks.check_outputs(results, reference, criterion_3=name == "colored") == []
