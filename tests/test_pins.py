"""The bundled runs' directory digests, and the one home of every pinned digest."""

import ast
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from apbench.cli import main

import pins

TESTS = Path(__file__).parent
CONFIGS = {"white": "white", "colored": "colored",
           "long_trace": str(TESTS.parent / "perfbench" / "long_trace.json")}


@pytest.mark.parametrize("name", sorted(pins.DIRECTORY_SHA256))
def test_bundled_runs_keep_their_directory_digest(name, tmp_path, capsys):
    assert main(["run", CONFIGS[name], "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    pins.assert_pinned(pins.directory_sha256(tmp_path), pins.DIRECTORY_SHA256[name])


@pytest.mark.skipif(shutil.which("sha256sum") is None, reason="needs coreutils' sha256sum")
def test_the_directory_digest_is_that_of_sha256sum(tmp_path):
    for name in ("b.csv", "a_b.csv", "ab.csv"):
        (tmp_path / name).write_text(name)
    proc = subprocess.run("sha256sum * | sha256sum", shell=True, cwd=tmp_path, check=True,
                          capture_output=True, text=True, env={**os.environ, "LC_ALL": "C"})
    assert proc.stdout == f"{pins.directory_sha256(tmp_path)}  -\n"


def test_no_module_but_pins_holds_a_digest():
    digest = re.compile(r"[0-9a-f]{16}|[0-9a-f]{64}")
    found = [f"{path.name}:{node.lineno}: {node.value}"
             for path in sorted(TESTS.glob("*.py")) if path.name != "pins.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and digest.fullmatch(node.value)]
    assert not found, "pinned digests belong in tests/pins.py"
