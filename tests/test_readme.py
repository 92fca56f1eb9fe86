"""The README's examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import prsplit
from prsplit.bench import trial_seed
from prsplit.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].reason == "converged"
    assert len(namespace["states"]) == namespace["report"].iterations


def test_readme_solve_command_uses_the_seed_of_the_bench_trial_it_names():
    text = README.read_text(encoding="utf-8")
    [seed] = re.findall(r"prsplit solve --m 50 --n 500 --seed (\d+) --method pr", text)
    assert "the first 50x500 trial of `prsplit bench --seed 42`" in text and "trial_seed(42, 50, 500, 0)" in text
    assert int(seed) == trial_seed(42, 50, 500, 0)


def test_readme_cli_lines_parse():
    """Every `prsplit` line of the unlabeled code blocks parses (nothing runs), so a renamed flag fails here."""
    lines, fence = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
        elif fence == "" and line.startswith("prsplit "):
            lines.append(line)
    assert lines
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(re.sub(r"\s*>\s*\S+$", "", line))[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_pytest_k_commands_select_a_test():
    """Every `pytest ... -k EXPR` the README cites, in a code block or inline, collects a test: a renamed one fails."""
    found = re.findall(r"^(pytest .* -k .*)$|`(pytest [^`]* -k [^`]*)`", README.read_text(encoding="utf-8"), re.M)
    assert found
    package_root = str(Path(prsplit.__file__).resolve().parents[1])  # so the subprocess imports this same copy
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    for command in (block or inline for block, inline in found):
        args = ["--collect-only", "-q", "-p", "no:cacheprovider", *shlex.split(command, comments=True)[1:]]
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *args],
            cwd=README.parent, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, f"README command collects no test: {command}\n{result.stdout}"
