"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

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
