"""The README's examples run as written."""

import re
from pathlib import Path

from prsplit.bench import trial_seed

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
