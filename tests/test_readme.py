"""README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    rate, best = capsys.readouterr().out.splitlines()
    assert float(rate) > 0.0
    v_a, best_rate, feasible = best.split()
    assert 0.0 < float(v_a) <= 20.0 and float(best_rate) > 0.0 and feasible == "True"
