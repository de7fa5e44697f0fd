"""tools/ab_commands.py: the paired A/B timing of two checkouts' commands."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qubogs

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_commands.py"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# appended to a copy's cli.py: its main first sleeps 0.05 s, longer than an exact-plate command
SLEEPING_MAIN = """

import time as _time

_main = main


def main(argv=None):
    _time.sleep(0.05)
    return _main(argv)
"""


@pytest.fixture
def tool(monkeypatch):
    # the tool pins one BLAS thread and puts src/ and perfbench/ on sys.path when imported; undo both after
    for var in BLAS_THREADS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("ab_commands", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sign_test_p_values(tool):
    assert tool.sign_test_p(0, 10) == tool.sign_test_p(10, 10) == 2 / 1024
    assert tool.sign_test_p(2, 10) == tool.sign_test_p(8, 10) == 2 * (1 + 10 + 45) / 1024
    assert tool.sign_test_p(5, 10) == tool.sign_test_p(1, 2) == tool.sign_test_p(0, 1) == 1.0
    assert tool.sign_test_p(30, 30) == 2.0**-29
    for pairs in range(1, 25):
        for wins in range(pairs + 1):
            # twice the probability of a count at least as far from pairs/2 on the smaller side, capped at 1
            tail = sum(math.comb(pairs, k) for k in range(pairs + 1) if k <= min(wins, pairs - wins)) / 2**pairs
            assert tool.sign_test_p(wins, pairs) == pytest.approx(min(1.0, 2 * tail), rel=1e-12)
    assert tool.sign_test_p(27, 30) < 0.01 < tool.sign_test_p(22, 30)


def run_tool(other_src, pairs: int, cwd) -> dict:
    """The last stdout line of the tool run on exact-plate at seed 51 against ``other_src``, parsed."""
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"))
    args = [sys.executable, str(TOOL), str(other_src), "--workload", "exact-plate", "--seed", "51", "--pairs", str(pairs)]
    run = subprocess.run(args, capture_output=True, text=True, env=env, cwd=str(cwd))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_same_checkout_gives_identical_outputs(tmp_path):
    # an A/A smoke run: this checkout's src/ against itself, loaded a second time as another package
    result = run_tool(Path(qubogs.__file__).resolve().parent.parent, 2, tmp_path)
    assert result["outputs_identical"] and result["differing_outputs"] == [] and result["exit_codes"] == [0]
    assert len(result["pairs"]) == 2 and all(a > 0.0 and b > 0.0 for a, b in result["pairs"])
    assert 0 <= result["wins"] <= 2 and 0.0 < result["sign_test_p"] <= 1.0
    assert result["ratio_iqr"][0] <= result["ratio_median"] <= result["ratio_iqr"][1]


def test_slowed_copy_is_found(tmp_path):
    # the other side is a copy of src/ whose cli.main sleeps before each command; this side must win
    other = tmp_path / "src"
    shutil.copytree(Path(qubogs.__file__).resolve().parent, other / "qubogs", ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "qubogs" / "cli.py", "a") as fh:
        fh.write(SLEEPING_MAIN)
    result = run_tool(other, 12, tmp_path)
    assert result["outputs_identical"] and result["exit_codes"] == [0]
    assert result["wins"] >= 11 and result["sign_test_p"] < 0.01 and result["ratio_median"] < 1.0
