"""tools/ab_commands.py: the paired A/B timing of two checkouts' commands."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qubogs

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_commands.py"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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


def test_same_checkout_gives_identical_outputs(tmp_path):
    # an A/A smoke run: this checkout's src/ against itself, loaded a second time as another package
    package_root = str(Path(qubogs.__file__).resolve().parent.parent)
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"))
    args = [sys.executable, str(TOOL), package_root, "--workload", "exact-plate", "--seed", "51", "--pairs", "2"]
    run = subprocess.run(args, capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["outputs_identical"] and result["differing_outputs"] == [] and result["exit_codes"] == [0]
    assert len(result["pairs"]) == 2 and all(a > 0.0 and b > 0.0 for a, b in result["pairs"])
    assert 0 <= result["wins"] <= 2 and 0.0 < result["sign_test_p"] <= 1.0
    assert result["ratio_iqr"][0] <= result["ratio_median"] <= result["ratio_iqr"][1]
