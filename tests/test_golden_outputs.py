"""The command outputs stay byte-identical to tests/golden_outputs.sha256.

A change that alters outputs on purpose regenerates the manifest with
`python3 tools/snapshot_outputs.py --write-manifest` and lists each changed
file in CHANGES.md; a refactor leaves the manifest alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import qubogs

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot_outputs.py"
MANIFEST = Path(__file__).resolve().parent / "golden_outputs.sha256"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_child(tmp_path, args):
    # started as test_exit_codes_through_interpreter starts its child, with one BLAS thread
    package_root = str(Path(qubogs.__file__).resolve().parent.parent)
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=str(tmp_path))


def test_outputs_match_manifest(tmp_path):
    # every snapshot command but the demo sweep; the failure names each file that differs
    run = run_child(tmp_path, [str(TOOL), "--check", "--quick"])
    assert run.returncode == 0, run.stdout + run.stderr


def test_other_build_fails_naming_the_expected_one(tmp_path):
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import snapshot_outputs as s\n"
        "s.build = lambda: ['numpy 0.0', 'blas none']\n"
        "print(s.check(sys.argv[2], quick=True))"
    )
    run = run_child(tmp_path, ["-c", script, str(TOOL.parent), str(tmp_path / "out")])
    assert run.returncode == 0, run.stderr
    made_under = [line[2:] for line in MANIFEST.read_text().splitlines()[1:3]]
    assert all(line in run.stdout for line in made_under) and "numpy 0.0" in run.stdout
    assert not (tmp_path / "out").exists()  # no command ran
