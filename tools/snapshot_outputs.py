"""Write the outputs that a refactor must keep byte-identical, or check them against the manifest.

    python3 tools/snapshot_outputs.py DIR               # write a snapshot into DIR
    python3 tools/snapshot_outputs.py --check [--quick] # compare with tests/golden_outputs.sha256
    python3 tools/snapshot_outputs.py --write-manifest  # regenerate tests/golden_outputs.sha256

Runs `qubogs.cli.main` in-process, from this checkout's `src/`, with one BLAS
thread: `solve demo.ini` and `render` of its field (the ASCII preview goes to
`preview.txt`), `sweep demo.ini`, the seed-51 `sa-sweep` and `exact-plate`
configs that `perfbench/workloads.py` generates, and the first of its seed-51
`exhaustive-blocks` plates (27 blocks of 3 unknowns, 4 bits each). Each
command writes into its own subdirectory of DIR and the exit codes go to
DIR/exit_codes.txt, so two checkouts' snapshots compare with `diff -r`. A
snapshot takes about 17 s, 15 s of it the demo sweep.

The manifest holds the sha256 of every file a snapshot writes, under header
lines naming the numpy version and BLAS build it was made with. `--check`
takes a snapshot in a temporary directory and names each file whose hash
differs; it fails at once, naming the expected build, under another numpy or
BLAS, where the last digits of the errors may differ. `--quick`
leaves out the demo sweep and so also `exit_codes.txt`; every other exit code
shows in the files (`converged=` in `summary.txt`, the status lines of
`sweep_summary.txt`, the rendered image).
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from qubogs.cli import main  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

SEED = 51
MANIFEST = os.path.join(ROOT, "tests", "golden_outputs.sha256")
DEMO_SWEEP = "sweep"  # the command --quick leaves out


def snapshot(out: str, skip: tuple[str, ...] = ()) -> None:
    demo = os.path.join(ROOT, "demo.ini")
    commands = {"solve": ["solve", demo], "sweep": ["sweep", demo]}
    for name in ("sa-sweep", "exact-plate", "exhaustive-blocks"):
        workload = WORKLOADS[name]
        case = make_cases(workload, SEED)[0]
        os.makedirs(os.path.join(out, name))
        ini = os.path.join(out, name, "config.ini")
        with open(ini, "w", newline="\n") as fh:
            fh.write(case.ini)
        commands[name] = [workload.command, ini]
    codes = [
        f"{name}: {main(argv + ['--out-dir', os.path.join(out, name)])}" for name, argv in commands.items() if name not in skip
    ]
    render = os.path.join(out, "render")
    os.makedirs(render)
    with open(os.path.join(render, "preview.txt"), "w", newline="\n") as fh, contextlib.redirect_stdout(fh):
        code = main(["render", os.path.join(out, "solve", "field.csv"), os.path.join(render, "field.pgm")])
    codes.append(f"render: {code}")
    with open(os.path.join(out, "exit_codes.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(codes) + "\n")


def build() -> list[str]:
    """The numpy version and BLAS build that outputs are byte-stable under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    return [f"numpy {np.__version__}", f"blas {blas['name']} {blas['version']} {config}".rstrip()]


def hashes(out: str) -> dict[str, str]:
    """sha256 of every file under ``out``, keyed by its '/'-separated relative path."""
    found = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def write_manifest(out: str) -> None:
    snapshot(out)
    header = ["# sha256 of every file `python3 tools/snapshot_outputs.py DIR` writes, made under:"]
    lines = header + [f"# {line}" for line in build()] + [f"{digest}  {name}" for name, digest in hashes(out).items()]
    with open(MANIFEST, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def check(out: str, quick: bool) -> list[str]:
    """One line per problem: a build other than the manifest's, or each file that differs from it."""
    with open(MANIFEST) as fh:
        lines = fh.read().splitlines()
    made_under = [line[2:] for line in lines[1:] if line.startswith("# ")]
    if made_under != build():
        return [
            f"the manifest was made under {'; '.join(made_under)}, but this is {'; '.join(build())}; "
            "outputs may differ in their last digits, and regenerating the manifest is a separate, stated step"
        ]
    expected = {name: digest for digest, name in (line.split("  ", 1) for line in lines if not line.startswith("#"))}
    snapshot(out, (DEMO_SWEEP,) if quick else ())
    got = hashes(out)
    if quick:
        expected = {name: digest for name, digest in expected.items() if not name.startswith(f"{DEMO_SWEEP}/")}
        expected.pop("exit_codes.txt")
        got.pop("exit_codes.txt")
    problems = []
    for name in sorted(expected.keys() | got.keys()):
        if name not in got:
            problems.append(f"missing: {name}")
        elif name not in expected:
            problems.append(f"unexpected: {name}")
        elif got[name] != expected[name]:
            problems.append(f"differs: {name}")
    return problems


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = cli.add_mutually_exclusive_group(required=True)
    mode.add_argument("dir", nargs="?", help="write a snapshot into this new directory")
    mode.add_argument("--check", action="store_true", help="compare a snapshot with the manifest")
    mode.add_argument("--write-manifest", action="store_true", help="regenerate the manifest")
    cli.add_argument("--quick", action="store_true", help="with --check: leave out the demo sweep")
    args = cli.parse_args()
    if args.dir:
        snapshot(args.dir)
        sys.exit(0)
    with tempfile.TemporaryDirectory() as tmp:
        if args.write_manifest:
            write_manifest(tmp)
            sys.exit(0)
        problems = check(tmp, args.quick)
    print("\n".join(problems) or "outputs match the manifest")
    sys.exit(1 if problems else 0)
