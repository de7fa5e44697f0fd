"""Write the outputs that a refactor must keep byte-identical into one directory.

    python3 tools/snapshot_outputs.py DIR

Runs `qubogs.cli.main` in-process, from this checkout's `src/`, with one BLAS
thread: `solve demo.ini` and `render` of its field (the ASCII preview goes to
`preview.txt`), `sweep demo.ini`, the seed-51 `sa-sweep` and `exact-plate`
configs that `perfbench/workloads.py` generates, and the first of its seed-51
`exhaustive-blocks` plates (27 blocks of 3 unknowns, 4 bits each). Each
command writes into its own subdirectory of DIR and the exit codes go to
DIR/exit_codes.txt, so two checkouts' snapshots compare with `diff -r`. A
snapshot takes about a minute, most of it the demo sweep.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from qubogs.cli import main  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

SEED = 51


def snapshot(out: str) -> None:
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
    codes = [f"{name}: {main(argv + ['--out-dir', os.path.join(out, name)])}" for name, argv in commands.items()]
    render = os.path.join(out, "render")
    os.makedirs(render)
    with open(os.path.join(render, "preview.txt"), "w", newline="\n") as fh, contextlib.redirect_stdout(fh):
        code = main(["render", os.path.join(out, "solve", "field.csv"), os.path.join(render, "field.pgm")])
    codes.append(f"render: {code}")
    with open(os.path.join(out, "exit_codes.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(codes) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/snapshot_outputs.py DIR")
    snapshot(sys.argv[1])
