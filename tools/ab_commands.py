"""Time one benchmark workload's commands in two checkouts, paired in one process.

    python3 tools/ab_commands.py OTHER_SRC --workload W [--seed S] [--pairs N]

Writes the INI files that `perfbench/workloads.py` generates for workload W and
seed S (51 by default) and runs them through `qubogs.cli.main` of this
checkout's `src/` ("this") and of OTHER_SRC, a `src` directory that holds
another `qubogs` package ("other"), in one process with one BLAS thread. Each
side first runs the workload once, and every output file and exit code of the
two is compared byte for byte; those that differ, or that one side alone
wrote, are listed. Then N pairs are timed (30 by default). A pair runs every
command of the workload REPEATS (3) times on each side, the sides
interleaved, and the side that goes first alternates from pair to pair. A
pair's seconds are each side's fastest of its 3 runs: on a shared host the
least disturbed run is the fastest. The last line of standard output is one
JSON object: every run's seconds, each pair's minima, the median of the
this/other ratios of the minima and their interquartile range, the number of
pairs this side won and the two-sided sign-test p-value of that count.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import qubogs.cli  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

REPEATS = 3  # runs of each side per pair; the fastest counts


def load_module(src: str, module: str):
    """Module ``module`` of the ``qubogs`` package under ``src``, imported as part of the package ``other_qubogs``."""
    init = os.path.join(src, "qubogs", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"no qubogs package under {src}")
    spec = importlib.util.spec_from_file_location("other_qubogs", init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["other_qubogs"] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"other_qubogs.{module}")


def sign_test_p(wins: int, pairs: int) -> float:
    """Two-sided sign-test p-value of ``wins`` in ``pairs``: twice the smaller Binomial(pairs, 1/2) tail, at most 1."""
    tail = sum(math.comb(pairs, k) for k in range(min(wins, pairs - wins) + 1))
    return min(1.0, 2 * tail / 2**pairs)


def run(cli, commands: list[list[str]], out: str) -> tuple[float, list[int]]:
    """Seconds and exit codes of the commands, command j writing into ``out``/j; the clean-up is not timed."""
    seconds, codes = 0.0, []
    for j, argv in enumerate(commands):
        out_dir = os.path.join(out, str(j))
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes.append(cli.main([*argv, "--out-dir", out_dir]))
            seconds += time.perf_counter() - start
    return seconds, codes


def summarize(runs: list[list[list[float]]]) -> dict:
    """The statistics of the pairs, from each pair's [this seconds, other seconds] of its K runs per side."""
    pairs = [[min(this), min(other)] for this, other in runs]
    ratios = [a / b for a, b in pairs]
    wins = sum(a < b for a, b in pairs)
    return {
        "runs": runs,
        "pairs": pairs,
        "this_median_s": statistics.median(a for a, _ in pairs),
        "other_median_s": statistics.median(b for _, b in pairs),
        "ratio_median": statistics.median(ratios),
        "ratio_iqr": np.percentile(ratios, [25, 75]).tolist(),
        "wins": wins,
        "sign_test_p": sign_test_p(wins, len(pairs)),
    }


def differing_outputs(this: str, other: str) -> list[str]:
    """Relative paths of the files under ``this`` and ``other`` whose bytes differ or that only one of them holds."""
    files = {}
    for side in (this, other):
        for folder, _, names in os.walk(side):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    files.setdefault(os.path.relpath(path, side), []).append(fh.read())
    return sorted(name for name, contents in files.items() if len(contents) != 2 or contents[0] != contents[1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", help="a src directory holding the qubogs package to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=51, help="workload seed (default 51)")
    parser.add_argument("--pairs", type=int, default=30, help="timed pairs (default 30)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"this": qubogs.cli, "other": load_module(args.other_src, "cli")}
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        commands = []
        for j, case in enumerate(make_cases(workload, args.seed)):
            ini = os.path.join(tmp, f"plate{j}.ini")
            with open(ini, "w", newline="\n") as fh:
                fh.write(case.ini)
            commands.append([workload.command, ini])
        codes = {name: run(cli, commands, os.path.join(tmp, name))[1] for name, cli in sides.items()}
        differ = differing_outputs(os.path.join(tmp, "this"), os.path.join(tmp, "other"))
        differ += ["exit codes"] if codes["this"] != codes["other"] else []
        runs = []
        for pair in range(args.pairs):
            seconds = {name: [] for name in sides}
            for _ in range(REPEATS):
                for name in list(sides)[:: 1 if pair % 2 == 0 else -1]:
                    seconds[name].append(run(sides[name], commands, os.path.join(tmp, name))[0])
            runs.append([seconds["this"], seconds["other"]])
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "other": args.other_src,
        "repeats": REPEATS,
        "outputs_identical": not differ,
        "differing_outputs": differ,
        "exit_codes": codes["this"],
        **summarize(runs),
    }
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
