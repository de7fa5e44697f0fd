"""Replay the annealer calls of one `qubogs sweep` against two checkouts and time them.

    python3 tools/replay_sa_calls.py OTHER_SRC [--seed N] [--repeats R]

Runs the `sa-sweep` config that `perfbench/workloads.py` generates for seed N
(51 by default) through `qubogs.cli.main`, from this checkout's `src/`, with
one BLAS thread, and records every `solve_sa_many` call that the block solver
makes. It then replays the recorded calls R times (9 by default) against this
checkout's kernel and against the kernel of OTHER_SRC, a `src` directory that
holds another `qubogs` package, in one process; the side that goes first
alternates from repeat to repeat. Every replayed result must equal the
recorded one. It prints the calls and reads replayed, the median kernel
seconds of each side over the repeats and the ratio of the medians.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from ab_commands import load_module  # noqa: E402
from qubogs import blocksolve, cli  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402


def record_calls(seed: int) -> list:
    """Every (runs, results) pair of the ``solve_sa_many`` calls that one ``sa-sweep`` command makes."""
    calls = []
    kernel = blocksolve.solve_sa_many

    def recording(runs):
        results = kernel(runs)
        calls.append((runs, results))
        return results

    workload = WORKLOADS["sa-sweep"]
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "config.ini")
        with open(ini, "w", newline="\n") as fh:
            fh.write(make_cases(workload, seed)[0].ini)
        blocksolve.solve_sa_many = recording
        try:
            code = cli.main([workload.command, ini, "--out-dir", os.path.join(tmp, "out")])
        finally:
            blocksolve.solve_sa_many = kernel
    if code != 0:
        sys.exit(f"the recorded command exited {code}")
    return calls


def samples(results) -> list:
    # compared as plain tuples: the two packages' SampleSet classes are distinct
    return [[(s.bits, s.energy, s.occurrences) for s in result.samples] for result in results]


def replay(kernel, calls) -> float:
    """Kernel seconds over all calls; raises if any result differs from the recorded one."""
    elapsed = 0.0
    for runs, recorded in calls:
        start = time.perf_counter()
        results = kernel(runs)
        elapsed += time.perf_counter() - start
        if samples(results) != samples(recorded):
            raise AssertionError(f"replayed samples differ in a call of {len(runs)} runs")
    return elapsed


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", help="a src directory holding the qubogs package to compare against")
    parser.add_argument("--seed", type=int, default=51, help="perfbench seed of the sa-sweep config (default 51)")
    parser.add_argument("--repeats", type=int, default=9, help="replays per side (default 9)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sides = {"this": blocksolve.solve_sa_many, "other": load_module(args.other_src, "samplers").solve_sa_many}
    calls = record_calls(args.seed)
    reads = [sum(params.num_reads for _, params in runs) for runs, _ in calls]
    print(f"sa-sweep seed {args.seed}: {len(calls)} calls, {sum(reads)} reads (at most {max(reads)} in one call)")
    seconds = {name: [] for name in sides}
    for repeat in range(args.repeats):
        for name in list(sides)[:: 1 if repeat % 2 == 0 else -1]:
            seconds[name].append(replay(sides[name], calls))
    medians = {name: statistics.median(values) for name, values in seconds.items()}
    for name, values in seconds.items():
        print(f"{name}: median {medians[name]:.3f} s, range {min(values):.3f}-{max(values):.3f} s over {len(values)} replays")
    print(f"this / other: {medians['this'] / medians['other']:.3f}; every replayed result equals the recorded one")


if __name__ == "__main__":
    main()
