"""Benchmark of the qubogs command line on generated heated-plate workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports the package from `src/`,
writes INI files generated from the seed, and runs `qubogs solve` or
`qubogs sweep` in-process through `qubogs.cli.main` for about S seconds of
whole rounds. Each command's outputs are checked against an independent numpy
solution. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
under `--trace 0` and the per-layer metrics of a traced run under `--trace 1`.
Progress and the machine-speed probe go to standard error.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from checks import PlateReference, check_solve, check_sweep_combo, read_rows, same_bytes, sweep_statuses  # noqa: E402
from tracer import COMMAND_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Case, Workload, make_cases  # noqa: E402

# Set-up is timed in a burst of at least this many calls and seconds before every
# round, so that its median spans the same stretch of the run as the commands'.
# The machine's speed drifts over tens of seconds; one burst at the start of a
# run would catch only the phase the run started in.
SETUP_BURST_CALLS = 3
SETUP_BURST_S = 0.5


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_cli():
    """qubogs.cli from this checkout's src/, never from an installed copy."""
    package = ROOT / "src" / "qubogs"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(package.parent))
    import qubogs.cli

    if Path(qubogs.cli.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported qubogs from {qubogs.cli.__file__}, not {package}")
    return qubogs.cli


def probe_ms() -> float:
    """Fixed pure-Python loop; printed at the start and end of a run, not a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def time_setup(paths: list[str], samples: list[float]) -> None:
    """Append one burst of timed config load + assembly + direct solve, cycling the inputs."""
    from qubogs import cli, heatgrid, reference

    first = len(samples)
    start = time.perf_counter()
    while len(samples) - first < SETUP_BURST_CALLS or time.perf_counter() - start < SETUP_BURST_S:
        path = paths[len(samples) % len(paths)]
        t0 = time.perf_counter()
        cfg = cli.load_config(path)
        system = heatgrid.assemble_system(cfg.problem)
        reference.direct_solve(system)
        samples.append(time.perf_counter() - t0)


@dataclass
class Outcome:
    """One command: its operations (a solve, or each sweep combination) and what they did."""

    seconds: float
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    iterations: int = 0
    clipped: int = 0


def run_command(cli, workload: Workload, case: Case, ini: str, out_dir: str, ref: PlateReference, tracer=None) -> Outcome:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [workload.command, ini, "--out-dir", out_dir]
    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv) if tracer is None else tracer.call(COMMAND_SPAN, cli.main, argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    out = Outcome(time.perf_counter() - start)
    tol = workload.solver["tol"]

    if workload.command == "solve":
        out.ops = 1
        if error is not None or rc != 0:
            out.failed = 1
            log(f"  solve failed: {error or f'exit code {rc}'}")
            return out
        out.problems = check_solve(out_dir, ref, tol)
        if out.problems:
            out.failed = 1
            return out
        trace = read_rows(os.path.join(out_dir, "trace.csv"))
        out.iterations = len(trace)
        out.clipped = sum(int(r["clipped_blocks"]) for r in trace)
        return out

    statuses = sweep_statuses(out_dir)
    for seed in case.sampler_seeds:
        out.ops += 1
        names = [n for n in statuses if n.endswith(f"_s{seed}.csv")]
        if error is not None or len(names) != 1:
            out.failed += 1
            log(f"  sweep seed {seed} failed: {error or 'no status line'}")
            continue
        name = names[0]
        if not statuses[name].startswith("converged"):
            out.failed += 1
            log(f"  {name}: {statuses[name]}")
            continue
        problems = check_sweep_combo(out_dir, name, statuses[name], ref, tol)
        if problems:
            out.problems += problems
            out.failed += 1
            continue
        trace = read_rows(os.path.join(out_dir, name))
        out.iterations += len(trace)
        out.clipped += sum(int(r["clipped_blocks"]) for r in trace)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    log(f"probe start: {probe_ms():.3f} ms")

    work_dir = OUT / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cases = make_cases(workload, args.seed)
    inis = []
    for k, case in enumerate(cases):
        path = work_dir / f"plate{k}.ini"
        path.write_text(case.ini)
        inis.append(str(path))
    refs = [PlateReference(case.plate) for case in cases]

    outcomes: list[Outcome] = []  # the untraced commands
    traced: list[Outcome] = []
    tracer = Tracer()
    setup: list[float] = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < args.seconds:
        if not args.trace:
            time_setup(inis, setup)
        for k, case in enumerate(cases):
            plain_dir = str(work_dir / f"out{k}")
            outcome = run_command(cli, workload, case, inis[k], plain_dir, refs[k])
            outcomes.append(outcome)
            log(f"  plate{k}: {outcome.seconds:.3f} s, {outcome.iterations} iterations, {outcome.failed}/{outcome.ops} failed")
            if args.trace:
                traced_dir = str(work_dir / f"out{k}_traced")
                with tracer.installed():
                    outcome = run_command(cli, workload, case, inis[k], traced_dir, refs[k], tracer)
                outcome.problems += same_bytes(plain_dir, traced_dir)
                outcome.failed = max(outcome.failed, int(bool(outcome.problems)))
                traced.append(outcome)
                log(f"  plate{k} traced: {outcome.seconds:.3f} s")
    log(f"probe end: {probe_ms():.3f} ms")

    everything = outcomes + traced
    for problem in (p for o in everything for p in o.problems):
        log(f"CHECK FAILED: {problem}")
    blocks = workload.solver["blocks"]
    command_s = statistics.median(o.seconds for o in outcomes)
    if args.trace:
        solves = sum(o.iterations for o in traced) * blocks
        metrics = layer_metrics(tracer, len(traced))
        metrics["blocksolve.block_solves"] = (solves / len(traced), "count")
        metrics["blocksolve.clipped_share"] = (sum(o.clipped for o in traced) / solves if solves else 0.0, "ratio")
        metrics["trace.command_s"] = (command_s, "s")
        metrics["trace.overhead_s"] = (statistics.median(o.seconds for o in traced) - command_s, "s")
        for name in sorted(tracer.absent):
            log(f"absent: {name}")
        tracer.write_spans(str(work_dir / "spans.csv"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "command_s": (command_s, "s"),
            "block_solves_per_s": (statistics.median(o.iterations * blocks / o.seconds for o in outcomes), "1/s"),
            "outer_iters": (statistics.mean(o.iterations for o in outcomes), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not any(o.problems for o in everything),
        "attempted": sum(o.ops for o in everything),
        "failed": sum(o.failed for o in everything),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
