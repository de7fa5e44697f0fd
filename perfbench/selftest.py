"""Self-test of the benchmark's output checks: clean outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Runs one small `qubogs solve` and one small `qubogs sweep`, checks that their
outputs pass, then corrupts one value at a time in a copy (a field value, an
edge temperature, a trace residual, kappa, a sweep row) and checks that every
corruption is reported. Exits 0 when all cases behave, 1 otherwise.
"""

import shutil
import sys

import run
from checks import PlateReference, check_solve, check_sweep_combo, read_summary, same_bytes, sweep_statuses
from workloads import Plate, Workload, ini_text

PLATE = Plate(6, ((2, 3, 20.0), (4, 4, -15.0)))
SOLVER = {"backend": "exact", "blocks": 5, "bits": 3, "gamma": 1.0, "tol": 1e-8, "max_iters": 500}
SOLVE = Workload("selftest-solve", "solve", 6, 1, SOLVER)
SWEEP = Workload("selftest-sweep", "sweep", 6, 1, SOLVER, sampler_seeds=2)
SWEEP_SEEDS = [7, 8]


def _edit_csv(path: str, match: dict, column: str, new) -> None:
    """Replace ``column`` in the first row whose cells equal ``match`` (new: old text -> new text)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    for n, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if all(cells[header.index(k)] == v for k, v in match.items()):
            cells[header.index(column)] = new(cells[header.index(column)])
            lines[n] = ",".join(cells)
            break
    else:
        raise LookupError(f"no row matching {match} in {path}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_summary(path: str, key: str, new) -> None:
    with open(path) as fh:
        pairs = [line.rstrip("\n").split("=", 1) for line in fh]
    with open(path, "w") as fh:
        fh.write("".join(f"{k}={new(v) if k == key else v}\n" for k, v in pairs))


def _scaled(factor: float):
    return lambda text: repr(float(text) * factor)


def main() -> int:
    cli = run.import_cli()
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = PlateReference(PLATE)
    tol = SOLVER["tol"]
    results = []

    solve_ini, sweep_ini = work / "solve.ini", work / "sweep.ini"
    solve_ini.write_text(ini_text(SOLVE, PLATE, [1]))
    sweep_ini.write_text(ini_text(SWEEP, PLATE, SWEEP_SEEDS))
    clean = str(work / "solve")
    clean_sweep = str(work / "sweep")
    if cli.main(["solve", str(solve_ini), "--out-dir", clean]) != 0 or cli.main(["sweep", str(sweep_ini), "--out-dir", clean_sweep]) != 0:
        print("selftest: the clean commands did not succeed")
        return 1
    last_k = read_summary(f"{clean}/summary.txt")["iterations"]
    statuses = sweep_statuses(clean_sweep)
    combo = next(n for n in statuses if n.endswith(f"_s{SWEEP_SEEDS[0]}.csv"))

    def sweep_problems(out_dir: str) -> list[str]:
        return [p for name, status in sweep_statuses(out_dir).items() for p in check_sweep_combo(out_dir, name, status, ref, tol)]

    results.append(("clean solve passes", not check_solve(clean, ref, tol)))
    results.append(("clean sweep passes", len(statuses) == 2 and not sweep_problems(clean_sweep)))

    solve_corruptions = {
        "interior field value": lambda d: _edit_csv(f"{d}/field.csv", {"i": "2", "j": "2"}, "T", lambda t: repr(float(t) + 1e-3)),
        "edge temperature": lambda d: _edit_csv(f"{d}/field.csv", {"i": "6", "j": "3"}, "T", lambda t: repr(float(t) + 1.0)),
        "final trace residual": lambda d: _edit_csv(f"{d}/trace.csv", {"k": last_k}, "residual", _scaled(1.5)),
        "first trace residual": lambda d: _edit_csv(f"{d}/trace.csv", {"k": "1"}, "residual", _scaled(1e-6)),
        "kappa": lambda d: _edit_summary(f"{d}/summary.txt", "kappa", _scaled(1.01)),
    }
    for label, corrupt in solve_corruptions.items():
        bad = str(work / f"bad_{len(results)}")
        shutil.copytree(clean, bad)
        corrupt(bad)
        results.append((f"corrupted {label} fails the solve checks", bool(check_solve(bad, ref, tol)) and bool(same_bytes(clean, bad))))

    sweep_corruptions = {
        "sweep trace error": lambda d: _edit_csv(f"{d}/{combo}", {"k": "1"}, "relative_error", _scaled(1e6)),
        "sweep.csv residual": lambda d: _edit_csv(f"{d}/sweep.csv", {"seed": str(SWEEP_SEEDS[0])}, "residual", _scaled(0.5)),
    }
    for label, corrupt in sweep_corruptions.items():
        bad = str(work / f"bad_{len(results)}")
        shutil.copytree(clean_sweep, bad)
        corrupt(bad)
        results.append((f"corrupted {label} fails the sweep checks", bool(sweep_problems(bad))))

    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
