"""Independent checks of `qubogs solve` and `qubogs sweep` outputs.

The reference plate is assembled here in numpy from the generated m, edges and
sources, without the package's own assembly or solvers. Every check returns a
list of problems; an empty list means the output passed.
"""

import csv
import os

import numpy as np

from workloads import Plate

RTOL = 1e-6  # agreement between recomputed and reported floats


def edge_temperature(m: int, i: int, j: int) -> float:
    """Ramp edges: 0 C bottom and left, 100 C * position along the top and right."""
    if j == m:
        return 100.0 * i / m
    if i == m:
        return 100.0 * j / m
    return 0.0


class PlateReference:
    """5-point stencil system of a generated plate, solved and conditioned by numpy."""

    def __init__(self, plate: Plate):
        m = self.m = plate.m
        side = m - 1
        t = 2.0 * np.eye(side) - np.eye(side, k=1) - np.eye(side, k=-1)
        # interior index k = (j-1)*side + (i-1): i runs fastest
        self.a = np.kron(np.eye(side), t) + np.kron(t, np.eye(side))
        grid = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            for j in (0, m):
                grid[i, j] = edge_temperature(m, i, j)
                grid[j, i] = edge_temperature(m, j, i)
        self.edges = grid
        neighbours = grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
        for i, j, strength in plate.sources:
            neighbours[i - 1, j - 1] += strength
        self.b = neighbours.T.ravel()
        self.x = np.linalg.solve(self.a, self.b)
        self.kappa = float(np.linalg.cond(self.a))

    def interior(self, field: np.ndarray) -> np.ndarray:
        return field[1:-1, 1:-1].T.ravel()

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.a @ x - self.b) / np.linalg.norm(self.b))

    def error(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x - self.x) / np.linalg.norm(self.x))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(path: str) -> dict:
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def read_field(path: str, m: int) -> np.ndarray:
    rows = read_rows(path)
    field = np.full((m + 1, m + 1), np.nan)
    for row in rows:
        field[int(row["i"]), int(row["j"])] = float(row["T"])
    if len(rows) != (m + 1) ** 2 or np.isnan(field).any():
        raise ValueError(f"{path}: not a complete {m + 1}x{m + 1} grid")
    return field


def _bound_problems(where: str, rows: list[dict], kappa: float) -> list[str]:
    """relative error <= kappa * relative residual holds for every iterate."""
    out = []
    for row in rows:
        try:
            err, res = float(row["relative_error"]), float(row["residual"])
        except (KeyError, TypeError, ValueError):
            out.append(f"{where}: malformed row {row}")
            continue
        if not err <= kappa * res * (1 + RTOL):
            out.append(f"{where}: k={row['k']} error {err!r} exceeds kappa*residual {kappa * res!r}")
    return out


def check_solve(out_dir: str, ref: PlateReference, tol: float) -> list[str]:
    """Field edges, recomputed residual and error, kappa, trace/summary agreement."""
    try:
        summary = read_summary(os.path.join(out_dir, "summary.txt"))
        field = read_field(os.path.join(out_dir, "field.csv"), ref.m)
        trace = read_rows(os.path.join(out_dir, "trace.csv"))
        final_residual = float(summary["final_residual"])
        final_error = float(summary["final_relative_error"])
        kappa = float(summary["kappa"])
        iterations = int(summary["iterations"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    edge = np.ones_like(field, dtype=bool)
    edge[1:-1, 1:-1] = False
    if not np.allclose(field[edge], ref.edges[edge], rtol=0.0, atol=1e-9):
        problems.append("field.csv edge temperatures differ from the prescribed edges")
    x = ref.interior(field)
    res, err = ref.residual(x), ref.error(x)
    if not _close(res, final_residual):
        problems.append(f"recomputed residual {res!r} != final_residual {final_residual!r}")
    if not res <= tol:
        problems.append(f"recomputed residual {res!r} above tol {tol!r}")
    if not err <= ref.kappa * res * (1 + RTOL):
        problems.append(f"relative error {err!r} exceeds kappa*residual {ref.kappa * res!r}")
    if not _close(err, final_error):
        problems.append(f"recomputed relative error {err!r} != final_relative_error {final_error!r}")
    if not _close(kappa, ref.kappa):
        problems.append(f"kappa {kappa!r} != numpy cond {ref.kappa!r}")
    if summary.get("converged") != "true":
        problems.append("summary says not converged")
    if len(trace) != iterations or not trace or trace[-1]["residual"] != summary["final_residual"]:
        problems.append("trace.csv does not end at the summary's iteration and residual")
    problems += _bound_problems("trace.csv", trace, ref.kappa)
    return problems


def sweep_statuses(out_dir: str) -> dict[str, str]:
    """Combination trace file name -> status text, from sweep_summary.txt."""
    try:
        with open(os.path.join(out_dir, "sweep_summary.txt")) as fh:
            return dict(line.rstrip("\n").split(": ", 1) for line in fh if ": " in line)
    except OSError:
        return {}


def check_sweep_combo(out_dir: str, name: str, status: str, ref: PlateReference, tol: float) -> list[str]:
    """One sweep combination: converged status, trace file, sweep.csv rows, error bound."""
    if not status.startswith("converged ("):
        return [f"{name}: {status}"]
    try:
        rows = read_rows(os.path.join(out_dir, name))
        seed = name.rsplit("_s", 1)[1].removesuffix(".csv")
        combined = [r for r in read_rows(os.path.join(out_dir, "sweep.csv")) if r["seed"] == seed]
        final_residual = float(rows[-1]["residual"])
    except (OSError, IndexError, KeyError, ValueError) as exc:
        return [f"{name}: unreadable output: {exc}"]
    problems = []
    if status != f"converged ({len(rows)} iterations)":
        problems.append(f"{name}: status {status!r} disagrees with {len(rows)} trace rows")
    if not final_residual <= tol:
        problems.append(f"{name}: final residual above tol {tol!r}")
    pairs = [(r["k"], r["residual"], r["relative_error"]) for r in rows]
    if pairs != [(r["k"], r["residual"], r["relative_error"]) for r in combined]:
        problems.append(f"{name}: sweep.csv rows differ from the combination trace")
    problems += _bound_problems(name, rows, ref.kappa)
    return problems


def same_bytes(dir_a: str, dir_b: str) -> list[str]:
    """Every output file of two runs of one config is byte-identical."""
    try:
        names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
        if names_a != names_b:
            return [f"output files differ: {names_a} vs {names_b}"]
        problems = []
        for name in names_a:
            with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name} differs between the traced and the untraced run")
    except OSError as exc:
        return [f"unreadable output: {exc}"]
    return problems
