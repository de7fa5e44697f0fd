"""Config-driven experiment runner: single solves, parameter sweeps, field rendering.

Configs are INI files with [problem], [solver], [sweep], and [output] sections;
every key has a default matching the built-in demo (the ramp-heated plate with
81 unknowns solved by simulated annealing in 9 blocks). Outputs are plain CSV
and PGM files, byte-reproducible for a fixed config.

Exit codes: 0 success, 1 configuration error or a sweep combination that
raised, 2 non-convergence (files are still written).
"""

import argparse
import configparser
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .blocksolve import SolveConfig, iterate
from .encoding import estimate_resources
from .heatgrid import HeatProblem, assemble_system, grid_to_field, named_boundary
from .reference import condition_number, direct_solve
from .samplers import BACKENDS, EXHAUSTIVE_LIMIT, SamplerParams
from .trace import IterationTrace

OUT_DIR_ENV = "QUBOGS_OUT_DIR"
ASCII_LEVELS = " .:-=+*#%@"

DEFAULTS = {
    "problem": {"m": "10", "length": "1.0", "boundary": "ramp", "sources": ""},
    "solver": {
        "backend": "sa",
        "blocks": "9",
        "bits": "3",
        "scale": "50.0",
        "offset": "0.0",
        "gamma": "0.8",
        "tol": "1e-3",
        "max_iters": "40",
        "num_reads": "15",
        "sweeps": "80",
        "beta_initial": "",
        "beta_final": "",
        "noise_p": "0.0",
        "seed": "2024",
    },
    "sweep": {"bits": "3", "gammas": "0.8", "backends": "sa", "seeds": "2024"},
    "output": {"directory": ""},
}


class ConfigError(Exception):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


@dataclass
class ExperimentConfig:
    problem: HeatProblem
    solver: SolveConfig
    sweep: list[SolveConfig]  # the combinations `qubogs sweep` runs, in order
    out_dir: str


def _get(parser: configparser.ConfigParser, section: str, key: str) -> str:
    if parser.has_option(section, key):
        return parser.get(section, key)
    return DEFAULTS[section][key]


def _parse(where: str, raw: str, kind, check=None, reason: str = ""):
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(where, f"cannot parse {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(where, f"{raw!r} is not a finite number")
    if check is not None and not check(value):
        raise ConfigError(where, (reason or "invalid value {!r}").format(raw))
    return value


def _known_backend(name: str) -> bool:
    return name == "exact" or name in BACKENDS


def _parse_sources(raw: str) -> list[tuple[int, int, float]]:
    sources = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected 'i,j,strength', got {chunk!r}")
        sources.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return sources


def _parse_list(where: str, raw: str, kind, check=None, reason: str = "") -> list:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise ConfigError(where, "list must not be empty")
    values = []
    for p in items:
        value = _parse(where, p, kind, check, reason)
        if value in values:
            raise ConfigError(where, f"repeated entry {p!r}")
        values.append(value)
    return values


def load_config(path: str, overrides: argparse.Namespace | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError("config", f"cannot parse {path!r}: {exc}") from None
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(section, "unknown section")
        for key in parser.options(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")

    m = _parse("problem.m", _get(parser, "problem", "m"), int, lambda v: v >= 2, "m must be >= 2")
    length = _parse("problem.length", _get(parser, "problem", "length"), float, lambda v: v > 0, "length must be positive")
    boundary_name = _get(parser, "problem", "boundary").strip()
    try:
        boundary = named_boundary(boundary_name, length)
        sources = _parse_sources(_get(parser, "problem", "sources"))
        problem = HeatProblem(m, length, boundary, sources)
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from None

    flag_backend, flag_seed = getattr(overrides, "backend", None), getattr(overrides, "seed", None)
    backend = flag_backend or _get(parser, "solver", "backend").strip()
    backend = _parse("solver.backend", backend, str, _known_backend, "unknown backend {!r}")
    seed = _parse("solver.seed", _get(parser, "solver", "seed"), int, lambda v: v >= 0, "seed must be >= 0")
    if flag_seed is not None:
        seed = flag_seed

    beta_raw = (_get(parser, "solver", "beta_initial").strip(), _get(parser, "solver", "beta_final").strip())
    betas = (
        _parse("solver.beta_initial", beta_raw[0], float) if beta_raw[0] else None,
        _parse("solver.beta_final", beta_raw[1], float) if beta_raw[1] else None,
    )
    try:
        sampler = SamplerParams(
            num_reads=_parse("solver.num_reads", _get(parser, "solver", "num_reads"), int),
            sweeps=_parse("solver.sweeps", _get(parser, "solver", "sweeps"), int),
            beta_initial=betas[0],
            beta_final=betas[1],
            seed=seed,
            noise_p=_parse("solver.noise_p", _get(parser, "solver", "noise_p"), float),
        )
        solver = SolveConfig(
            blocks=_parse("solver.blocks", _get(parser, "solver", "blocks"), int),
            bits=_parse("solver.bits", _get(parser, "solver", "bits"), int, lambda v: v >= 1, "bits must be >= 1"),
            scale=_parse("solver.scale", _get(parser, "solver", "scale"), float, lambda v: v > 0, "scale must be positive"),
            offset=_parse("solver.offset", _get(parser, "solver", "offset"), float),
            gamma=_parse("solver.gamma", _get(parser, "solver", "gamma"), float),
            tol=_parse("solver.tol", _get(parser, "solver", "tol"), float),
            max_iters=_parse("solver.max_iters", _get(parser, "solver", "max_iters"), int),
            backend=backend,
            sampler=sampler,
        )
    except ValueError as exc:
        raise ConfigError("solver", str(exc)) from None
    if not 1 <= solver.blocks <= problem.n:
        raise ConfigError("solver.blocks", f"block count must satisfy 1 <= blocks <= {problem.n}")

    bits = _parse_list("sweep.bits", _get(parser, "sweep", "bits"), int, lambda v: v >= 1, "bits must be >= 1")
    gammas = _parse_list(
        "sweep.gammas", _get(parser, "sweep", "gammas"), float, lambda v: 0.0 < v <= 1.0, "gamma must lie in (0, 1]"
    )
    backends = _parse_list("sweep.backends", _get(parser, "sweep", "backends"), str, _known_backend, "unknown backend {!r}")
    seeds = _parse_list("sweep.seeds", _get(parser, "sweep", "seeds"), int, lambda v: v >= 0, "seeds must be >= 0")
    # the flags pin a sweep to one seed or one backend
    if flag_seed is not None:
        seeds = [seed]
    if flag_backend:
        backends = [backend]
    try:
        sweep = [
            replace(solver, backend=be, bits=r, gamma=g, sampler=replace(sampler, seed=s))
            for be, r, g, s in itertools.product(backends, bits, gammas, seeds)
        ]
    except ValueError as exc:
        raise ConfigError("sweep", str(exc)) from None

    out_dir = (
        getattr(overrides, "out_dir", None) or _get(parser, "output", "directory").strip() or os.environ.get(OUT_DIR_ENV) or "out"
    )
    return ExperimentConfig(problem=problem, solver=solver, sweep=sweep, out_dir=out_dir)


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest text that parses back to the same double
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trace(path: str, trace: IterationTrace) -> None:
    rows = []
    for rec in trace.records:
        energy_sum = None if rec.block_energies is None else float(sum(rec.block_energies))
        rows.append(
            [rec.k, float(rec.residual), rec.relative_error, len(rec.clipped_blocks), energy_sum, rec.halfwidth_max]
        )
    _write_csv(path, ["k", "residual", "relative_error", "clipped_blocks", "best_energy_sum", "halfwidth_max"], rows)


def _field_rows(field: np.ndarray, problem: HeatProblem) -> list[list]:
    rows = []
    for i in range(problem.m + 1):
        for j in range(problem.m + 1):
            rows.append([i, j, problem.node(i), problem.node(j), float(field[i, j])])
    return rows


def _ground_truth(exact: np.ndarray) -> np.ndarray | None:
    """The exact solution for error tracking, or None when its norm vanishes."""
    return exact if float(np.linalg.norm(exact)) > 0.0 else None


def run_solve(cfg: ExperimentConfig) -> int:
    if cfg.solver.backend == "exhaustive":
        qubits = estimate_resources(cfg.problem.n, cfg.solver.bits, cfg.solver.blocks).per_block_qubits
        if qubits > EXHAUSTIVE_LIMIT:
            raise ConfigError(
                "solver.bits",
                f"the largest block needs {qubits} binary variables, the exhaustive limit is {EXHAUSTIVE_LIMIT}",
            )
    os.makedirs(cfg.out_dir, exist_ok=True)
    system = assemble_system(cfg.problem)
    # the SVD behind kappa is also direct_solve's rank test, so the solve needs no second one
    kappa = condition_number(system)
    exact = np.linalg.solve(system.to_dense(), system.b)
    trace = iterate(system, cfg.solver, exact_solution=_ground_truth(exact))

    _write_trace(os.path.join(cfg.out_dir, "trace.csv"), trace)
    field = grid_to_field(trace.final_x, cfg.problem)
    _write_csv(os.path.join(cfg.out_dir, "field.csv"), ["i", "j", "x", "y", "T"], _field_rows(field, cfg.problem))

    final = trace.records[-1]
    clipped_total = sum(len(r.clipped_blocks) for r in trace.records)
    summary = [
        f"n={system.n}",
        f"backend={cfg.solver.backend}",
        f"blocks={cfg.solver.blocks}",
        f"bits={cfg.solver.bits}",
        f"gamma={_fmt(cfg.solver.gamma)}",
        f"seed={cfg.solver.sampler.seed}",
        f"iterations={final.k}",
        f"converged={str(trace.converged).lower()}",
        f"residual_is_absolute={str(trace.residual_is_absolute).lower()}",
        f"final_residual={_fmt(float(final.residual))}",
        f"final_relative_error={_fmt(final.relative_error)}",
        f"kappa={_fmt(kappa.kappa)}",
        f"clipped_total={clipped_total}",
    ]
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    return 0 if trace.converged else 2


def _combo_name(solver: SolveConfig) -> str:
    return f"trace_{solver.backend}_R{solver.bits}_g{_fmt(float(solver.gamma))}_s{solver.sampler.seed}.csv"


def run_sweep(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    system = assemble_system(cfg.problem)
    exact = _ground_truth(direct_solve(system))

    combined: list[list] = []
    status: list[str] = []
    failed = False
    for solver in cfg.sweep:
        name = _combo_name(solver)
        try:
            trace = iterate(system, solver, exact_solution=exact)
        except Exception as exc:  # keep the remaining combinations running
            status.append(f"{name}: error: {exc}")
            failed = True
            continue
        _write_trace(os.path.join(cfg.out_dir, name), trace)
        key = [solver.backend, solver.bits, solver.blocks, float(solver.gamma), solver.sampler.seed]
        combined.extend(key + [rec.k, float(rec.residual), rec.relative_error] for rec in trace.records)
        status.append(f"{name}: {'converged' if trace.converged else 'max_iters'} ({len(trace.records)} iterations)")
    _write_csv(
        os.path.join(cfg.out_dir, "sweep.csv"),
        ["backend", "R", "D", "gamma", "seed", "k", "residual", "relative_error"],
        combined,
    )
    with open(os.path.join(cfg.out_dir, "sweep_summary.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(status) + "\n")
    return 1 if failed else 0


def _read_field_csv(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError("field", f"cannot read {path!r}: {exc}") from None
    if not lines or lines[0].split(",") != ["i", "j", "x", "y", "T"]:
        raise ConfigError("field", "expected header i,j,x,y,T")
    entries = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ConfigError("field", f"malformed row {line!r}")
        try:
            i, j, t = int(parts[0]), int(parts[1]), float(parts[4])
        except ValueError:
            raise ConfigError("field", f"malformed row {line!r}") from None
        if not math.isfinite(t):
            raise ConfigError("field", f"non-finite temperature in row {line!r}")
        entries[(i, j)] = t
    if not entries:
        raise ConfigError("field", "no data rows")
    side = max(i for i, _ in entries) + 1
    if len(entries) != side * side or {(i, j) for i in range(side) for j in range(side)} != set(entries):
        raise ConfigError("field", "rows do not form a complete square grid")
    field = np.empty((side, side))
    for (i, j), t in entries.items():
        field[i, j] = t
    return field


def field_to_pgm(field: np.ndarray) -> tuple[str, str]:
    """Linear [min, max] -> [0, 255] graymap (text PGM) plus a 10-glyph ASCII preview.

    Image rows run from the top edge (largest y) down, columns left to right.
    """
    lo, hi = float(field.min()), float(field.max())
    if hi > lo:
        levels = np.rint((field - lo) / (hi - lo) * 255.0).astype(int)
    else:
        levels = np.zeros(field.shape, dtype=int)
    side = field.shape[0]
    pgm_lines = ["P2", f"{side} {side}", "255"]
    ascii_lines = []
    for j in range(side - 1, -1, -1):
        row = levels[:, j]
        pgm_lines.append(" ".join(str(int(v)) for v in row))
        ascii_lines.append("".join(ASCII_LEVELS[min(9, int(v) * 10 // 256)] for v in row))
    return "\n".join(pgm_lines) + "\n", "\n".join(ascii_lines)


def run_render(field_csv: str, out_pgm: str) -> int:
    field = _read_field_csv(field_csv)
    pgm, preview = field_to_pgm(field)
    with open(out_pgm, "w", newline="\n") as fh:
        fh.write(pgm)
    print(preview)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qubogs", description="Iterative QUBO solver for plate heat problems")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="run one solve and write trace/field/summary files")
    sweep_p = sub.add_parser("sweep", help="run the configured parameter sweep")
    for p in (solve_p, sweep_p):
        p.add_argument("config", help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override the solver seed")
        p.add_argument("--out-dir", default=None, help="override the output directory")
        p.add_argument("--backend", default=None, help="override the solver backend")

    render_p = sub.add_parser("render", help="render a field CSV as a text PGM image")
    render_p.add_argument("field_csv")
    render_p.add_argument("out_pgm")

    args = parser.parse_args(argv)
    try:
        if args.command == "render":
            return run_render(args.field_csv, args.out_pgm)
        cfg = load_config(args.config, overrides=args)
        return run_solve(cfg) if args.command == "solve" else run_sweep(cfg)
    except ConfigError as exc:
        print(f"config error in {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
