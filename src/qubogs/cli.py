"""Config-driven experiment runner: single solves, parameter sweeps, field rendering.

Configs are INI files with [problem], [solver], [sweep], and [output] sections;
every key has a default. The [problem] and [solver] defaults are the built-in
demo's (the ramp-heated plate with 81 unknowns solved by simulated annealing in
9 blocks); the [sweep] defaults run one combination (sa, R = 3, gamma = 0.8,
seed 2024), where demo.ini sweeps 16. Outputs are plain CSV and PGM files,
byte-reproducible for a fixed config.

``load_config`` turns the text, taken literally (no "%" interpolation), into
typed values. The constructors that take them decide which are valid, and
``load_config`` reports a rejection under the key or section it came from.

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

from .blocksolve import SolveConfig, iterate, iterate_many
from .encoding import estimate_resources
from .heatgrid import HeatProblem, assemble_system, grid_to_field, solve_plate
from .linear import LinearSystem, partition
from .samplers import SamplerParams, check_exhaustive
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


@dataclass
class ExperimentConfig:
    problem: HeatProblem
    solver: SolveConfig
    sweep: list[SolveConfig]  # the combinations `qubogs sweep` runs, in order
    out_dir: str


def _parse(where: str, raw: str, kind):
    """``raw`` as a ``kind`` (a float must be finite); the constructor that takes it judges the value."""
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(where, f"cannot parse {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(where, f"{raw!r} is not a finite number")
    return value


def _parse_keys(section: str, raw: dict, **kinds) -> dict:
    return {key: _parse(f"{section}.{key}", raw[key], kind) for key, kind in kinds.items()}


def _checked(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with its ValueError reported as a config error in ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


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


def _parse_list(where: str, raw: str, kind) -> list:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise ConfigError(where, "list must not be empty")
    values = []
    for p in items:
        value = _parse(where, p, kind)
        if value in values:
            raise ConfigError(where, f"repeated entry {p!r}")
        values.append(value)
    return values


def load_config(path: str, overrides: argparse.Namespace | None = None) -> ExperimentConfig:
    # "#" starts a comment, not ";", which separates sources; values are literal, with no "%" interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError("config", f"cannot parse {path!r}: {exc}") from None
    # the known sections in DEFAULTS' order, then the unknown ones; a [DEFAULT] key joins every section, also one left out
    ini = {}
    for section in [*DEFAULTS, *parser.sections()]:
        if section not in DEFAULTS:
            raise ConfigError(section, "unknown section")
        present = parser.has_section(section)
        for key in parser.options(section) if present else parser.defaults():
            if key not in DEFAULTS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
        ini[section] = {**DEFAULTS[section], **dict(parser.items(section) if present else ())}
    problem_ini, solver_ini, sweep_ini = ini["problem"], ini["solver"], ini["sweep"]

    # the constructors judge the values, in steps that each add the keys their label names
    m = _parse("problem.m", problem_ini["m"], int)
    _checked("problem.m", HeatProblem, m)
    length = _parse("problem.length", problem_ini["length"], float)
    _checked("problem.length", HeatProblem, m, length)
    boundary = problem_ini["boundary"].strip()
    problem = _checked("problem", lambda: HeatProblem(m, length, boundary, _parse_sources(problem_ini["sources"])))

    flag_backend, flag_seed = getattr(overrides, "backend", None), getattr(overrides, "seed", None)
    backend = flag_backend or solver_ini["backend"].strip()
    _checked("solver.backend", SolveConfig, backend=backend)
    beta_kinds = {key: float for key in ("beta_initial", "beta_final") if solver_ini[key].strip()}  # empty: derived
    sampler_keys = _parse_keys("solver", solver_ini, **beta_kinds, num_reads=int, sweeps=int, seed=int, noise_p=float)
    sampler = _checked("solver", SamplerParams, **sampler_keys)  # judges the file's seed also where --seed replaces it
    if flag_seed is not None:
        sampler = _checked("solver", replace, sampler, seed=flag_seed)
    solver_keys = _parse_keys(
        "solver", solver_ini, blocks=int, bits=int, scale=float, offset=float, gamma=float, tol=float, max_iters=int
    )
    solver = _checked("solver", SolveConfig, **solver_keys, backend=backend, sampler=sampler)
    _checked("solver.blocks", partition, problem.n, solver.blocks)

    # each [sweep] entry goes through the constructor it ends up in, also where a flag replaces its list
    lists = {}
    for key, kind, field in (("bits", int, "bits"), ("gammas", float, "gamma"), ("backends", str, "backend")):
        lists[key] = _parse_list(f"sweep.{key}", sweep_ini[key], kind)
        for value in lists[key]:
            _checked(f"sweep.{key}", replace, solver, **{field: value})
    samplers = [_checked("sweep.seeds", replace, sampler, seed=s) for s in _parse_list("sweep.seeds", sweep_ini["seeds"], int)]
    # the flags pin a sweep to one seed or one backend
    backends = [backend] if flag_backend else lists["backends"]
    samplers = [sampler] if flag_seed is not None else samplers
    sweep = [
        replace(solver, backend=be, bits=r, gamma=g, sampler=sp)
        for be, r, g, sp in itertools.product(backends, lists["bits"], lists["gammas"], samplers)
    ]

    out_dir = getattr(overrides, "out_dir", None) or ini["output"]["directory"].strip() or os.environ.get(OUT_DIR_ENV) or "out"
    return ExperimentConfig(problem=problem, solver=solver, sweep=sweep, out_dir=out_dir)


def _write_text(path: str, text: str, where: str = "output") -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(where, f"cannot write {path!r}: {exc}") from None


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """None is written as nan, every other value by ``str``: for a Python float, the shortest text that parses back to it."""
    lines = [",".join(header)] + [",".join("nan" if v is None else str(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_trace(path: str, trace: IterationTrace) -> None:
    rows = []
    for rec in trace.records:
        energy_sum = None if rec.block_energies is None else float(sum(rec.block_energies))
        rows.append([rec.k, rec.residual, rec.relative_error, len(rec.clipped_blocks), energy_sum, rec.halfwidth_max])
    _write_csv(path, ["k", "residual", "relative_error", "clipped_blocks", "best_energy_sum", "halfwidth_max"], rows)


def _field_rows(field: np.ndarray, problem: HeatProblem) -> list[list]:
    nodes = [problem.node(k) for k in range(problem.m + 1)]
    return [[i, j, nodes[i], nodes[j], t] for i, temps in enumerate(field.tolist()) for j, t in enumerate(temps)]


def _ground_truth(problem: HeatProblem, system: LinearSystem) -> np.ndarray | None:
    """The exact solution of the assembled plate by sine transform (``solve_plate``), or None when its norm vanishes."""
    exact = solve_plate(problem, system.b)
    return exact if float(np.linalg.norm(exact)) > 0.0 else None


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output", f"cannot create {path!r}: {exc}") from None


def run_solve(cfg: ExperimentConfig) -> int:
    if cfg.solver.backend == "exhaustive":
        qubits = estimate_resources(cfg.problem.n, cfg.solver.bits, cfg.solver.blocks).per_block_qubits
        _checked("solver.bits", check_exhaustive, qubits)
    _make_out_dir(cfg.out_dir)
    system = assemble_system(cfg.problem)
    exact = _ground_truth(cfg.problem, system)
    trace = iterate(system, cfg.solver, exact_solution=exact)

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
        f"gamma={cfg.solver.gamma}",
        f"seed={cfg.solver.sampler.seed}",
        f"iterations={final.k}",
        f"converged={str(trace.converged).lower()}",
        f"residual_is_absolute={str(trace.residual_is_absolute).lower()}",
        f"final_residual={final.residual}",
        f"final_relative_error={float(trace.errors[-1])}",  # nan without a ground truth
        f"kappa={cfg.problem.kappa}",
        f"clipped_total={clipped_total}",
    ]
    _write_text(os.path.join(cfg.out_dir, "summary.txt"), "\n".join(summary) + "\n")
    return 0 if trace.converged else 2


def _combo_name(solver: SolveConfig) -> str:
    return f"trace_{solver.backend}_R{solver.bits}_g{solver.gamma}_s{solver.sampler.seed}.csv"


def run_sweep(cfg: ExperimentConfig) -> int:
    _make_out_dir(cfg.out_dir)
    system = assemble_system(cfg.problem)
    exact = _ground_truth(cfg.problem, system)

    combined: list[list] = []
    status: list[str] = []
    failed = False
    # consecutive combinations with one backend and bit count advance in lockstep
    for _, group in itertools.groupby(cfg.sweep, key=lambda solver: (solver.backend, solver.bits)):
        group = list(group)
        try:
            traces = iterate_many(system, group, exact_solution=exact)
        except Exception as exc:  # keep the remaining combinations running
            status.extend(f"{_combo_name(solver)}: error: {exc}" for solver in group)
            failed = True
            continue
        for solver, trace in zip(group, traces):
            name = _combo_name(solver)
            _write_trace(os.path.join(cfg.out_dir, name), trace)
            key = [solver.backend, solver.bits, solver.blocks, solver.gamma, solver.sampler.seed]
            combined.extend(key + [rec.k, rec.residual, rec.relative_error] for rec in trace.records)
            status.append(f"{name}: {'converged' if trace.converged else 'max_iters'} ({len(trace.records)} iterations)")
    _write_csv(
        os.path.join(cfg.out_dir, "sweep.csv"),
        ["backend", "R", "D", "gamma", "seed", "k", "residual", "relative_error"],
        combined,
    )
    _write_text(os.path.join(cfg.out_dir, "sweep_summary.txt"), "\n".join(status) + "\n")
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
        if (i, j) in entries:
            raise ConfigError("field", f"repeated node in row {line!r}")
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
    if not math.isfinite(hi - lo):
        raise ConfigError("field", f"temperature span {hi!r} - {lo!r} is not finite")
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
    _write_text(out_pgm, pgm, "render")
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
