import argparse
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qubogs
from qubogs import cli
from qubogs.blocksolve import SolveConfig, iterate
from qubogs.heatgrid import HeatProblem, assemble_system, solve_plate


def write_config(path, **sections):
    base = {
        "problem": {"m": 4},
        "solver": {"backend": "exact", "blocks": 3, "tol": "1e-8", "max_iters": 100},
        "sweep": {},
        "output": {"directory": str(path.parent / "out")},
    }
    for name, overrides in sections.items():
        base.setdefault(name, {}).update(overrides)
    lines = []
    for name, keys in base.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_solve_writes_expected_files(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini")
    assert cli.main(["solve", str(cfg_path)]) == 0
    out = tmp_path / "out"
    header, rows = read_csv(out / "trace.csv")
    assert header == ["k", "residual", "relative_error", "clipped_blocks", "best_energy_sum", "halfwidth_max"]
    assert int(rows[0][0]) == 1
    assert rows[0][4] == "nan" and rows[0][5] == "nan"  # sampler columns do not apply to the exact backend
    summary = dict(line.split("=", 1) for line in (out / "summary.txt").read_text().strip().split("\n"))
    assert summary["converged"] == "true"
    assert summary["n"] == "9"
    assert float(summary["kappa"]) > 1.0

    fheader, frows = read_csv(out / "field.csv")
    assert fheader == ["i", "j", "x", "y", "T"]
    assert len(frows) == 25


def test_trace_csv_round_trips_exactly(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini")
    assert cli.main(["solve", str(cfg_path)]) == 0
    _, rows = read_csv(tmp_path / "out" / "trace.csv")

    system = assemble_system(HeatProblem(4))
    trace = iterate(system, SolveConfig(blocks=3, tol=1e-8, max_iters=100, backend="exact"),
                    exact_solution=solve_plate(HeatProblem(4), system.b))
    assert len(rows) == len(trace)
    for row, rec in zip(rows, trace.records):
        assert float(row[1]) == rec.residual  # text representation loses nothing
        assert float(row[2]) == rec.relative_error


def test_solve_nonconvergence_exit_code(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini", solver={"max_iters": 2, "tol": "1e-13"})
    assert cli.main(["solve", str(cfg_path)]) == 2
    assert (tmp_path / "out" / "trace.csv").exists()  # files written regardless


def test_zero_boundary_field_is_zero(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini", problem={"boundary": "zero"})
    assert cli.main(["solve", str(cfg_path)]) == 0
    _, rows = read_csv(tmp_path / "out" / "field.csv")
    assert all(float(r[4]) == 0.0 for r in rows)


def test_config_errors(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "missing.ini")]) == 1
    assert "config" in capsys.readouterr().err

    bad = write_config(tmp_path / "bad.ini", solver={"blocks": "200"})
    assert cli.main(["solve", str(bad)]) == 1
    assert "solver.blocks" in capsys.readouterr().err

    unknown = write_config(tmp_path / "unknown.ini", solver={"volume": "11"})
    assert cli.main(["solve", str(unknown)]) == 1
    assert "solver.volume" in capsys.readouterr().err

    negative = write_config(tmp_path / "neg.ini", problem={"m": "1"})
    assert cli.main(["solve", str(negative)]) == 1
    assert "problem.m" in capsys.readouterr().err

    # both backend settings name the entry they reject
    backend = write_config(tmp_path / "backend.ini", solver={"backend": "annealer"})
    assert cli.main(["solve", str(backend)]) == 1
    assert "config error in solver.backend: unknown backend 'annealer'" in capsys.readouterr().err
    sweep_backend = write_config(tmp_path / "sweep_backend.ini", sweep={"backends": "exact, annealer"})
    assert cli.main(["sweep", str(sweep_backend)]) == 1
    assert "config error in sweep.backends: unknown backend 'annealer'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("bits", "0,3"),
        ("gammas", "1.5"),
        ("gammas", "0.8,0"),
        ("seeds", "-1"),
        # a repeated entry would run one combination twice and overwrite its trace
        ("gammas", "0.8,0.80"),
        ("seeds", "1,01"),
        ("backends", "sa,exact,sa"),
    ],
)
def test_sweep_lists_validated_before_running(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path / "cfg.ini", sweep={key: value})
    assert cli.main(["sweep", str(cfg_path)]) == 1
    assert f"config error in sweep.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, keys, where",
    [
        ("problem", {"sources": "2,2,nan"}, "problem"),
        ("problem", {"length": "inf"}, "problem.length"),
        ("solver", {"scale": "inf"}, "solver.scale"),
        ("solver", {"offset": "nan"}, "solver.offset"),
        ("solver", {"tol": "nan"}, "solver.tol"),
        ("solver", {"beta_initial": "nan", "beta_final": "10.0"}, "solver.beta_initial"),
        # finite endpoints whose ratio overflows: every beta after the first would be inf
        ("solver", {"backend": "sa", "beta_initial": "1e-300", "beta_final": "1e300"}, "solver: beta schedule requires a finite ratio"),
    ],
    ids=["sources", "length", "scale", "offset", "tol", "beta_initial", "beta_ratio"],
)
def test_nonfinite_config_values_rejected(tmp_path, capsys, section, keys, where):
    cfg_path = write_config(tmp_path / "cfg.ini", **{section: keys})
    assert cli.main(["solve", str(cfg_path)]) == 1
    assert f"config error in {where}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# One out-of-range value per key. The constructor that takes a value judges it;
# the label is the key where load_config checks it in a step of its own, else
# the section. Flags replace values, but the file's values are still judged.
LABEL_CASES = [
    ("problem", {"m": "1"}, [], "problem.m"),
    ("problem", {"length": "-1.0"}, [], "problem.length"),
    ("problem", {"boundary": "hot"}, [], "problem"),
    ("problem", {"sources": "9,9,1.0"}, [], "problem"),
    ("solver", {"backend": "annealer"}, [], "solver.backend"),
    ("solver", {"blocks": "0"}, [], "solver"),
    ("solver", {"blocks": "10"}, [], "solver.blocks"),
    ("solver", {"bits": "0"}, [], "solver"),
    ("solver", {"scale": "0.0"}, [], "solver"),
    ("solver", {"offset": "inf"}, [], "solver.offset"),
    ("solver", {"gamma": "1.5"}, [], "solver"),
    ("solver", {"tol": "0.0"}, [], "solver"),
    ("solver", {"max_iters": "0"}, [], "solver"),
    ("solver", {"num_reads": "0"}, [], "solver"),
    ("solver", {"sweeps": "0"}, [], "solver"),
    ("solver", {"beta_initial": "0.0", "beta_final": "10.0"}, [], "solver"),
    ("solver", {"beta_initial": "1.0", "beta_final": "0.5"}, [], "solver"),
    ("solver", {"noise_p": "1.0"}, [], "solver"),
    ("solver", {"seed": "-1"}, [], "solver"),
    ("sweep", {"bits": "0"}, [], "sweep.bits"),
    ("sweep", {"gammas": "1.5"}, [], "sweep.gammas"),
    ("sweep", {"backends": "annealer"}, [], "sweep.backends"),
    ("sweep", {"seeds": "-1"}, [], "sweep.seeds"),
    ("solver", {"seed": "-1"}, ["--seed", "5"], "solver"),
    ("sweep", {"seeds": "-1"}, ["--seed", "5"], "sweep.seeds"),
    ("sweep", {"backends": "annealer"}, ["--backend", "exact"], "sweep.backends"),
    ("solver", {}, ["--seed", "-3"], "solver"),
    ("solver", {}, ["--backend", "nope"], "solver.backend"),
]


@pytest.mark.parametrize(
    "section, keys, flags, label",
    LABEL_CASES,
    ids=[",".join([*(f"{s}.{k}={v}" for k, v in keys.items()), *flags]) for s, keys, flags, _ in LABEL_CASES],
)
def test_each_key_rejected_under_its_label(tmp_path, capsys, section, keys, flags, label):
    command = "sweep" if section == "sweep" else "solve"
    cfg_path = write_config(tmp_path / "cfg.ini", **{section: keys})
    assert cli.main([command, str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert f"config error in {label}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        # a [DEFAULT] key joins every section, so it is unknown in the first section that lacks it
        ("[DEFAULT]\nfoo = 1\n", "problem.foo: unknown key"),
        ("[DEFAULT]\nm = 5\n", "solver.m: unknown key"),
        ("[DEFAULT]\nm = 5\n[problem]\nm = 4\n", "solver.m: unknown key"),
        ("[problem]\nfoo = 1\n[DEFAULT]\nbar = 2\n", "problem.foo: unknown key"),
        # the four known sections are checked in a fixed order, then the unknown ones in file order
        ("[bogus]\n[solver]\nfoo = 1\n[problem]\nbar = 2\n", "problem.bar: unknown key"),
        ("[bogus]\n[output]\n[other]\n", "bogus: unknown section"),
        ("[Problem]\nm = 4\n", "Problem: unknown section"),
    ],
)
def test_unknown_keys_and_sections_reported_in_a_fixed_order(tmp_path, text, message):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    with pytest.raises(cli.ConfigError) as info:
        cli.load_config(str(path))
    assert str(info.value) == message


def test_sections_left_out_take_their_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    path = tmp_path / "cfg.ini"
    path.write_text("[DEFAULT]\n[solver]\nBLOCKS = 3\n")
    config = cli.load_config(str(path))
    assert (config.problem.m, config.solver.blocks, config.solver.backend, config.out_dir) == (10, 3, "sa", "out")
    assert [(c.bits, c.gamma, c.sampler.seed) for c in config.sweep] == [(3, 0.8, 2024)]


def test_backend_flag_replaces_an_unknown_file_backend(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini", solver={"backend": "annealer"})
    assert cli.main(["solve", str(cfg_path), "--backend", "exact"]) == 0
    assert "backend=exact" in (tmp_path / "out" / "summary.txt").read_text()


def test_percent_signs_are_taken_literally(tmp_path, capsys):
    directory = str(tmp_path / "run_100%")
    cfg_path = write_config(tmp_path / "cfg.ini", output={"directory": directory})
    assert cli.load_config(str(cfg_path)).out_dir == directory

    cfg_path = write_config(tmp_path / "cfg.ini", problem={"sources": "1,1,%(x)s"})
    assert cli.main(["solve", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error in problem: " in err
    assert "Traceback" not in err


def test_commands_take_no_full_spectrum(tmp_path, singular_value_calls):
    # kappa comes from HeatProblem's closed form; only the exact backend's block rank tests remain
    cfg_path = write_config(tmp_path / "cfg.ini")  # 9 unknowns, exact backend in 3 blocks
    assert cli.main(["solve", str(cfg_path)]) == 0
    shapes = [shape for _, shape in singular_value_calls]
    assert (9, 9) not in shapes
    assert shapes.count((3, 3)) == 3

    singular_value_calls.clear()
    sa_sweep = write_config(
        tmp_path / "sa.ini",
        solver={"max_iters": 2, "num_reads": 2, "sweeps": 5},
        sweep={"bits": "2", "backends": "sa"},
    )
    assert cli.main(["sweep", str(sa_sweep)]) == 0
    assert singular_value_calls == []


def test_sources_through_config(tmp_path):
    plain = write_config(tmp_path / "plain.ini", output={"directory": str(tmp_path / "a")})
    heated = write_config(
        tmp_path / "heated.ini",
        problem={"sources": "1,1,40.0; 2,2,-10.0"},
        output={"directory": str(tmp_path / "b")},
    )
    assert cli.main(["solve", str(plain)]) == 0
    assert cli.main(["solve", str(heated)]) == 0
    _, rows_a = read_csv(tmp_path / "a" / "field.csv")
    _, rows_b = read_csv(tmp_path / "b" / "field.csv")
    assert any(float(ra[4]) != float(rb[4]) for ra, rb in zip(rows_a, rows_b))

    malformed = write_config(tmp_path / "bad.ini", problem={"sources": "1,1"})
    assert cli.main(["solve", str(malformed)]) == 1
    boundary_node = write_config(tmp_path / "worse.ini", problem={"sources": "0,1,5.0"})
    assert cli.main(["solve", str(boundary_node)]) == 1


def test_overrides_and_env_dir(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "cfg.ini", output={"directory": ""})
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envdir"))
    assert cli.main(["solve", str(cfg_path), "--seed", "77"]) == 0
    summary = (tmp_path / "envdir" / "summary.txt").read_text()
    assert "seed=77" in summary

    assert cli.main(["solve", str(cfg_path), "--out-dir", str(tmp_path / "flagdir"), "--backend", "exact"]) == 0
    assert (tmp_path / "flagdir" / "summary.txt").exists()


def test_out_dir_precedence(tmp_path, monkeypatch):
    # --out-dir, then [output] directory, then QUBOGS_OUT_DIR, then "out"
    empty = write_config(tmp_path / "empty.ini", output={"directory": ""})
    named = write_config(tmp_path / "named.ini", output={"directory": "ini_dir"})
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    assert cli.load_config(str(empty)).out_dir == "out"
    monkeypatch.setenv(cli.OUT_DIR_ENV, "env_dir")
    assert cli.load_config(str(empty)).out_dir == "env_dir"
    assert cli.load_config(str(named)).out_dir == "ini_dir"
    assert cli.load_config(str(named), argparse.Namespace(out_dir="flag_dir")).out_dir == "flag_dir"


def test_unknown_boundary_name_is_a_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.ini", problem={"boundary": "hot"})
    assert cli.main(["solve", str(cfg_path)]) == 1
    assert "config error in problem: unknown boundary profile 'hot', expected 'ramp' or 'zero'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_uncreatable_out_dir_is_a_config_error(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    cfg_path = write_config(tmp_path / "cfg.ini")
    assert cli.main([command, str(cfg_path), "--out-dir", str(taken)]) == 1
    err = capsys.readouterr().err
    assert f"config error in output: cannot create {str(taken)!r}: " in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("command, blocked", [("solve", "trace.csv"), ("sweep", "sweep.csv")])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, command, blocked):
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    cfg_path = write_config(tmp_path / "cfg.ini")
    assert cli.main([command, str(cfg_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error in output: cannot write {str(out / blocked)!r}: " in err
    assert "Traceback" not in err
    assert (out / blocked).is_dir()
    # the command stops at the file: nothing after it, the closing summary included, is written
    assert not (out / "summary.txt").exists() and not (out / "sweep_summary.txt").exists()


def test_render_to_unwritable_path_is_a_config_error(tmp_path, capsys):
    field_csv = tmp_path / "field.csv"
    field_csv.write_text("i,j,x,y,T\n0,0,0.0,0.0,1.0\n0,1,0.0,1.0,2.0\n1,0,1.0,0.0,3.0\n1,1,1.0,1.0,4.0\n")
    out_pgm = tmp_path / "missing" / "dir" / "f.pgm"
    assert cli.main(["render", str(field_csv), str(out_pgm)]) == 1
    captured = capsys.readouterr()
    assert f"config error in render: cannot write {str(out_pgm)!r}: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no preview
    assert not (tmp_path / "missing").exists()


def test_render_of_overflowing_span_is_a_config_error(tmp_path, capsys):
    # each temperature is finite, but max - min overflows to inf
    field_csv = tmp_path / "field.csv"
    field_csv.write_text("i,j,x,y,T\n0,0,0.0,0.0,-1e308\n0,1,0.0,1.0,1e308\n1,0,1.0,0.0,0.0\n1,1,1.0,1.0,0.0\n")
    out_pgm = tmp_path / "f.pgm"
    assert cli.main(["render", str(field_csv), str(out_pgm)]) == 1
    captured = capsys.readouterr()
    assert "config error in field: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no preview
    assert not out_pgm.exists()


def test_demo_restates_problem_and_solver_defaults(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    demo, defaults = cli.load_config(str(Path(__file__).parents[1] / "demo.ini")), cli.load_config(str(empty))
    assert (demo.problem, demo.solver) == (defaults.problem, defaults.solver)


def test_readme_key_block_loads_as_the_defaults(tmp_path):
    # the README's "All keys" block, its trailing "# ..." comments included, spells out the empty config
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed, empty = tmp_path / "listed.ini", tmp_path / "empty.ini"
    listed.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    empty.write_text("")
    assert cli.load_config(str(listed)) == cli.load_config(str(empty))


def test_sweep_reports_an_overflowing_derived_beta_range(tmp_path):
    # 530 bits per unknown: the block QUBO's smallest pair coefficient is subnormal, so the derived
    # beta_final = 10 / min |coefficient| is inf
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        solver={"backend": "sa", "blocks": 9, "bits": 530, "num_reads": 2, "sweeps": 5},
        sweep={"bits": "530", "backends": "sa"},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 1
    status = (tmp_path / "out" / "sweep_summary.txt").read_text()
    assert "error: beta schedule requires a finite ratio beta_final / beta_initial, got inf / " in status


def test_sweep_flag_overrides_narrow_lists(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        solver={"max_iters": 5, "tol": "1e-9"},
        sweep={"bits": "2", "gammas": "1.0", "backends": "exact,sa", "seeds": "1,2,3"},
        output={"directory": str(tmp_path / "sw")},
    )
    assert cli.main(["sweep", str(cfg_path), "--backend", "exact", "--seed", "9"]) == 0
    _, rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert {r[0] for r in rows} == {"exact"}
    assert {r[4] for r in rows} == {"9"}


def test_sweep_runs_combinations_in_list_order(tmp_path):
    # backends, then bits, gammas and seeds, each list in file order (seeds deliberately unsorted)
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        solver={"max_iters": 2, "num_reads": 2, "sweeps": 5},
        sweep={"bits": "2,3", "gammas": "1.0,0.8", "backends": "exact,sa", "seeds": "5,4"},
        output={"directory": str(tmp_path / "sw")},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 0
    combos = list(itertools.product(["exact", "sa"], ["2", "3"], ["1.0", "0.8"], ["5", "4"]))
    status = (tmp_path / "sw" / "sweep_summary.txt").read_text().strip().split("\n")
    assert [line.split(":")[0] for line in status] == [f"trace_{b}_R{r}_g{g}_s{s}.csv" for b, r, g, s in combos]
    _, rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert [key for key, _ in itertools.groupby((r[0], r[1], r[3], r[4]) for r in rows)] == combos


def test_sweep_product_and_determinism(tmp_path):
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        solver={"blocks": 3, "max_iters": 12, "tol": "1e-9", "num_reads": 6, "sweeps": 30},
        sweep={"bits": "2,3,5,7", "gammas": "1.0,0.8", "backends": "exact,sa", "seeds": "5"},
        output={"directory": str(tmp_path / "s1")},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 0
    traces = sorted(p.name for p in (tmp_path / "s1").glob("trace_*.csv"))
    assert len(traces) == 16

    header, rows = read_csv(tmp_path / "s1" / "sweep.csv")
    assert header == ["backend", "R", "D", "gamma", "seed", "k", "residual", "relative_error"]
    assert {r[0] for r in rows} == {"exact", "sa"}
    assert {r[1] for r in rows} == {"2", "3", "5", "7"}

    assert cli.main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (tmp_path / "s2" / "sweep.csv").read_bytes()
    for name in traces:
        assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()


def test_sweep_continues_past_failing_combination(tmp_path):
    # 27-bit blocks exceed the exhaustive scan limit; every exhaustive combination
    # is recorded as an error while the exact and annealing groups still run
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        problem={"m": 10},
        solver={"blocks": 9, "max_iters": 3, "tol": "1e-9", "sweeps": 20},
        sweep={"bits": "3", "gammas": "1.0", "backends": "exact,exhaustive,sa", "seeds": "1,2"},
        output={"directory": str(tmp_path / "sweep")},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 1
    _, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert [key for key, _ in itertools.groupby((r[0], r[4]) for r in rows)] == [
        ("exact", "1"), ("exact", "2"), ("sa", "1"), ("sa", "2")
    ]
    status = (tmp_path / "sweep" / "sweep_summary.txt").read_text().strip().split("\n")
    names = [f"trace_{b}_R3_g1.0_s{s}.csv" for b in ("exact", "exhaustive", "sa") for s in (1, 2)]
    assert [line.split(":")[0] for line in status] == names
    assert ["error" in line for line in status] == [False, False, True, True, False, False]
    assert "exhaustive limit" in status[2] and "exhaustive limit" in status[3]
    written = sorted(p.name for p in (tmp_path / "sweep").glob("trace_*.csv"))
    assert written == sorted(names[:2] + names[4:])


def test_sweep_traces_match_single_solves(tmp_path):
    # in the annealing group the gamma = 0.8 runs converge and the gamma = 1.0
    # runs hit max_iters, so the lockstep runs leave the batch at different sweeps
    solver = {"backend": "sa", "bits": 3, "tol": "1e-3", "max_iters": 40, "num_reads": 15, "sweeps": 80}
    cfg_path = write_config(
        tmp_path / "sweep.ini",
        solver=solver,
        sweep={"bits": "3", "gammas": "1.0,0.8", "backends": "exact,sa", "seeds": "3,4"},
        output={"directory": str(tmp_path / "sweep")},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 0
    status = (tmp_path / "sweep" / "sweep_summary.txt").read_text()
    for seed in (3, 4):
        assert f"trace_sa_R3_g1.0_s{seed}.csv: max_iters (40 iterations)" in status
        assert f"trace_sa_R3_g0.8_s{seed}.csv: converged" in status
    for backend, gamma, seed in itertools.product(["exact", "sa"], ["1.0", "0.8"], ["3", "4"]):
        solve_path = write_config(tmp_path / "solve.ini", solver={**solver, "gamma": gamma})
        out = tmp_path / f"solve_{backend}_{gamma}_{seed}"
        code = cli.main(["solve", str(solve_path), "--seed", seed, "--backend", backend, "--out-dir", str(out)])
        assert code == (2 if (backend, gamma) == ("sa", "1.0") else 0)
        name = f"trace_{backend}_R3_g{gamma}_s{seed}.csv"
        assert (out / "trace.csv").read_bytes() == (tmp_path / "sweep" / name).read_bytes(), name


def test_solve_rejects_blocks_beyond_exhaustive_limit(tmp_path, capsys):
    # 81 unknowns in 9 blocks of 3 bits make 27-bit blocks, past the scan limit
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        problem={"m": 10},
        solver={"backend": "exhaustive", "blocks": 9, "bits": 3},
        sweep={"bits": "3", "backends": "exhaustive"},
    )
    assert cli.main(["solve", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error in solver.bits" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # a sweep over the same blocks and bits spells the limit as solve does
    assert cli.main(["sweep", str(cfg_path)]) == 1
    (status,) = (tmp_path / "out" / "sweep_summary.txt").read_text().strip().split("\n")
    assert status.split(": error: ", 1)[1] == err.strip().split("config error in solver.bits: ", 1)[1]


def test_sweep_contrast_between_backends(tmp_path):
    # with the interval frozen (gamma = 1) the sampled path levels off well
    # above the classical one, which keeps dropping toward its tolerance
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        solver={"blocks": 3, "max_iters": 20, "tol": "1e-12", "num_reads": 10, "sweeps": 50},
        sweep={"bits": "2", "gammas": "1.0", "backends": "exact,sa", "seeds": "5"},
        output={"directory": str(tmp_path / "sweep")},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 0
    _, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    sa_errors = [float(r[7]) for r in rows if r[0] == "sa"]
    exact_errors = [float(r[7]) for r in rows if r[0] == "exact"]
    assert exact_errors[-1] < 1e-8
    assert sa_errors[-1] > 1e-2  # stuck at the coarse 2-bit grid
    late = sa_errors[-5:]
    assert max(late) - min(late) <= 0.25 * np.median(late)  # leveled off


def test_render_demo_field(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini")
    assert cli.main(["solve", str(cfg_path)]) == 0
    pgm_path = tmp_path / "field.pgm"
    assert cli.main(["render", str(tmp_path / "out" / "field.csv"), str(pgm_path)]) == 0
    lines = pgm_path.read_text().strip().split("\n")
    assert lines[0] == "P2" and lines[1] == "5 5" and lines[2] == "255"
    raster = [[int(v) for v in line.split()] for line in lines[3:]]
    assert raster[0][-1] == 255  # top-right corner is hottest
    assert raster[-1][0] == 0  # bottom-left corner is coldest


def test_render_flat_and_checkerboard(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("i,j,x,y,T\n" + "\n".join(f"{i},{j},{i}.0,{j}.0,4.2" for i in range(2) for j in range(2)) + "\n")
    out = tmp_path / "flat.pgm"
    assert cli.main(["render", str(flat), str(out)]) == 0
    values = {int(v) for line in out.read_text().strip().split("\n")[3:] for v in line.split()}
    assert values == {0}

    checker = tmp_path / "checker.csv"
    checker.write_text(
        "i,j,x,y,T\n" + "\n".join(f"{i},{j},{i}.0,{j}.0,{float((i + j) % 2)}" for i in range(2) for j in range(2)) + "\n"
    )
    out2 = tmp_path / "checker.pgm"
    assert cli.main(["render", str(checker), str(out2)]) == 0
    values2 = {int(v) for line in out2.read_text().strip().split("\n")[3:] for v in line.split()}
    assert values2 == {0, 255}


def test_render_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli.main(["render", str(bad), str(tmp_path / "x.pgm")]) == 1
    capsys.readouterr()

    holes = tmp_path / "holes.csv"
    holes.write_text("i,j,x,y,T\n0,0,0.0,0.0,1.0\n1,1,1.0,1.0,2.0\n")
    assert cli.main(["render", str(holes), str(tmp_path / "y.pgm")]) == 1
    capsys.readouterr()

    # a complete 2x2 grid that lists (1,1) twice; the later value used to win silently
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("i,j,x,y,T\n0,0,0.0,0.0,1.0\n0,1,0.0,1.0,2.0\n1,0,1.0,0.0,3.0\n1,1,1.0,1.0,4.0\n1,1,1.0,1.0,5.0\n")
    assert cli.main(["render", str(repeated), str(tmp_path / "r.pgm")]) == 1
    assert "config error in field: repeated node" in capsys.readouterr().err
    assert not (tmp_path / "r.pgm").exists()

    for cell in ("nan", "inf"):
        nonfinite = tmp_path / f"{cell}.csv"
        nonfinite.write_text(f"i,j,x,y,T\n0,0,0.0,0.0,1.0\n0,1,0.0,1.0,{cell}\n1,0,1.0,0.0,2.0\n1,1,1.0,1.0,3.0\n")
        assert cli.main(["render", str(nonfinite), str(tmp_path / f"{cell}.pgm")]) == 1
        assert "config error in field" in capsys.readouterr().err
        assert not (tmp_path / f"{cell}.pgm").exists()


def test_exit_codes_through_interpreter(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.ini")
    # the child runs from tmp_path, where a relative PYTHONPATH entry no
    # longer resolves; point it at the source tree this process imported
    package_root = str(Path(qubogs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "qubogs", "solve", str(cfg_path)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert run.returncode == 0, run.stderr
    run_bad = subprocess.run(
        [sys.executable, "-m", "qubogs", "solve", "nope.ini"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert run_bad.returncode == 1
    assert "config error" in run_bad.stderr


def test_demo_defaults_converge(tmp_path):
    # the built-in demo: 81 unknowns, 9 blocks, 3 bits, shrink 0.8, annealing backend
    cfg_path = tmp_path / "demo.ini"
    cfg_path.write_text(f"[output]\ndirectory = {tmp_path / 'demo_out'}\n")
    assert cli.main(["solve", str(cfg_path)]) == 0
    summary = dict(
        line.split("=", 1) for line in (tmp_path / "demo_out" / "summary.txt").read_text().strip().split("\n")
    )
    assert summary["converged"] == "true"
    assert summary["n"] == "81"
    assert float(summary["final_relative_error"]) < 1e-2
