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
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.reference import direct_solve


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
                    exact_solution=direct_solve(system))
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
    ],
    ids=["sources", "length", "scale", "offset", "tol", "beta_initial"],
)
def test_nonfinite_config_values_rejected(tmp_path, capsys, section, keys, where):
    cfg_path = write_config(tmp_path / "cfg.ini", **{section: keys})
    assert cli.main(["solve", str(cfg_path)]) == 1
    assert f"config error in {where}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_takes_one_full_svd(tmp_path, monkeypatch):
    svd = np.linalg.svd
    shapes = []

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    cfg_path = write_config(tmp_path / "cfg.ini")  # 9 unknowns, exact backend in 3 blocks
    assert cli.main(["solve", str(cfg_path)]) == 0
    assert shapes.count((9, 9)) == 1
    assert shapes.count((3, 3)) == 3


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
    # 27-bit blocks exceed the exhaustive scan limit; those combinations are
    # recorded as errors while the exact ones still run
    cfg_path = write_config(
        tmp_path / "cfg.ini",
        problem={"m": 10},
        solver={"blocks": 9, "max_iters": 3, "tol": "1e-9"},
        sweep={"bits": "3", "gammas": "1.0", "backends": "exhaustive,exact", "seeds": "1"},
        output={"directory": str(tmp_path / "sweep")},
    )
    assert cli.main(["sweep", str(cfg_path)]) == 1
    _, rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert {r[0] for r in rows} == {"exact"}
    status = (tmp_path / "sweep" / "sweep_summary.txt").read_text()
    assert "error" in status and "exhaustive" in status


def test_solve_rejects_blocks_beyond_exhaustive_limit(tmp_path, capsys):
    # 81 unknowns in 9 blocks of 3 bits make 27-bit blocks, past the scan limit
    cfg_path = write_config(tmp_path / "cfg.ini", problem={"m": 10}, solver={"backend": "exhaustive", "blocks": 9, "bits": 3})
    assert cli.main(["solve", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error in solver.bits" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
