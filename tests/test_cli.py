import json
import os
import warnings

import numpy as np
import pytest

from plapopt import acceptance, cli, solver
from plapopt.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)
from plapopt.fileio import (
    file_sha256,
    read_load,
    read_mesh,
    write_csv,
    write_load,
    write_mesh,
)
from plapopt.geometry import unequal_cell
from plapopt.perturbation import derivative_report, tangent_field
from plapopt.rearrangement import LoadField, binary_load, step_load
from plapopt.solver import SolveConfig


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def mesh_file(workdir):
    assert main(["mesh", "--shape", "disk", "--n", "32", "--out", "m.txt"]) == EXIT_OK
    return workdir / "m.txt"


@pytest.fixture()
def load_file(workdir, mesh_file):
    mesh = read_mesh(mesh_file)
    write_load(workdir / "f.txt", binary_load(mesh, 8))
    return workdir / "f.txt"


class TestMeshCommand:
    def test_disk_mesh_valid(self, mesh_file):
        mesh = read_mesh(mesh_file)
        assert unequal_cell(mesh) is None
        assert mesh.n_boundary_cells == 32

    def test_square_mesh(self, workdir):
        assert main(["mesh", "--shape", "square", "--n", "4", "--out", "sq.txt"]) == EXIT_OK
        mesh = read_mesh(workdir / "sq.txt")
        assert mesh.n_boundary_cells == 16

    def test_roundtrip_identical(self, workdir, mesh_file):
        mesh = read_mesh(mesh_file)
        write_mesh(workdir / "again.txt", mesh)
        assert file_sha256(mesh_file) == file_sha256(workdir / "again.txt")

    def test_default_out_is_mesh_txt(self, workdir, monkeypatch):
        # flags are the one way to set an option: the environment names
        # no output directory
        monkeypatch.setenv("PLAPOPT_OUT", str(workdir / "envout"))
        assert main(["mesh", "--n", "16"]) == EXIT_OK
        assert read_mesh(workdir / "mesh.txt").n_boundary_cells == 16
        assert not (workdir / "envout").exists()

    @pytest.mark.parametrize("n_radial", ["0", "1"])
    def test_too_few_rings_is_config_error(self, workdir, capsys, n_radial):
        rc = main(["mesh", "--n", "32", "--n-radial", n_radial, "--out", "m.txt"])
        assert rc == EXIT_CONFIG
        assert f"n_radial must be >= 2, got {n_radial}" in capsys.readouterr().err
        assert not os.path.exists("m.txt")

    @pytest.mark.parametrize("flags", [["--radius", "nan"], ["--radius", "inf"],
                                       ["--shape", "square", "--side", "nan"]])
    def test_nonfinite_size_is_config_error(self, workdir, capsys, flags):
        rc = main(["mesh", "--n", "16", *flags, "--out", "m.txt"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "must be positive and finite" in err and "Traceback" not in err
        assert not os.path.exists("m.txt")


class TestSolveCommand:
    def test_zero_load_gives_zero_J(self, workdir, mesh_file):
        mesh = read_mesh(mesh_file)
        write_load("zero.txt", binary_load(mesh, 8))
        np_zero = np.zeros(mesh.n_boundary_cells)
        with open("zero.txt", "w") as fh:
            fh.write("\n".join("0.0" for _ in np_zero))
        rc = main(["solve", "--mesh", str(mesh_file), "--load", "zero.txt",
                   "--p", "2.0", "--out", "s.json"])
        assert rc == EXIT_OK
        with open("s.json") as fh:
            rep = json.load(fh)
        assert rep["J"] == 0.0
        assert rep["converged"]
        assert rep["stage_exits"] == ["converged"] * len(rep["eps_stages"])
        # a zero load is solved by u = 0 without a Newton step
        assert rep["factorizations"] == rep["cg_iterations"] == 0
        assert rep["tool_version"]
        assert rep["mesh_sha256"] == file_sha256(mesh_file)

    def test_stage_exits_are_emitted_unchanged(self, workdir, mesh_file, load_file,
                                               monkeypatch):
        # a solve started far off (the state of the load turned half-way
        # round) leaves its warm stage as "slow"; the JSON lists the
        # report's exits as they are
        mesh = read_mesh(mesh_file)
        f = read_load(load_file, mesh)
        cfg = SolveConfig(p=1.5)
        far, _ = solver.solve(mesh, LoadField(np.roll(f.cell_values, 16)), cfg)
        reports = []

        def warm(mesh, f, config):
            state, rep = solver.solve(mesh, f, config, u_init=far)
            reports.append(rep)
            return state, rep

        monkeypatch.setattr(cli, "solve", warm)
        rc = main(["solve", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "1.5", "--out", "s.json"])
        assert rc == EXIT_OK
        with open("s.json") as fh:
            exits = json.load(fh)["stage_exits"]
        assert exits[0] == "slow"
        assert exits == reports[0].stage_exits

    @pytest.mark.parametrize("shape", ["disk", "square"])
    def test_clockwise_mesh_is_config_error(self, workdir, capsys, shape):
        assert main(["mesh", "--shape", shape, "--n", "8", "--out", "m.txt"]) == EXIT_OK
        mesh = read_mesh("m.txt")
        write_load("f.txt", binary_load(mesh, 4))
        lines = (workdir / "m.txt").read_text().splitlines()
        lines[-1] = " ".join(lines[-1].split()[::-1])
        (workdir / "cw.txt").write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--mesh", "cw.txt", "--load", "f.txt",
                   "--p", "2.0", "--out", "s.json"])
        assert rc == EXIT_CONFIG
        assert "not counter-clockwise" in capsys.readouterr().err
        assert not os.path.exists("s.json")

    def test_out_of_range_vertex_is_config_error(self, workdir, capsys):
        assert main(["mesh", "--n", "8", "--out", "m.txt"]) == EXIT_OK
        mesh = read_mesh("m.txt")
        write_load("f.txt", binary_load(mesh, 4))
        lines = (workdir / "m.txt").read_text().splitlines()
        lines[-1] = " ".join(["999"] + lines[-1].split()[1:])
        (workdir / "bad.txt").write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--mesh", "bad.txt", "--load", "f.txt",
                   "--p", "2.0", "--out", "s.json"])
        assert rc == EXIT_CONFIG
        assert "names vertex 999, but the mesh has 17 vertices" in capsys.readouterr().err
        assert not os.path.exists("s.json")

    @pytest.mark.parametrize("broken", ["nan-vertex", "isolated-vertex"])
    def test_broken_mesh_rule_is_config_error(self, workdir, capsys, broken):
        # the 16-cell disk with vertex 4 at NaN, or with a vertex 33 that
        # lies in no triangle
        assert main(["mesh", "--n", "16", "--out", "m.txt"]) == EXIT_OK
        write_load("f.txt", binary_load(read_mesh("m.txt"), 4))
        lines = (workdir / "m.txt").read_text().splitlines()
        n_v, n_t, n_b = (int(t) for t in lines[0].split()[1:])
        if broken == "nan-vertex":
            lines[5] = "nan 0"
            message = "vertex 4 has a non-finite coordinate"
        else:
            lines[0] = f"MESH2D {n_v + 1} {n_t} {n_b}"
            lines.insert(1 + n_v, "0.1 0.1")
            message = f"vertex {n_v} belongs to no triangle"
        (workdir / "bad.txt").write_text("\n".join(lines) + "\n")
        rc = main(["solve", "--mesh", "bad.txt", "--load", "f.txt",
                   "--p", "3", "--out", "s.json"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"mesh 'bad.txt' is invalid: {message}" in err and "Traceback" not in err
        assert not os.path.exists("s.json")

    def test_unequal_cells_are_config_error(self, workdir, capsys):
        # boundary vertex 1 slid along the octagon: the mesh is valid, but
        # two of its cells are unequal
        assert main(["mesh", "--n", "8", "--out", "m.txt"]) == EXIT_OK
        mesh = read_mesh("m.txt")
        write_load("f.txt", binary_load(mesh, 4))
        i, j = mesh.boundary_loop[1], mesh.boundary_loop[2]
        x, y = 0.7 * mesh.vertices[i] + 0.3 * mesh.vertices[j]
        lines = (workdir / "m.txt").read_text().splitlines()
        lines[1 + i] = f"{x:.17g} {y:.17g}"
        (workdir / "u.txt").write_text("\n".join(lines) + "\n")
        assert unequal_cell(read_mesh("u.txt"))
        for command, load_flag in (("solve", "--load"), ("optimize", "--load0")):
            rc = main([command, "--mesh", "u.txt", load_flag, "f.txt",
                       "--p", "2", "--out", "out"])
            assert rc == EXIT_CONFIG
            assert "mesh 'u.txt' is invalid: boundary cell 0 length" in (
                capsys.readouterr().err)
            assert not os.path.exists("out")

    def test_nonfinite_numbers_are_written_as_null(self, workdir):
        # a load of 1e200 on 4 of the 16 cells at p = 3 stalls with an
        # infinite residual; the report is still strict JSON
        assert main(["mesh", "--n", "16", "--out", "m.txt"]) == EXIT_OK
        (workdir / "f.txt").write_text("1e200\n" * 4 + "0.0\n" * 12)
        rc = main(["solve", "--mesh", "m.txt", "--load", "f.txt",
                   "--p", "3", "--out", "s.json"])
        assert rc == EXIT_SOLVER

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads((workdir / "s.json").read_text(), parse_constant=refuse)
        assert rep["final_residual"] is None and rep["converged"] is False

    def test_gap_over_its_bound_exits_3(self, workdir, mesh_file, load_file, capsys,
                                        monkeypatch):
        # a converged solve whose duality gap is twice 1e-6 (1 + |J|): the
        # report is written, then main's SolverError handler exits 3
        def wide_gap(mesh, f, config):
            state, rep = solver.solve(mesh, f, config)
            rep.I = rep.J - 2e-6 * (1.0 + abs(rep.J))
            return state, rep

        monkeypatch.setattr(cli, "solve", wide_gap)
        rc = main(["solve", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2", "--out", "s.json"])
        assert rc == EXIT_SOLVER
        rep = json.loads((workdir / "s.json").read_text())
        assert rep["converged"] is True
        assert rep["duality_gap"] > 1e-6 * (1.0 + abs(rep["J"]))
        assert capsys.readouterr().err.startswith("solver failure: duality gap")

    @pytest.mark.parametrize("text", ["MESH2D 3 1 0\n0 0\n1 0\n0 1\n0 1 2\n",
                                      "MESH2D 0 0 0\n"], ids=["triangle", "nothing"])
    def test_empty_boundary_loop_is_config_error(self, workdir, capsys, text):
        (workdir / "e.txt").write_text(text)
        (workdir / "f.txt").write_text("1.0\n")
        rc = main(["solve", "--mesh", "e.txt", "--load", "f.txt",
                   "--p", "2.0", "--out", "s.json"])
        assert rc == EXIT_CONFIG
        assert "invalid: boundary loop is empty" in capsys.readouterr().err
        assert not os.path.exists("s.json")

    def test_missing_mesh_is_config_error(self, workdir):
        rc = main(["solve", "--mesh", "nope.txt", "--load", "nope.txt",
                   "--p", "2.0", "--out", "s.json"])
        assert rc == EXIT_CONFIG

    def test_missing_load_is_config_error(self, workdir, mesh_file, capsys):
        for command, load_flag, extra in (
            ("solve", "--load", []),
            ("optimize", "--load0", []),
            ("derivative", "--load", ["--field", "sin:1"]),
        ):
            rc = main([command, "--mesh", str(mesh_file), load_flag, "nope.txt",
                       "--p", "2.0", "--out", "out", *extra])
            assert rc == EXIT_CONFIG
            assert f"{load_flag[2:]} path 'nope.txt' does not exist" in (
                capsys.readouterr().err
            )
            assert not os.path.exists("out")

    def test_eps_is_no_option(self, workdir, mesh_file, load_file, capsys):
        rc = main(["solve", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", "--eps-final", "1e-6", "--out", "s.json"])
        assert rc == EXIT_CONFIG
        assert "--eps-final" in capsys.readouterr().err
        assert not os.path.exists("s.json")

    def test_config_is_no_option(self, workdir, mesh_file, load_file, capsys):
        (workdir / "x.json").write_text('{"p": 2.0}')
        rc = main(["solve", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", "--config", "x.json", "--out", "s.json"])
        assert rc == EXIT_CONFIG
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not os.path.exists("s.json")

    def test_config_echo_records_flags_and_default_out(self, workdir, mesh_file,
                                                       load_file):
        rc = main(["solve", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0"])
        assert rc == EXIT_OK
        with open("solve.json") as fh:
            echo = json.load(fh)["config_echo"]
        assert echo == {"command": "solve", "load": str(load_file),
                        "mesh": str(mesh_file), "out": "solve.json", "p": 2.0}

    def test_bad_p_is_config_error(self, workdir, mesh_file, load_file):
        for command, load_flag, extra in (
            ("solve", "--load", []),
            ("optimize", "--load0", []),
            ("derivative", "--load", ["--field", "sin:1"]),
        ):
            rc = main([command, "--mesh", str(mesh_file), load_flag, str(load_file),
                       "--p", "0.5", "--out", "bad-out", *extra])
            assert rc == EXIT_CONFIG
            assert not os.path.exists("bad-out")


class TestFlagValues:
    # argparse refuses a value its flag's type or choices refuse, and the
    # solver config refuses p outside [P_MIN, P_MAX]: each exits 2 before
    # anything is written
    @pytest.mark.parametrize("argv, message", [
        (["mesh", "--n-radial", "x"], "argument --n-radial: invalid int value: 'x'"),
        (["mesh", "--shape", "hexagon"], "argument --shape: invalid choice: 'hexagon'"),
        (["suite", "--criteria", "4", "x"], "argument --criteria: invalid int value: 'x'"),
        (["solve", "--mesh", "m.txt", "--load", "f.txt", "--p", "x"],
         "argument --p: invalid float value: 'x'"),
        (["solve", "--mesh", "m.txt", "--load", "f.txt", "--p", "0.5"],
         "p must lie in [1.1, 10.0], got 0.5"),
    ], ids=["int", "choice", "int-list", "float", "p-range"])
    def test_refused(self, workdir, mesh_file, load_file, capsys, argv, message):
        assert main(argv + ["--out", "out"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not os.path.exists("out")


class TestPathErrors:
    # a directory where a file is read or written, or a file where the
    # output directory goes: each is a configuration error, not a traceback
    @pytest.mark.parametrize("argv", [
        ["solve", "--mesh", "dir", "--load", "f.txt", "--p", "2", "--out", "s.json"],
        ["solve", "--mesh", "m.txt", "--load", "dir", "--p", "2", "--out", "s.json"],
        ["solve", "--mesh", "m.txt", "--load", "f.txt", "--p", "2", "--out", "dir"],
        ["derivative", "--mesh", "m.txt", "--load", "f.txt", "--p", "2",
         "--field", "sin:1", "--out", "dir"],
        ["mesh", "--n", "8", "--out", "dir"],
        ["optimize", "--mesh", "m.txt", "--load0", "f.txt", "--p", "2",
         "--out", "file.txt"],
    ], ids=["solve-mesh-dir", "solve-load-dir", "solve-out-dir", "derivative-out-dir",
            "mesh-out-dir", "optimize-out-file"])
    def test_is_config_error(self, workdir, mesh_file, load_file, capsys, argv):
        (workdir / "dir").mkdir()
        (workdir / "file.txt").write_text("taken\n")
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        # the message names the path at fault alone, not the temporary
        # file that an output was written to and that is already removed
        bad = "file.txt" if "file.txt" in argv else "dir"
        assert err.rstrip().endswith(f": '{bad}'") and ".tmp-" not in err
        assert not list(workdir.rglob(".tmp-*"))
        assert not os.path.exists("s.json")
        assert [p.name for p in (workdir / "dir").iterdir()] == []


class TestOptimizeCommand:
    def test_outputs_and_determinism(self, workdir, mesh_file, load_file):
        args = ["optimize", "--mesh", str(mesh_file), "--load0", str(load_file),
                "--p", "2.0", "--restarts", "2", "--seed", "3"]
        assert main(args + ["--out", "run1"]) == EXIT_OK
        assert main(args + ["--out", "run2"]) == EXIT_OK
        h1 = file_sha256("run1/history.csv")
        h2 = file_sha256("run2/history.csv")
        assert h1 == h2  # byte-identical for identical config + seed
        assert file_sha256("run1/fhat.txt") == file_sha256("run2/fhat.txt")
        mesh = read_mesh(mesh_file)
        fhat = read_load("run1/fhat.txt", mesh)
        assert set(np.unique(fhat.cell_values)) == {0.0, 1.0}
        with open("run1/summary.json") as fh:
            summary = json.load(fh)
        assert summary["seed"] == 3
        assert len(summary["restarts"]) == 2

    def test_summary_names_the_returned_restart(self, workdir):
        # restart 3's J is 4e-14 above restart 0's, a rounding tie: J_best
        # is restart 3's J, and fhat.txt is restart 0's load
        assert main(["mesh", "--n", "64", "--out", "m64.txt"]) == EXIT_OK
        write_load("f64.txt", binary_load(read_mesh("m64.txt"), 16))
        assert main(["optimize", "--mesh", "m64.txt", "--load0", "f64.txt",
                     "--p", "1.5", "--restarts", "5", "--seed", "11",
                     "--out", "opt"]) == EXIT_OK
        with open("opt/summary.json") as fh:
            summary = json.load(fh)
        J = [r["J"] for r in summary["restarts"]]
        assert summary["returned"] == {"restart": 0, "J": J[0]}
        assert summary["J_best"] == max(J)
        assert abs(summary["J_best"] - J[0]) <= 1e-9 * (1.0 + abs(J[0]))

    def test_history_counts_solver_work(self, workdir, mesh_file, load_file):
        assert main(["optimize", "--mesh", str(mesh_file), "--load0", str(load_file),
                     "--p", "1.5", "--out", "run"]) == EXIT_OK
        rows = (workdir / "run" / "history.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[-2:] == ["newton_steps", "factorizations"]
        steps = [int(row.split(",")[-2]) for row in rows[1:]]
        assert steps[0] > 0 and all(s < steps[0] for s in steps[1:])

    def test_history_ends_every_restart_tight(self, workdir, mesh_file, load_file):
        # the columns I and tight; every restart's last row is tight, and
        # summary.json reads each restart's J from that row
        assert main(["optimize", "--mesh", str(mesh_file), "--load0", str(load_file),
                     "--p", "1.5", "--restarts", "3", "--out", "run"]) == EXIT_OK
        rows = (workdir / "run" / "history.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[:8] == ["restart", "iter", "J", "I", "duality_gap", "defect",
                              "changed", "tight"]
        last = {}
        for row in rows[1:]:
            rec = dict(zip(header, row.split(",")))
            last[int(rec["restart"])] = rec
        assert all(rec["tight"] == "1" for rec in last.values())
        with open("run/summary.json") as fh:
            summary = json.load(fh)
        assert [r["J"] for r in summary["restarts"]] == [
            float(last[r]["J"]) for r in sorted(last)]

    def test_different_seed_changes_history(self, workdir, mesh_file, load_file):
        base = ["optimize", "--mesh", str(mesh_file), "--load0", str(load_file),
                "--p", "2.0", "--restarts", "3"]
        main(base + ["--seed", "1", "--out", "a"])
        main(base + ["--seed", "2", "--out", "b"])
        assert file_sha256("a/history.csv") != file_sha256("b/history.csv")


class TestDerivativeCommand:
    def test_report_files(self, workdir, mesh_file, load_file):
        rc = main(["derivative", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", "--field", "cos:1", "--t", "1e-3", "--out", "d.json"])
        assert rc == EXIT_OK
        with open("d.json") as fh:
            rep = json.load(fh)
        assert set(rep["estimates"]) == {"volume", "surfdiv", "bvjump", "findiff"}
        assert os.path.exists("d-agreement.csv")

    def test_agreement_rows_are_the_discrepancies(self, workdir, mesh_file, load_file):
        rc = main(["derivative", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", "--field", "cos:1", "--t", "1e-3", "--out", "d.json"])
        assert rc == EXIT_OK
        mesh = read_mesh(mesh_file)
        field = tangent_field("cos:1", mesh.total_boundary_length)
        rep = derivative_report(mesh, read_load(load_file, mesh), field,
                                SolveConfig(p=2.0), t=1e-3)
        est, disc = rep.values, rep.discrepancies
        header, *rows = (line.split(",") for line in
                         (workdir / "d-agreement.csv").read_text().splitlines())
        assert [f"{a}-{b}" for a, b, *_ in rows] == list(disc)
        for a, b, va, vb, rel in rows:
            assert (float(va), float(vb), float(rel)) == (est[a], est[b], disc[f"{a}-{b}"])
        # byte for byte the file written from every pair of estimates in turn
        names = list(est)
        write_csv("pairs.csv", header, [
            (a, b, est[a], est[b], disc[f"{a}-{b}"])
            for i, a in enumerate(names) for b in names[i + 1:]
        ])
        assert file_sha256("pairs.csv") == file_sha256("d-agreement.csv")

    def test_square_mesh_agreement(self, workdir):
        assert main(["mesh", "--shape", "square", "--n", "32", "--out", "sq.txt"]) == EXIT_OK
        write_load("f.txt", step_load(read_mesh("sq.txt"), acceptance.STEP_LEVELS))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["derivative", "--mesh", "sq.txt", "--load", "f.txt",
                       "--p", "2.0", "--field", "sin:1", "--out", "d.json"])
        assert rc == EXIT_OK
        with open("d.json") as fh:
            assert json.load(fh)["max_discrepancy"] <= 1e-2

    def test_bad_field_spec(self, workdir, mesh_file, load_file):
        rc = main(["derivative", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", "--field", "vortex:1", "--out", "d.json"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--field", "constant:nan"],
        ["--field", "bump:nan,1"],
        ["--field", "sin:1", "--t", "inf"],
        ["--field", "sin:1", "--t", "nan"],
    ])
    def test_nonfinite_flow_input_is_config_error(self, workdir, mesh_file, load_file,
                                                 capsys, flags):
        rc = main(["derivative", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", *flags, "--out", "d.json"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        # each input's own message: "finite" alone is also in
        # "finite-difference step", the step-range message
        message = "step t must lie in (0, " if "--t" in flags else "must be finite"
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not os.path.exists("d.json")

    def test_step_beyond_one_period_is_config_error(self, workdir, mesh_file, load_file,
                                                    capsys):
        # 400 RK4 steps per unit time would make t = 1e300 run forever
        rc = main(["derivative", "--mesh", str(mesh_file), "--load", str(load_file),
                   "--p", "2.0", "--field", "sin:1", "--t", "1e300", "--out", "d.json"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step t must lie in (0, " in err
        assert err.count("\n") == 1
        assert not os.path.exists("d.json")


class TestSuiteCommand:
    def test_selected_criteria(self, workdir):
        rc = main(["suite", "acceptance", "--criteria", "10", "--out", "acc.json"])
        assert rc == EXIT_OK
        with open("acc.json") as fh:
            out = json.load(fh)
        assert out["all_passed"]
        assert [r["number"] for r in out["results"]] == [10]

    def test_unknown_suite(self, workdir):
        assert main(["suite", "smoke"]) == EXIT_CONFIG

    def test_unknown_criterion_is_config_error(self, workdir, capsys):
        rc = main(["suite", "acceptance", "--criteria", "4", "99", "--out", "acc.json"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unknown criteria [99]; criteria are numbered 1..{len(acceptance.ALL_CRITERIA)}" in err
        assert "Traceback" not in err
        assert not os.path.exists("acc.json")

    def test_failing_criterion_exits_4(self, workdir, monkeypatch):
        def failing():
            return acceptance.CriterionResult(1, "stub", False, {}, 0.0)

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [failing])
        rc = main(["suite", "acceptance", "--out", "acc.json"])
        assert rc == EXIT_ACCEPTANCE
        with open("acc.json") as fh:
            assert not json.load(fh)["all_passed"]
