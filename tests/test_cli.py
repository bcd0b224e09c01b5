import json
import os
import warnings

import numpy as np
import pytest

from plapopt import acceptance
from plapopt.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)
from plapopt.fileio import (
    file_sha256,
    read_load,
    read_mesh,
    write_load,
    write_mesh,
)
from plapopt.geometry import validate_mesh
from plapopt.rearrangement import binary_load, step_load


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
        assert validate_mesh(mesh).ok
        assert mesh.n_boundary_cells == 32

    def test_square_mesh(self, workdir):
        assert main(["mesh", "--shape", "square", "--n", "4", "--out", "sq.txt"]) == EXIT_OK
        mesh = read_mesh(workdir / "sq.txt")
        assert mesh.n_boundary_cells == 16

    def test_roundtrip_identical(self, workdir, mesh_file):
        mesh = read_mesh(mesh_file)
        write_mesh(workdir / "again.txt", mesh)
        assert file_sha256(mesh_file) == file_sha256(workdir / "again.txt")


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
        # the positional kind is a config key like any flag
        with open("cfg.json", "w") as fh:
            json.dump({"kind": "smoke"}, fh)
        assert main(["suite", "--config", "cfg.json"]) == EXIT_CONFIG

    def test_failing_criterion_exits_4(self, workdir, monkeypatch):
        def failing():
            return acceptance.CriterionResult(1, "stub", False, {}, 0.0)

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [failing])
        rc = main(["suite", "acceptance", "--out", "acc.json"])
        assert rc == EXIT_ACCEPTANCE
        with open("acc.json") as fh:
            assert not json.load(fh)["all_passed"]


def _solve_with_config(cfg, capsys):
    """Run ``solve`` with flags that name no real file, overridden by the
    config cfg; returns the exit code and the error output."""
    with open("cfg.json", "w") as fh:
        if isinstance(cfg, str):
            fh.write(cfg)
        else:
            json.dump(cfg, fh)
    rc = main(["solve", "--mesh", "ignored-overridden", "--load", "x",
               "--p", "3", "--config", "cfg.json", "--out", "s.json"])
    return rc, capsys.readouterr().err


class TestParseConfig:
    def test_minimal_config_applies(self, workdir, mesh_file, load_file, capsys):
        cfg = {"mesh": str(mesh_file), "load": str(load_file), "p": 2.0}
        rc, _ = _solve_with_config(cfg, capsys)
        assert rc == EXIT_OK
        with open("s.json") as fh:
            assert json.load(fh)["config_echo"]["p"] == 2.0

    def test_unknown_key_rejected(self, workdir, capsys):
        rc, err = _solve_with_config({"mesh": "m.txt", "loda": "f.txt"}, capsys)
        assert rc == EXIT_CONFIG
        assert "unknown config keys ['loda']" in err
        assert not os.path.exists("s.json")

    def test_out_of_range_p_rejected(self, workdir, mesh_file, load_file, capsys):
        for p, message in ((0.5, "p must lie in [1.1, 10.0]"),
                           (None, "p must be a float")):
            cfg = {"mesh": str(mesh_file), "load": str(load_file), "p": p}
            rc, err = _solve_with_config(cfg, capsys)
            assert rc == EXIT_CONFIG
            assert message in err
            assert not os.path.exists("s.json")

    def test_missing_path_rejected(self, workdir, load_file, capsys):
        cfg = {"mesh": "absent.txt", "load": str(load_file), "p": 2.0}
        rc, err = _solve_with_config(cfg, capsys)
        assert rc == EXIT_CONFIG
        assert "mesh path 'absent.txt' does not exist" in err
        assert not os.path.exists("s.json")

    def test_json_error_has_position(self, workdir, capsys):
        rc, err = _solve_with_config('{"mesh": }', capsys)
        assert rc == EXIT_CONFIG
        assert "cfg.json:1:" in err

    def test_env_var_default_out(self, workdir, mesh_file, monkeypatch):
        monkeypatch.setenv("PLAPOPT_OUT", str(workdir / "envout"))
        rc = main(["mesh", "--shape", "disk", "--n", "16"])
        assert rc == EXIT_OK
        assert (workdir / "envout" / "mesh.txt").exists()
