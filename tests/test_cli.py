import ctypes
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import io as spio

import dantzig_adm.cli as cli
from dantzig_adm import adm, core, fileio
from dantzig_adm.adm import START_ROWS_PER_COLUMN, AdmConfig, RunReport
from dantzig_adm.datagen import GenSpec, default_delta, gen_design, mu_rule, tol_rule

from oracles import certificate_dense


def _gen_args(out, n=30, p=90, s=4, sigma=0.05, design="unit", seed=1, extra=()):
    return [
        "gen",
        "--n", str(n),
        "--p", str(p),
        "--s", str(s),
        "--sigma", str(sigma),
        "--design", design,
        "--seed", str(seed),
        "--out", str(out),
        *extra,
    ]


def _set_manifest(out, key, value):
    """Replace the manifest entry ``key`` of an instance directory."""
    path = out / "manifest.txt"
    lines = [line for line in path.read_text().splitlines() if not line.startswith(key)]
    path.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")


def _drop_last_row_of_y(out):
    fileio.write_vector(out / "y.mtx", fileio.read_vector(out / "y.mtx")[:-1])


def _with_entry(value):
    """An edit that returns a copy of a matrix with ``value`` in its entry (2, 0)."""
    def edit(a):
        a = a.copy()
        a[2, 0] = value
        return a
    return edit


class TestGen:
    def test_writes_reloadable_files(self, tmp_path):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        X = fileio.read_matrix(out / "X.mtx")
        y = fileio.read_vector(out / "y.mtx")
        beta_true = fileio.read_vector(out / "beta_true.mtx")
        manifest = fileio.read_manifest(out / "manifest.txt")
        assert X.shape == (30, 90)
        assert y.shape == (30,)
        assert beta_true.shape == (90,)
        assert int(manifest["n"]) == 30
        assert float(manifest["delta"]) > 0
        # files round-trip bit-exactly against a regeneration in memory
        from dantzig_adm.datagen import GenSpec, make_instance

        inst, truth = make_instance(
            GenSpec(n=30, p=90, s=4, sigma_noise=0.05, design_kind="unit_columns", seed=1)
        )
        assert np.array_equal(X, inst.X)
        assert np.array_equal(y, inst.y)
        assert np.array_equal(beta_true, truth.beta_true)

    @pytest.mark.parametrize("design, kind", [("unit", "unit_columns"), ("ortho", "orthogonal_rows")])
    def test_matrix_file_is_that_of_the_row_major_design(self, tmp_path, design, kind):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out, design=design)) == 0
        X = gen_design(GenSpec(n=30, p=90, s=4, sigma_noise=0.05, design_kind=kind, seed=1))
        spio.mmwrite(str(tmp_path / "expected.mtx"), np.ascontiguousarray(X))
        assert (out / "X.mtx").read_bytes() == (tmp_path / "expected.mtx").read_bytes()

    def test_orthogonal_design_row_identity(self, tmp_path):
        out = tmp_path / "ortho"
        assert cli.main(_gen_args(out, design="ortho")) == 0
        X = fileio.read_matrix(out / "X.mtx")
        assert np.abs(X @ X.T - np.eye(30)).max() <= 1e-10

    def test_same_flags_produce_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(_gen_args(out1)) == 0
        assert cli.main(_gen_args(out2)) == 0
        for name in ("X.mtx", "y.mtx", "beta_true.mtx", "manifest.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sigma_zero_without_delta_is_usage_error(self, tmp_path):
        assert cli.main(_gen_args(tmp_path / "z", sigma=0.0)) == 1

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_usage_error_naming_it(self, tmp_path, capsys, sigma):
        out = tmp_path / "z"
        assert cli.main(_gen_args(out, sigma=sigma)) == 1
        assert "sigma_noise must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_zero_with_delta_ok(self, tmp_path):
        out = tmp_path / "z"
        assert cli.main(_gen_args(out, sigma=0.0, extra=("--delta", "0.5"))) == 0
        manifest = fileio.read_manifest(out / "manifest.txt")
        assert float(manifest["delta"]) == 0.5


class TestSolve:
    def test_solves_and_writes_outputs(self, tmp_path):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out)]) == 0
        beta_tilde = fileio.read_vector(out / "beta_tilde.mtx")
        lam = fileio.read_vector(out / "lambda.mtx")
        assert beta_tilde.shape == (90,)
        assert lam.shape == (90,)
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "converged"
        assert report["outer_iterations"] >= 1
        assert report["start_support"] == 30 // START_ROWS_PER_COLUMN  # the screened start
        # the refits of the start, as the library counts them on the same files
        inst, *_ = cli._load_instance(out, None)
        tol = float(fileio.read_manifest(out / "run_manifest.txt")["tol"])
        _, _, refits = adm._screened_start(inst, core.DesignOperator(inst.X), tol=tol)
        assert report["start_rounds"] == refits >= 1
        assert (out / "beta_hat.mtx").exists()
        evaluation = json.loads((out / "eval.json").read_text())
        assert evaluation["rho2"] <= evaluation["rho2_orig"]
        assert len(report["inner_iteration_history"]) == report["outer_iterations"]
        assert sum(report["inner_iteration_history"]) == report["inner_iteration_total"]
        tolerances = report["inner_tolerance_history"]
        assert len(tolerances) == len(report["inner_iteration_history"])
        assert all(tol_sub > 0 for tol_sub in tolerances)
        run_manifest = fileio.read_manifest(out / "run_manifest.txt")
        assert run_manifest["status"] == "converged"

    def test_output_files_keep_their_keys_and_the_paper_parameters(self, tmp_path):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out)]) == 0
        run_manifest = fileio.read_manifest(out / "run_manifest.txt")
        assert list(run_manifest) == [
            "instance_dir", "package_version", "mu", "tol", "sub_tol_factor", "max_outer_iter",
            "eta", "sigma_ls", "alpha_lo", "memory", "status",
        ]
        fixed = {key: run_manifest[key] for key in list(run_manifest)[4:10]}
        assert fixed == {
            "sub_tol_factor": "0.1", "max_outer_iter": "10000", "eta": "0.5",
            "sigma_ls": "0.0001", "alpha_lo": "1e-08", "memory": "1",
        }
        report = json.loads((out / "report.json").read_text())
        assert list(report) == [
            "outer_iterations", "inner_iteration_total", "stopping_metric_history",
            "dual_objective_history", "wall_time", "status", "subsolver_failures",
            "inner_iteration_history", "start_support", "start_rounds", "inner_tolerance_history",
            "rounds", "working_columns", "certificate",
        ]
        assert list(report["certificate"]) == [
            "primal_violation", "dual_violation", "gap", "primal_ratio", "dual_ratio", "gap_ratio",
        ]

    @pytest.mark.parametrize("argv", [["solve", "inst"], ["bench", "--sigma", "0.05"]])
    def test_outer_iteration_cap_defaults_to_that_of_the_config(self, monkeypatch, argv):
        assert cli._build_parser().parse_args(argv).max_outer == AdmConfig.max_outer_iter == 10000
        monkeypatch.setattr(AdmConfig, "max_outer_iter", 7)
        assert cli._build_parser().parse_args(argv).max_outer == 7

    @pytest.mark.parametrize("extra", [(), ("--max-outer", "2")])
    def test_report_certificate_matches_dense_recomputation(self, tmp_path, extra):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        cli.main(["solve", str(out), *extra])
        certificate = json.loads((out / "report.json").read_text())["certificate"]
        expected = certificate_dense(
            fileio.read_matrix(out / "X.mtx"),
            fileio.read_vector(out / "y.mtx"),
            float(fileio.read_manifest(out / "manifest.txt")["delta"]),
            fileio.read_vector(out / "beta_tilde.mtx"),
            fileio.read_vector(out / "lambda.mtx"),
        )
        assert set(certificate) == set(expected)
        for name, value in expected.items():
            assert certificate[name] == pytest.approx(value, rel=1e-9, abs=1e-12), name
        # the ratios are the stopping test's: a converged solve has each at most tol
        report = json.loads((out / "report.json").read_text())
        ratios = [certificate[f"{name}_ratio"] for name in ("primal", "dual", "gap")]
        assert max(ratios) == pytest.approx(report["stopping_metric_history"][-1], rel=1e-6)
        tol = float(fileio.read_manifest(out / "run_manifest.txt")["tol"])
        assert (max(ratios) <= tol) == (report["status"] == "converged")

    def test_zero_response_instance(self, tmp_path):
        out = tmp_path / "zero"
        assert cli.main(_gen_args(out, s=0, sigma=0.0, extra=("--delta", "0.5"))) == 0
        assert cli.main(["solve", str(out), "--tol", "1e-3"]) == 0
        beta_tilde = fileio.read_vector(out / "beta_tilde.mtx")
        assert np.abs(beta_tilde).sum() <= 1e-3

    def test_missing_instance_dir_is_io_error(self, tmp_path):
        assert cli.main(["solve", str(tmp_path / "missing")]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0

        def failing(inst, config, beta0=None, lambda0=None, callback=None):
            p = inst.p
            report = RunReport(
                outer_iterations=1,
                inner_iteration_total=1,
                stopping_metric_history=[1.0],
                dual_objective_history=[0.0],
                wall_time=0.0,
                status="numerical_failure",
            )
            return np.zeros(p), np.zeros(p), report

        monkeypatch.setattr(cli.adm, "solve", failing)
        assert cli.main(["solve", str(out)]) == 3

    def test_iteration_cap_is_not_converged_and_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out), "--max-outer", "1", "--tol", "1e-12"]) == 4
        assert "not converged" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "max_iter"
        assert report["outer_iterations"] == 1
        assert fileio.read_vector(out / "beta_tilde.mtx").shape == (90,)
        assert fileio.read_vector(out / "lambda.mtx").shape == (90,)
        assert fileio.read_manifest(out / "run_manifest.txt")["status"] == "max_iter"

    def test_a_later_round_at_the_cap_exits_not_converged(self, tmp_path, capsys):
        # the second round of the solve on a growing column set stops at the cap
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        inst, design, _ = cli._load_instance(out, None)
        config = AdmConfig(mu=mu_rule(design, inst.p, inst.delta), tol=tol_rule(design))
        records = []
        adm.solve(inst, config, callback=records.append)
        first = next(k for k, rec in enumerate(records)
                     if not np.array_equal(rec.columns, records[0].columns))
        assert cli.main(["solve", str(out), "--max-outer", str(first + 1)]) == 4
        assert "not converged" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert (report["status"], report["rounds"]) == ("max_iter", 2)
        assert report["outer_iterations"] == first + 1
        assert report["stopping_metric_history"][-1] > config.tol
        assert report["working_columns"] == records[first].columns.size

    def test_manifest_without_delta_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        manifest = out / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(l for l in lines if not l.startswith("delta")) + "\n")
        assert cli.main(["solve", str(out)]) == 2
        err = capsys.readouterr().err
        assert "delta" in err and "Traceback" not in err
        assert cli.main(["solve", str(out), "--delta", "0.1"]) == 0

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda out: _set_manifest(out, "sigma", "abc"), ["manifest.txt", "sigma"]),
            (lambda out: _set_manifest(out, "design", "weird"), ["manifest.txt", "weird"]),
            (lambda out: _set_manifest(out, "delta", "-1.0"), ["manifest.txt", "delta"]),
            (_drop_last_row_of_y, ["y.mtx", "X.mtx"]),
        ],
        ids=["sigma", "design", "delta", "rows"],
    )
    def test_malformed_manifest_value_is_io_error(self, tmp_path, capsys, edit, named):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        edit(out)
        assert cli.main(["solve", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named) and "Traceback" not in err

    def test_nonpositive_delta_flag_is_usage_error(self, tmp_path):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out), "--delta", "-1"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [(["--tol", "inf"], "tol must be positive and finite"),
         (["--mu", "inf"], "mu must be positive and finite")],
    )
    def test_infinite_setting_is_usage_error_before_the_solve(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        monkeypatch.setattr(cli.adm, "solve", _hand_back_config)
        assert cli.main(["solve", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "beta_tilde.mtx").exists()

    @pytest.mark.parametrize("change", [-1, 1])
    def test_truth_of_another_length_is_io_error_before_the_solve(
        self, tmp_path, monkeypatch, capsys, change
    ):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        truth = fileio.read_vector(out / "beta_true.mtx")
        fileio.write_vector(out / "beta_true.mtx", np.resize(truth, truth.size + change))
        monkeypatch.setattr(cli.adm, "solve", _hand_back_config)
        before = sorted(path.name for path in out.iterdir())
        assert cli.main(["solve", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out / 'beta_true.mtx'} has {90 + change} entries" in err
        assert "X.mtx has 90 columns" in err and "Traceback" not in err
        assert sorted(path.name for path in out.iterdir()) == before

    @pytest.mark.parametrize("name", ["X.mtx", "y.mtx"])
    def test_malformed_matrix_market_file_is_io_error(self, tmp_path, capsys, name):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        (out / name).write_text("not a matrix market file\n")
        assert cli.main(["solve", str(out)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("X.mtx", lambda a: a + 1j, "complex"),
            ("X.mtx", _with_entry(np.nan), "non-finite"),
            ("X.mtx", _with_entry(np.inf), "non-finite"),
            ("X.mtx", lambda a: a * (np.arange(a.shape[1]) != 3), "zero column"),
            ("y.mtx", _with_entry(np.nan), "non-finite"),
            ("y.mtx", _with_entry(-np.inf), "non-finite"),
        ],
        ids=["X-complex", "X-nan", "X-inf", "X-zero-column", "y-nan", "y-inf"],
    )
    def test_bad_matrix_contents_are_io_errors_naming_the_file(
        self, tmp_path, capsys, name, edit, message
    ):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        spio.mmwrite(str(out / name), edit(spio.mmread(str(out / name))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex file must not be cast with a warning
            assert cli.main(["solve", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and message in err and "Traceback" not in err
        assert not (out / "beta_tilde.mtx").exists()


class TestBench:
    def test_a_wrapped_solve_sees_one_call_per_instance(self, monkeypatch):
        # perfbench's pool workers time and check every answer through a
        # wrapper put in place of adm.solve; the rounds of one solve must not
        # reach it as solves of their own
        calls = []
        original = adm.solve

        def wrapper(inst, config, beta0=None, lambda0=None, callback=None):
            beta, lam, report = original(inst, config, beta0, lambda0, callback)
            calls.append((inst.p, beta.shape, report.rounds))
            return beta, lam, report

        monkeypatch.setattr(adm, "solve", wrapper)
        spec = GenSpec(n=48, p=200, s=6, sigma_noise=0.05, seed=2)
        config = AdmConfig(mu=mu_rule("unit_columns", 200, default_delta(200, 0.05)), tol=1e-3)
        outcome = cli._bench_instance({"seed": 2, "spec": spec, "config": config})
        assert outcome["status"] == "converged"
        [(p, shape, rounds)] = calls
        assert p == 200 and shape == (200,) and rounds >= 2

    def test_deterministic_csv_with_fixed_seed(self, tmp_path):
        args = [
            "bench",
            "--design", "unit",
            "--sigma", "0.05",
            "--size", "30,90,4",
            "--reps", "2",
            "--seed", "5",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        rows1 = out1.read_text().splitlines()
        rows2 = out2.read_text().splitlines()
        assert rows1[0] == cli.BENCH_HEADER
        cpu_col = cli.BENCH_HEADER.split(",").index("cpu_mean_s")

        def drop_cpu(line):
            parts = line.split(",")
            return parts[:cpu_col] + parts[cpu_col + 1 :]

        assert [drop_cpu(r) for r in rows1] == [drop_cpu(r) for r in rows2]

    def test_row_contents(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert (
            cli.main(
                [
                    "bench",
                    "--design", "unit",
                    "--sigma", "0.05",
                    "--size", "30,90,4",
                    "--reps", "2",
                    "--out", str(out),
                ]
            )
            == 0
        )
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["design"] == "unit_columns"
        assert fields["n"] == "30" and fields["p"] == "90" and fields["s"] == "4"
        assert fields["instances"] == "2"
        assert fields["failures"] == "0"
        assert float(fields["rho2_mean"]) <= float(fields["rho2_orig_mean"])

    def test_parallel_workers_match_serial_rows(self, tmp_path):
        base = [
            "bench",
            "--design", "unit",
            "--sigma", "0.05",
            "--size", "30,90,4",
            "--reps", "3",
            "--seed", "2",
        ]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert cli.main(base + ["--out", str(serial)]) == 0
        assert cli.main(base + ["--workers", "3", "--out", str(parallel)]) == 0
        assert _without_cpu(serial.read_text()) == _without_cpu(parallel.read_text())

    def test_orthogonal_rows_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        # a worker runs one BLAS thread and this process may run more; the
        # QR of the orthogonal design runs on one thread in both
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        base = ["bench", "--design", "ortho", "--sigma", "0.05", "--size", "60,200,6", "--reps", "2"]
        rows = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.csv"
            assert cli.main([*base, "--workers", workers, "--out", str(out)]) == 0
            rows.append(_without_cpu(out.read_text()))
        assert rows[0] == rows[1]

    def test_workers_run_one_blas_thread(self):
        parent = _numpy_blas_threads()
        if parent is None:
            pytest.skip("numpy links no bundled OpenBLAS here")
        with cli._pool(2) as pool:
            assert list(pool.map(_numpy_blas_threads, range(4))) == [1] * 4
        assert _numpy_blas_threads() == parent  # the calling process keeps its own

    def test_missing_thread_setter_does_nothing(self, monkeypatch):
        before = _numpy_blas_threads()
        for library in (None, object()):  # no bundled OpenBLAS, and one without the setter
            monkeypatch.setattr(core, "_openblas", lambda library=library: library)
            cli._one_blas_thread()
            assert _numpy_blas_threads() == before

    def test_worker_env_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        assert cli._resolve_workers(8, 10) == 1
        monkeypatch.delenv(cli.WORKERS_ENV)
        assert cli._resolve_workers(8, 10) == 8
        assert cli._resolve_workers(8, 3) == 3

    def test_worker_env_not_an_integer_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.WORKERS_ENV, "x")
        args = ["bench", "--sigma", "0.05", "--size", "30,90,4", "--reps", "2"]
        assert cli.main(args) == 1
        assert cli.WORKERS_ENV in capsys.readouterr().err

    def test_needs_size_or_grid(self, tmp_path):
        assert cli.main(["bench", "--sigma", "0.05"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--size", "30,90,100"], "s must lie in [0, p]"),
            (["--sigma", "0"], "sigma_noise must be positive"),
            (["--sigma", "-0.05"], "sigma_noise must be nonnegative"),
            (["--sigma", "inf"], "sigma_noise must be nonnegative and finite"),
            (["--sigma", "nan"], "sigma_noise must be nonnegative and finite"),
            (["--seed", "-5"], "seed must be nonnegative"),
            (["--design", "ortho", "--size", "90,30,4"], "orthogonal_rows requires n <= p"),
            (["--mu", "0"], "mu must be positive"),
            (["--mu", "-1"], "mu must be positive"),
            (["--tol", "0"], "tol must be positive"),
            (["--max-outer", "0"], "max_outer_iter must be positive"),
            (["--i", "0"], "--i must be a positive multiplier"),
            (["--size", "1,2"], "--size expects N,P,S"),
            (["--size", "a,b,c"], "--size expects N,P,S"),
            (["--reps", "0"], "--reps must be positive"),
            (["--mu", "inf"], "mu must be positive and finite"),
            (["--tol", "inf"], "tol must be positive and finite"),
        ],
    )
    def test_bad_input_is_usage_error_before_any_solve(self, monkeypatch, capsys, flags, message):
        def no_solve(task):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cli, "_bench_instance", no_solve)
        base = {"--sigma": "0.05", "--reps": "1"}
        if "--size" not in flags and "--i" not in flags:
            base["--size"] = "30,90,4"
        args = ["bench", *[part for flag, value in base.items() if flag not in flags
                          for part in (flag, value)], *flags]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("design, kind", [("unit", "unit_columns"), ("ortho", "orthogonal_rows")])
    @pytest.mark.parametrize("flags", [(), ("--mu", "3.5", "--tol", "0.002", "--max-outer", "7")])
    def test_workers_get_the_settings_of_solve_resolved_before_any_solve(
        self, monkeypatch, tmp_path, design, kind, flags
    ):
        sizes, reps, seed, sigma = [(30, 90, 4), (40, 120, 5)], 3, 3, 0.05
        expected = []
        for n, p, s in sizes:
            if flags:
                expected.append(AdmConfig(mu=3.5, tol=0.002, max_outer_iter=7))
            else:
                delta = default_delta(p, sigma)
                expected.append(AdmConfig(mu=mu_rule(kind, p, delta), tol=tol_rule(kind)))
            # `solve` on an instance of that size resolves the same config
            inst_dir = tmp_path / f"{n}-{p}-{s}"
            assert cli.main(_gen_args(inst_dir, n=n, p=p, s=s, sigma=sigma, design=design)) == 0
            monkeypatch.setattr(cli.adm, "solve", _hand_back_config)
            with pytest.raises(_Solved) as solved:
                cli.main(["solve", str(inst_dir), *flags])
            monkeypatch.undo()
            assert solved.value.args[0] == expected[-1]

        built = {"specs": 0, "configs": 0}
        at_first_solve = []
        tasks = []

        def counted(name, make):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return wrapper

        def capture(task):
            if not tasks:
                at_first_solve.append(dict(built))
            tasks.append(task)
            return {"status": "max_iter", "seed": task["seed"]}

        monkeypatch.setattr(cli, "GenSpec", counted("specs", cli.GenSpec))
        monkeypatch.setattr(cli, "_config", counted("configs", cli._config))
        monkeypatch.setattr(cli, "_bench_instance", capture)
        args = ["bench", "--design", design, "--sigma", str(sigma), "--reps", str(reps),
                "--seed", str(seed), *flags]
        for n, p, s in sizes:
            args += ["--size", f"{n},{p},{s}"]
        assert cli.main(args) == 0

        assert at_first_solve == [{"specs": len(sizes) * reps, "configs": len(sizes)}]
        assert len(tasks) == len(sizes) * reps
        for index, task in enumerate(tasks):
            (n, p, s), rep = sizes[index // reps], index % reps
            assert task["seed"] == seed + rep
            assert task["spec"] == GenSpec(
                n=n, p=p, s=s, sigma_noise=sigma, design_kind=kind, seed=seed + rep
            )
            assert task["config"] == expected[index // reps]

    def test_unconverged_seed_is_a_failure_row(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--sigma", "0.05", "--size", "30,90,4", "--reps", "2", "--seed", "3",
                "--max-outer", "1", "--out", str(out)]
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        assert "seed 3 failed: max_iter" in err and "seed 4 failed: max_iter" in err
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["instances"] == fields["failures"] == "2"
        assert fields["iter_mean"] == "nan"


class _Solved(Exception):
    """Raised by a stand-in for adm.solve; carries the config it was given."""


def _hand_back_config(inst, config, *args, **kwargs):
    raise _Solved(config)


class TestFigureData:
    def test_scatter_export(self, tmp_path):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out)]) == 0
        csv_path = tmp_path / "figure.csv"
        assert cli.main(["figure-data", str(out), "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "index,beta_true,beta_tilde,beta_hat"
        assert 1 < len(lines) <= 91
        beta_true = fileio.read_vector(out / "beta_true.mtx")
        covered = {int(line.split(",")[0]) for line in lines[1:]}
        assert set(np.flatnonzero(beta_true).tolist()) <= covered
        for line in lines[1:]:
            index, *values = line.split(",")
            assert 0 <= int(index) < 90
            assert float(values[0]) == beta_true[int(index)]

    def test_estimate_only_columns_without_ground_truth(self, tmp_path):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out)]) == 0
        (out / "beta_true.mtx").unlink()
        csv_path = tmp_path / "figure.csv"
        assert cli.main(["figure-data", str(out), "--out", str(csv_path)]) == 0
        assert csv_path.read_text().splitlines()[0] == "index,beta_tilde,beta_hat"

    def test_missing_solution_is_io_error(self, tmp_path):
        assert cli.main(["figure-data", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name", ["beta_true", "beta_hat"])
    @pytest.mark.parametrize("change", [-3, 5])
    def test_vector_of_another_length_is_io_error_naming_the_file(
        self, tmp_path, capsys, name, change
    ):
        out = tmp_path / "inst"
        assert cli.main(_gen_args(out)) == 0
        assert cli.main(["solve", str(out)]) == 0
        vec = fileio.read_vector(out / f"{name}.mtx")
        fileio.write_vector(out / f"{name}.mtx", np.resize(vec, vec.size + change))
        capsys.readouterr()
        assert cli.main(["figure-data", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{name}.mtx has {90 + change} entries" in err
        assert "beta_tilde.mtx has 90" in err


class TestWithoutScipy:
    def test_import_solve_and_bench_load_no_scipy(self, tmp_path):
        # only reading and writing .mtx files (gen, solve, figure-data) may import scipy
        script = (
            "import sys\n"
            "import dantzig_adm\n"
            "import dantzig_adm.cli as cli\n"
            "from dantzig_adm.core import DesignOperator\n"
            "made = []\n"
            "original = DesignOperator._restricted_matvec\n"
            "def counting(self, *args):\n"
            "    made.append(1)\n"
            "    return original(self, *args)\n"
            "DesignOperator._restricted_matvec = counting\n"
            "spec = dantzig_adm.GenSpec(n=450, p=600, s=20, sigma_noise=0.05, seed=3)\n"
            "inst, _ = dantzig_adm.make_instance(spec)\n"
            "mu = dantzig_adm.mu_rule('unit_columns', inst.p, inst.delta)\n"
            "_, _, report = dantzig_adm.solve(inst, dantzig_adm.AdmConfig(mu=mu, tol=1e-3))\n"
            "code = cli.main(['bench', '--size', '450,600,20', '--reps', '1', '--sigma', '0.05',\n"
            "                 '--seed', '4', '--tol', '1e-3', '--out', sys.argv[1]])\n"
            "print(report.status, code, len(made) > 0)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        csv_path = tmp_path / "bench.csv"
        run = subprocess.run(
            [sys.executable, "-c", script, str(csv_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["converged 0 True", "[]"]
        assert csv_path.read_text().splitlines()[0] == cli.BENCH_HEADER


class TestColdStart:
    # what `from concurrent.futures import ProcessPoolExecutor` loads
    POOL_MODULES = (
        "concurrent.futures", "multiprocessing", "logging", "socket", "subprocess", "selectors",
        "queue",
    )

    def test_import_loads_no_process_pool_and_bench_still_makes_one(self, tmp_path):
        script = (
            "import sys\n"
            "import dantzig_adm.cli as cli\n"
            f"pool = {self.POOL_MODULES!r}\n"
            "print(sorted(m for m in pool if m in sys.modules))\n"
            "code = cli.main(['bench', '--size', '30,90,4', '--reps', '2', '--sigma', '0.05',\n"
            "                 '--seed', '4', '--workers', '2', '--out', sys.argv[1]])\n"
            "print(code, 'multiprocessing' in sys.modules)\n"
        )
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        env.pop(cli.WORKERS_ENV, None)
        csv_path = tmp_path / "bench.csv"
        run = subprocess.run(
            [sys.executable, "-c", script, str(csv_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[]", "0 True"]  # the pool was made, on its own path
        header, row = csv_path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert header == cli.BENCH_HEADER
        assert (cells["instances"], cells["failures"]) == ("2", "0")


class TestScripts:
    SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
    ROWS = ("unit_columns sigma=0.05", "unit_columns sigma=0.01", "orthogonal_rows sigma=0.05")

    def _help(self, name, tmp_path) -> str:
        # README runs the scripts as `python3 scripts/NAME.py`, with no PYTHONPATH
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, str(self.SCRIPTS / name), "--help"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout

    def test_reproduce_tables_runs_from_a_checkout(self, tmp_path):
        assert "--reps" in self._help("reproduce_tables.py", tmp_path)

    def test_ab_runs_from_a_checkout_with_five_options(self, tmp_path):
        options = set(re.findall(r"--[a-z-]+", self._help("ab.py", tmp_path)))
        assert options == {"--help", "--trees", "--seeds", "--reps", "--bench-seeds", "--out"}

    def test_ab_pairs_two_loads_of_this_checkout(self, tmp_path):
        # ab.py pins BLAS threads in os.environ when imported, so it runs in a
        # process of its own; SIZE is set small there, for a run of a few seconds
        root = self.SCRIPTS.parent.resolve()
        script = (
            "import sys\n"
            "import ab\n"
            "import dantzig_adm\n"
            "ab.SIZE = (48, 200, 5)\n"
            "code = ab.main(['--trees', sys.argv[1], sys.argv[1], '--seeds', '100',\n"
            "                '--reps', '2', '--out', sys.argv[2]])\n"
            "trees, names = ('ab_tree0', 'ab_tree1'), ('adm', 'core', 'subsolver')\n"
            "mods = {(t, m): sys.modules[f'{t}.{m}'] for t in trees for m in names}\n"
            "print(code)\n"
            "print(sorted({mod.__file__ for mod in mods.values()}))\n"
            "ours = {id(sys.modules[f'dantzig_adm.{m}']) for m in names}\n"
            "print(len({id(mod) for mod in mods.values()} | ours))\n"
            "print(all(mods[t, 'adm'].DesignOperator is mods[t, 'core'].DesignOperator\n"
            "          for t in trees))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(self.SCRIPTS), str(root / "src")])}
        out = tmp_path / "ab.json"
        run = subprocess.run(
            [sys.executable, "-c", script, str(root), str(out)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        package = root / "src" / "dantzig_adm"
        files = sorted(str(package / f"{m}.py") for m in ("adm", "core", "subsolver"))
        # each tree's modules are its own: 6 module objects, none of them dantzig_adm's
        assert run.stdout.splitlines()[-4:] == ["0", repr(files), "9", "True"]

        data = json.loads(out.read_text())
        recorded = set(data["environment"])
        assert {"machine", "blas", "blas_threads_per_process", "numpy", "python"} <= recorded
        assert [tree["path"] for tree in data["trees"]] == [str(root)] * 2
        assert all("commit" in tree for tree in data["trees"])
        assert data["size"] == [48, 200, 5]
        for section, seeds in (("acceptance", 10), ("held_out", 1)):
            for design in self.ROWS:
                row = data[section][design]
                assert [len(run["solves"]) for run in row["runs"]] == [2] * seeds
                first, second = row["summary"]
                assert first.keys() == second.keys()
                assert second["same_counts"] == second["same_bytes"] == seeds
                assert second["max_beta_change"] == second["max_lambda_change"] == 0
                assert second["median_paired_ratio"] > 0 and second["outer_mean"] > 0
                assert all(isinstance(value, (int, float)) and math.isfinite(value)
                           for value in second.values())


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["gen", "--bogus"]) == 1

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
        assert cli.main(["gen", "--help"]) == 0


def _without_cpu(text: str) -> list[list[str]]:
    """The cells of a bench CSV without its cpu_mean_s column, which is wall time."""
    cpu_col = cli.BENCH_HEADER.split(",").index("cpu_mean_s")
    return [line.split(",")[:cpu_col] + line.split(",")[cpu_col + 1 :] for line in text.splitlines()]


def _numpy_blas_threads(_=None) -> int | None:
    """The thread count of numpy's bundled OpenBLAS in this process, None without one."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        get = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD).scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None
