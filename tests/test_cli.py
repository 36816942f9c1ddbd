"""End-to-end runs of the command-line interface."""

import os
import stat

import numpy as np
import pytest

import fmshift.cli
import fmshift.function_space
import fmshift.surrogate
from fmshift import (
    DensityModel,
    FunctionalSample,
    GeneratorSpec,
    Grid,
    OutsideSupportError,
    SignatureRecord,
    generate,
    parse_report,
    read_curves_csv,
    write_curves_csv,
    write_signature,
)
from fmshift.cli import main


def run(args):
    return main([str(a) for a in args])


def counting(monkeypatch, cls, name):
    """Count the calls of cls.name from here on."""
    real, calls = getattr(cls, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.fixture
def curves_csv(tmp_path):
    path = tmp_path / "curves.csv"
    rc = run(["simulate", "elliptical_sincos", "--n", 30, "--seed", 3,
              "--grid-points", 32, "--out", path])
    assert rc == 0
    return path


class TestSimulate:
    def test_writes_labeled_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "signal_clutter", "--n", 12, "--seed", 0,
                    "--out", out]) == 0
        sample = read_curves_csv(out)
        assert len(sample) == 12
        assert set(sample.labels) <= {"X", "Y", "C"}

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "circular_sincos", "--n", 10, "--seed", 5, "--out", a])
        run(["simulate", "circular_sincos", "--n", 10, "--seed", 5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_same_bytes_as_write_curves_csv(self, tmp_path, capsys):
        out, ref = tmp_path / "sim.csv", tmp_path / "ref.csv"
        args = ["simulate", "signal_clutter", "--n", 9, "--seed", 4,
                "--grid-points", 17]
        assert run(args + ["--out", out]) == 0
        write_curves_csv(ref, generate(GeneratorSpec("signal_clutter", 9, 4),
                                       Grid(np.linspace(0.0, 1.0, 17))))
        assert out.read_bytes() == ref.read_bytes()
        capsys.readouterr()
        assert run(args + ["--out", "-"]) == 0
        assert capsys.readouterr().out == ref.read_text()


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_is_what_a_plain_open_gives(self, tmp_path, umask):
        out, plain = tmp_path / "sim.csv", tmp_path / "plain.csv"
        previous = os.umask(umask)
        try:
            assert run(["simulate", "signal_clutter", "--n", 5,
                        "--out", out]) == 0
            with open(plain, "w"):
                pass
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(out.stat().st_mode) == \
            stat.S_IMODE(plain.stat().st_mode)


class TestCluster:
    def test_report_round_trips(self, curves_csv, tmp_path):
        out = tmp_path / "report.txt"
        assert run(["cluster", "--input", curves_csv, "--bandwidth-frac", 0.3,
                    "--out", out]) == 0
        rep = parse_report(out.read_text())
        assert rep.config["command"] == "cluster"
        assert rep.provenance["input"].startswith("sha256:")
        assert len(rep.assignments) == 30
        assert parse_report(rep.to_text()) == rep

    def test_absolute_bandwidth(self, curves_csv, tmp_path):
        out = tmp_path / "report.txt"
        assert run(["cluster", "--input", curves_csv, "--bandwidth", 1.5,
                    "--out", out]) == 0
        rep = parse_report(out.read_text())
        assert rep.config["bandwidth"] == "1.5"

    @pytest.mark.parametrize("flag, value", [("--bandwidth", 1.5),
                                             ("--bandwidth-frac", 0.3)])
    def test_one_model_is_built(self, flag, value, curves_csv, tmp_path,
                                monkeypatch):
        # the relative bandwidth is read off the model that is then
        # re-bandwidthed: one sample geometry, then the terminal merge's
        inits = counting(monkeypatch, DensityModel, "__init__")
        pairwise = counting(monkeypatch, fmshift.surrogate.Metric, "pairwise")
        assert run(["cluster", "--input", curves_csv, flag, value,
                    "--out", tmp_path / "r.txt"]) == 0
        assert len(inits) == 1 and len(pairwise) == 2

    def test_missing_input_is_exit_2(self, tmp_path):
        rc = run(["cluster", "--input", tmp_path / "nope.csv",
                  "--bandwidth", 1.0, "--out", tmp_path / "r.txt"])
        assert rc == 2
        assert not (tmp_path / "r.txt").exists()

    def test_malformed_input_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nx,y\n")
        rc = run(["cluster", "--input", bad, "--bandwidth", 1.0,
                  "--out", tmp_path / "r.txt"])
        assert rc == 2

    def test_non_finite_input_is_exit_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n1.0,nan,3.0\n")
        rc = run(["cluster", "--input", bad, "--bandwidth", 1.0,
                  "--out", tmp_path / "r.txt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "category=input" in err
        assert "row 3, column 2" in err

    @pytest.mark.parametrize("distance", ["sobolev_h1", "l2"])
    def test_order_that_does_nothing_is_exit_2(self, distance, curves_csv,
                                               tmp_path, capsys):
        out = tmp_path / "r.txt"
        rc = run(["cluster", "--input", curves_csv, "--bandwidth", 1.0,
                  "--distance", distance, "--order", 2, "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"category=input: order 2 does not apply to {distance}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--deriv-method", "local_poly", "--deriv-bandwidth", 0.1],
         "derivative method DerivativeMethod(kind='local_poly', degree=2, "
         "bandwidth=0.1) does not apply to l2"),
        (["--deriv-bandwidth", 0.1],
         "smoothing bandwidth 0.1 does not apply to finite_difference")],
        ids=["local_poly", "bandwidth"])
    def test_derivative_setting_on_l2_is_exit_2(self, flags, message, curves_csv,
                                                tmp_path, capsys):
        out = tmp_path / "r.txt"
        rc = run(["cluster", "--input", curves_csv, "--bandwidth", 1.0,
                  "--distance", "l2", *flags, "--out", out])
        assert rc == 2
        assert f"category=input: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_degree_on_finite_difference_is_exit_2(self, curves_csv, tmp_path,
                                                   capsys):
        out = tmp_path / "r.txt"
        rc = run(["cluster", "--input", curves_csv, "--bandwidth", 1.0,
                  "--distance", "sobolev_h1", "--deriv-degree", 7, "--out", out])
        assert rc == 2
        assert ("category=input: degree 7 does not apply to finite_difference"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_default_derivative_flags_pass_on_l2(self, curves_csv, tmp_path):
        # the defaults of --deriv-method and --deriv-degree are DerivativeMethod()
        assert run(["cluster", "--input", curves_csv, "--bandwidth", 1.0,
                    "--distance", "l2", "--deriv-method", "finite_difference",
                    "--deriv-degree", 2, "--out", tmp_path / "r.txt"]) == 0

    @pytest.mark.parametrize("error", [OutsideSupportError])
    def test_numeric_errors_are_exit_3(self, error, curves_csv, tmp_path,
                                       monkeypatch, capsys):
        # it subclasses ValueError, yet it is a numeric failure, not an input one
        def fail(*args, **kwargs):
            raise error("numeric trouble")

        monkeypatch.setattr(fmshift.cli, "cluster", fail)
        rc = run(["cluster", "--input", curves_csv, "--bandwidth-frac", 0.3,
                  "--out", tmp_path / "o.txt"])
        assert rc == 3
        assert "category=numeric: numeric trouble" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["cluster", "--bandwidth-frac", 0.3],
        ["test-modes", "--bandwidth-frac", 0.3, "--boot", 100],
        ["scan", "--values", 5, "--min-plateau", 2]])
    def test_identical_curves_have_no_relative_bandwidth(self, command,
                                                         tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "same.csv"
        grid = np.linspace(0.0, 1.0, 16)
        write_curves_csv(path, FunctionalSample.from_matrix(
            Grid(grid), np.tile(rng.standard_normal(16), (5, 1))))
        rc = run(command + ["--input", path, "--out", tmp_path / "o.txt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "category=input" in err
        assert "curves are identical under the l2 distance" in err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option, setting", [
        ("--merge-factor", "merge_radius_factor"),
        ("--step-tol", "step_tolerance"),
        ("--perturb", "perturbation_scale"),
        ("--bandwidth", "bandwidth"),
        ("--deriv-bandwidth", "local_poly requires a positive finite")])
    def test_non_finite_settings_are_exit_2(self, option, setting, value,
                                            curves_csv, tmp_path, capsys):
        args = ["cluster", "--input", curves_csv, "--out", tmp_path / "o.txt",
                option, value]
        if option != "--bandwidth":
            args += ["--bandwidth-frac", 0.3]
        if option == "--deriv-bandwidth":
            args += ["--distance", "sobolev_h1", "--deriv-method", "local_poly"]
        assert run(args) == 2
        err = capsys.readouterr().err
        # the setting is named, not the curves it would have made non-finite
        assert f"category=input: {setting}" in err
        assert "finite" in err
        assert not (tmp_path / "o.txt").exists()

    def test_single_point_grid_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "onepoint.csv"
        bad.write_text("0.5\n1.0\n2.0\n")
        out = tmp_path / "r.txt"
        assert run(["cluster", "--input", bad, "--bandwidth", 1.0, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "category=input: " in err and "onepoint.csv: grid row 1" in err
        assert not out.exists()

    def test_no_partial_output_on_failure(self, curves_csv, tmp_path):
        out = tmp_path / "report.txt"
        out.write_text("previous contents")
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nx,y\n")
        rc = run(["cluster", "--input", bad, "--bandwidth", 1.0, "--out", out])
        assert rc == 2
        assert out.read_text() == "previous contents"


class TestStartCounts:
    # one mean-shift step leaves every start unconverged on these curves; the
    # default 500 converge them all
    @pytest.mark.parametrize("command, prefix, n", [
        (["cluster", "--bandwidth-frac", 0.3], "starts", 30),
        (["test-modes", "--bandwidth-percentile", 41, "--boot", 100],
         "first half starts", 15)], ids=["cluster", "test-modes"])
    def test_stderr_names_unconverged_and_outside_starts(self, command, prefix,
                                                         n, curves_csv,
                                                         tmp_path, capsys):
        reports = []
        for iters, unconverged in [(1, n), (500, 0)]:
            out = tmp_path / f"o{iters}.txt"
            assert run(command + ["--input", curves_csv, "--out", out,
                                  "--max-iters", iters]) == 0
            err = capsys.readouterr().err
            assert (f"{prefix}: {n} (unconverged {unconverged}, "
                    "outside support 0)") in err.splitlines()
            reports.append(out.read_text())
        # the counts go to stderr only; the report format is unchanged
        for text in reports:
            assert "unconverged" not in text and "outside support" not in text
            parse_report(text)


class TestScan:
    def test_table_shape(self, curves_csv, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan", "--input", curves_csv, "--values", 10,
                    "--min-plateau", 3, "--out", out]) == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "bandwidth,nonatomic,clustered"
        assert len(data) == 11
        assert any(l.startswith("# candidates") for l in lines)

    @pytest.mark.parametrize("flag, value", [("--seed", 3), ("--perturb", 0.1)])
    def test_stability_probe_flags_are_refused(self, flag, value, curves_csv,
                                               tmp_path):
        # the probes' flags are not part of the table, so a probe setting
        # would change nothing
        out = tmp_path / "scan.csv"
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--input", curves_csv, "--values", 10, flag, value,
                 "--out", out])
        assert exc.value.code == 2
        assert not out.exists()


class TestTestModes:
    def test_percentile_bandwidth(self, curves_csv, tmp_path):
        out = tmp_path / "tm.txt"
        assert run(["test-modes", "--input", curves_csv,
                    "--bandwidth-percentile", 41, "--boot", 100,
                    "--out", out]) == 0
        rep = parse_report(out.read_text())
        assert rep.mode_test is not None
        assert rep.mode_test.n_boot == 100
        assert parse_report(rep.to_text()) == rep

    @pytest.mark.parametrize("distance", ["l2", "sobolev_h1"])
    def test_zero_percentile_distance_is_exit_2(self, distance, tmp_path,
                                                capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "same.csv"
        write_curves_csv(path, FunctionalSample.from_matrix(
            Grid(np.linspace(0.0, 1.0, 16)),
            np.tile(rng.standard_normal(16), (8, 1))))
        rc = run(["test-modes", "--input", path, "--bandwidth-percentile", 41,
                  "--distance", distance, "--boot", 100,
                  "--out", tmp_path / "tm.txt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "category=input" in err
        assert (f"percentile 41 of the first half's pairwise {distance} "
                "distances is zero up to rounding") in err
        assert not (tmp_path / "tm.txt").exists()

    def test_second_half_normalizer_error_is_exit_3(self, tmp_path, capsys):
        # the second half (5.01, 100, 200) has no pair within reach of h = 1
        path = tmp_path / "levels.csv"
        rows = [",".join(str(x) for x in np.linspace(0, 1, 8))]
        for level in (0.0, 0.01, 5.0, 5.01, 100.0, 200.0):
            rows.append(",".join(str(level) for _ in range(8)))
        path.write_text("\n".join(rows) + "\n")
        rc = run(["test-modes", "--input", path, "--bandwidth", 1.0,
                  "--kernel", "uniform_epanechnikov", "--boot", 100,
                  "--out", tmp_path / "tm.txt"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "category=numeric" in err
        assert "second half (3 curves) at bandwidth h=1:" in err

    def test_non_finite_statistic_is_exit_3(self, curves_csv, tmp_path,
                                            monkeypatch, capsys):
        real = DensityModel.curvature_statistics

        def statistics(self, xs):
            eigen, paper = real(self, xs)
            return eigen, paper * np.nan

        monkeypatch.setattr(DensityModel, "curvature_statistics", statistics)
        rc = run(["test-modes", "--input", curves_csv,
                  "--bandwidth-percentile", 41, "--boot", 100,
                  "--out", tmp_path / "tm.txt"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "category=numeric" in err and "lambda_paper is nan" in err
        assert not (tmp_path / "tm.txt").exists()

    def test_failed_eigen_solve_is_exit_3(self, curves_csv, tmp_path,
                                          monkeypatch, capsys):
        # LinAlgError is a ValueError: it must still read as numeric
        def failing(a, **kwargs):
            return np.zeros(len(a)), np.zeros((0, 0)), 0, np.zeros(0, np.int32), 1

        monkeypatch.setattr("scipy.linalg.lapack.dsyevr", failing)
        rc = run(["test-modes", "--input", curves_csv,
                  "--bandwidth-percentile", 41, "--boot", 100,
                  "--out", tmp_path / "tm.txt"])
        assert rc == fmshift.cli.EXIT_NUMERIC == 3
        err = capsys.readouterr().err
        assert "category=numeric" in err and "dsyevr info=1" in err
        assert "category=input" not in err
        assert not (tmp_path / "tm.txt").exists()

    def test_numeric_failure_is_exit_3(self, tmp_path):
        # curves too far apart for the bandwidth: stage 2 normalizers vanish
        path = tmp_path / "sep.csv"
        grid = ",".join(str(x) for x in np.linspace(0, 1, 8))
        rows = [grid]
        for i in range(6):
            rows.append(",".join(str(100.0 * i) for _ in range(8)))
        path.write_text("\n".join(rows) + "\n")
        rc = run(["test-modes", "--input", path, "--bandwidth", 250.0,
                  "--kernel", "uniform_epanechnikov", "--boot", 100,
                  "--out", tmp_path / "tm.txt"])
        assert rc in (0, 3)  # depends on whether any candidate survives


class TestBaseline:
    def test_scores_table(self, curves_csv, tmp_path):
        out = tmp_path / "base.csv"
        assert run(["baseline", "--input", curves_csv, "--components", 2,
                    "--k", 2, "--out", out]) == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if l.startswith("curve,")][0]
        assert header == "curve,score_0,score_1,cluster"
        data = [l for l in lines if not l.startswith(("#", "curve,"))]
        assert len(data) == 30
        clusters = {l.split(",")[-1] for l in data}
        assert clusters == {"0", "1"}

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_exit_2(self, k, curves_csv, tmp_path, capsys):
        out = tmp_path / "base.csv"
        assert run(["baseline", "--input", curves_csv, "--k", k,
                    "--out", out]) == 2
        assert "error: category=input: k must be at least 1" \
            in capsys.readouterr().err
        assert not out.exists()


SIGNATURE_ONLY_FLAGS = [("--sig-grid-points", 7),
                        ("--smooth-method", "finite_difference"),
                        ("--smooth-degree", 9),
                        ("--smooth-bandwidth", 0.3)]


class TestSignatureFlagsOnInput:
    # a curves CSV is read as it is: no resampling grid and no smoothing
    def run_on_csv(self, command, curves_csv, out, *flags):
        bandwidth = ["--bandwidth-frac", 0.3] if command == "cluster" else []
        return run([command, "--input", curves_csv, *bandwidth, *flags,
                    "--out", out])

    @pytest.mark.parametrize("command", ["cluster", "baseline"])
    @pytest.mark.parametrize("flag, value", SIGNATURE_ONLY_FLAGS,
                             ids=[f for f, _ in SIGNATURE_ONLY_FLAGS])
    def test_is_exit_2_and_named(self, command, flag, value, curves_csv,
                                 tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert self.run_on_csv(command, curves_csv, out, flag, value) == 2
        err = capsys.readouterr().err
        assert f"category=input: only --signatures takes {flag}, not --input" in err
        assert not out.exists()

    def test_every_flag_given_is_named(self, curves_csv, tmp_path, capsys):
        flags = [str(a) for pair in SIGNATURE_ONLY_FLAGS for a in pair]
        assert self.run_on_csv("scan", curves_csv, tmp_path / "out.csv",
                               *flags) == 2
        names = ", ".join(f for f, _ in SIGNATURE_ONLY_FLAGS)
        assert f"only --signatures takes {names}, not --input" \
            in capsys.readouterr().err


class TestSignaturePipeline:
    def test_cluster_from_signature_dir(self, tmp_path):
        sigdir = tmp_path / "sigs"
        sigdir.mkdir()
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 150)
        for i in range(6):
            freq = 2.0 if i < 3 else 5.0
            jitter = 0.02 * rng.standard_normal(t.size)
            sig = SignatureRecord(x=np.cos(2 * np.pi * freq * t) + jitter,
                                  y=np.sin(2 * np.pi * freq * t),
                                  t=t * 100.0)
            write_signature(sigdir / f"s{i}.txt", sig)
        out = tmp_path / "report.txt"
        rc = run(["cluster", "--signatures", sigdir, "--sig-grid-points", 48,
                  "--bandwidth-frac", 0.4, "--out", out])
        assert rc == 0
        rep = parse_report(out.read_text())
        assert len(rep.assignments) == 6
        assert any(k.startswith("input:") for k in rep.provenance)


def write_circles(sigdir, names):
    """One pen trace per name: circles, three slow ones then fast ones."""
    sigdir.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, 150)
    for i, name in enumerate(names):
        freq = 2.0 if i < 3 else 5.0
        jitter = 0.02 * rng.standard_normal(t.size)
        write_signature(sigdir / name,
                        SignatureRecord(x=np.cos(2 * np.pi * freq * t) + jitter,
                                        y=np.sin(2 * np.pi * freq * t),
                                        t=t * 100.0))


def test_signature_run_builds_each_local_poly_operator_once(tmp_path,
                                                            monkeypatch):
    # smoothing needs orders 1 and 2, sobolev_h1 one more order-1 operator
    # with its own bandwidth; the models of the run share the grid's copies
    builds = []
    build = fmshift.function_space._build_local_poly_operator

    def counting(points, order, degree, bandwidth):
        builds.append((order, degree, bandwidth))
        return build(points, order, degree, bandwidth)

    monkeypatch.setattr(fmshift.function_space, "_build_local_poly_operator",
                        counting)
    write_circles(tmp_path / "sigs", [f"s{i}.txt" for i in range(8)])
    assert run(["cluster", "--signatures", tmp_path / "sigs",
                "--sig-grid-points", 48, "--distance", "sobolev_h1",
                "--deriv-method", "local_poly", "--deriv-bandwidth", 0.04,
                "--bandwidth-frac", 0.3, "--out", tmp_path / "report.txt"]) == 0
    assert sorted(builds) == [(1, 2, 0.04), (1, 2, 0.05), (2, 2, 0.05)]


class TestSignatureFiles:
    NAMES = [f"s{i}.txt" for i in range(5)]

    def cluster(self, sigdir, out, *flags):
        return run(["cluster", "--signatures", sigdir, "--sig-grid-points", 48,
                    "--bandwidth-frac", 0.4, *flags, "--out", out])

    def test_default_smoothing_is_local_poly_at_0_05(self, tmp_path):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES)
        default, explicit = tmp_path / "default.txt", tmp_path / "explicit.txt"
        assert self.cluster(sigdir, default) == 0
        assert self.cluster(sigdir, explicit, "--smooth-method", "local_poly",
                            "--smooth-bandwidth", 0.05) == 0
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--smooth-bandwidth", 0.05],
         "smoothing bandwidth 0.05 does not apply to finite_difference"),
        (["--smooth-degree", 3],
         "degree 3 does not apply to finite_difference")],
        ids=["bandwidth", "degree"])
    def test_smoothing_setting_on_finite_difference_is_exit_2(
            self, flags, message, tmp_path, capsys):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES)
        out = tmp_path / "r.txt"
        assert self.cluster(sigdir, out, "--smooth-method", "finite_difference",
                            *flags) == 2
        assert f"category=input: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_finite_difference_smoothing_with_default_flags_runs(self, tmp_path):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES)
        assert self.cluster(sigdir, tmp_path / "r.txt", "--smooth-method",
                            "finite_difference", "--smooth-degree", 2) == 0

    def test_file_name_with_the_separator_round_trips(self, tmp_path):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES + ["w0 = x.txt"])
        out = tmp_path / "report.txt"
        assert self.cluster(sigdir, out) == 0
        rep = parse_report(out.read_text())
        assert rep.provenance["input:w0 = x.txt"].startswith("sha256:")
        assert "input:w0" not in rep.provenance
        assert parse_report(rep.to_text()) == rep

    def test_file_name_with_a_line_break_is_exit_2(self, tmp_path, capsys):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES + ["w0\nx.txt"])
        out = tmp_path / "report.txt"
        assert self.cluster(sigdir, out) == 2
        err = capsys.readouterr().err
        assert "category=input" in err
        assert "w0\\nx.txt" in err  # the name, with its line break escaped
        assert not out.exists()

    def test_a_plain_file_is_exit_2(self, tmp_path, capsys):
        plain = tmp_path / "sigs.txt"
        plain.write_text("0 0 0\n")
        out = tmp_path / "r.txt"
        assert self.cluster(plain, out) == 2
        err = capsys.readouterr().err
        assert "category=input" in err and "sigs.txt" in err
        assert not out.exists()

    def test_short_signature_names_the_file(self, tmp_path, capsys):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES)
        t = np.arange(4.0)
        write_signature(sigdir / "short.sig", SignatureRecord(t, t, t))
        assert self.cluster(sigdir, tmp_path / "r.txt") == 2
        err = capsys.readouterr().err
        assert "category=input" in err
        assert "short.sig: signature needs at least 5 points" in err

    @pytest.mark.parametrize("cell", ["x", "t"])
    def test_non_finite_cell_names_the_file_and_line(self, cell, tmp_path,
                                                     capsys):
        # a nan x used to surface as "curve values must be finite", and an
        # inf timestamp as a RuntimeWarning inside the feature
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES)
        lines = (sigdir / "s2.txt").read_text().splitlines()
        x, y, t = lines[3].split()
        lines[3] = f"nan {y} {t}" if cell == "x" else f"{x} {y} inf"
        (sigdir / "s2.txt").write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.txt"
        assert self.cluster(sigdir, out) == 2
        err = capsys.readouterr().err
        assert f"category=input: {sigdir / 's2.txt'}: line 4: non-finite " \
               "coordinate" in err
        assert not out.exists()

    def test_straight_stroke_names_the_file(self, tmp_path, capsys):
        sigdir = tmp_path / "sigs"
        write_circles(sigdir, self.NAMES)
        t = np.linspace(0.0, 1.0, 100)
        write_signature(sigdir / "line.sig",
                        SignatureRecord(t, 2.0 * t, 100.0 * t))
        assert self.cluster(sigdir, tmp_path / "r.txt") == 3
        err = capsys.readouterr().err
        assert "category=numeric" in err
        assert "line.sig: tangential acceleration is zero" in err
