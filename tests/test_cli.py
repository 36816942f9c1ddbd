"""End-to-end runs of the command-line interface."""

import numpy as np
import pytest

from fmshift import (
    GeneratorSpec,
    Grid,
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

    def test_no_partial_output_on_failure(self, curves_csv, tmp_path):
        out = tmp_path / "report.txt"
        out.write_text("previous contents")
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nx,y\n")
        rc = run(["cluster", "--input", bad, "--bandwidth", 1.0, "--out", out])
        assert rc == 2
        assert out.read_text() == "previous contents"


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
