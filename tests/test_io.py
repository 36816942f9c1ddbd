"""CSV and signature parsing, digests, and the tangential acceleration feature."""

import numpy as np
import pytest

from fmshift import (
    Curve,
    DegenerateFeatureError,
    DerivativeMethod,
    FunctionalSample,
    Grid,
    InputFormatError,
    SignatureRecord,
    file_digest,
    read_curves_csv,
    read_signature,
    read_signature_dir,
    tangential_acceleration,
    write_curves_csv,
    write_signature,
)

GRID = Grid(np.linspace(0.0, 1.0, 33))


class TestCurvesCSV:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        sample = FunctionalSample.from_matrix(GRID,
                                              rng.standard_normal((4, len(GRID))),
                                              labels=("a", "b", "c", "d"))
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        write_curves_csv(p1, sample)
        back = read_curves_csv(p1)
        assert np.array_equal(back.matrix, sample.matrix)
        assert back.labels == sample.labels
        write_curves_csv(p2, back)
        # shortest round-trip float formatting makes a second pass
        # byte-identical
        assert p1.read_bytes() == p2.read_bytes()

    def test_unlabeled(self, tmp_path):
        sample = FunctionalSample.from_matrix(GRID, np.zeros((2, len(GRID))))
        p = tmp_path / "plain.csv"
        write_curves_csv(p, sample)
        back = read_curves_csv(p)
        assert back.labels is None

    def test_error_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,0.5,1.0\n1.0,oops,3.0\n")
        with pytest.raises(InputFormatError, match="row 2, column 2"):
            read_curves_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"0.0,0.5,1.0\na,1.0,2.0,3.0\nb,1.0,2.0,{cell}\n")
        with pytest.raises(InputFormatError, match="row 3, column 4"):
            read_curves_csv(p)

    def test_non_finite_grid_cell(self, tmp_path):
        p = tmp_path / "nangrid.csv"
        p.write_text("0.0,nan,1.0\n1.0,2.0,3.0\n")
        with pytest.raises(InputFormatError, match="row 1, column 2"):
            read_curves_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("0.0,0.5,1.0\n1.0,2.0\n")
        with pytest.raises(InputFormatError, match="ragged row 2"):
            read_curves_csv(p)

    def test_bad_grid(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("0.0,0.7,0.5\n1.0,2.0,3.0\n")
        with pytest.raises(InputFormatError, match="strictly increasing"):
            read_curves_csv(p)

    def test_needs_two_rows(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("0.0,1.0\n")
        with pytest.raises(InputFormatError):
            read_curves_csv(p)


class TestFileDigest:
    def test_stable_and_sensitive(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("hello")
        d1 = file_digest(p)
        assert d1.startswith("sha256:")
        assert file_digest(p) == d1
        p.write_text("hello!")
        assert file_digest(p) != d1


def toy_signature(n=50, freq=3.0):
    t = np.linspace(0.0, 1.0, n)
    return SignatureRecord(x=np.cos(2 * np.pi * freq * t),
                           y=np.sin(2 * np.pi * freq * t),
                           t=t * 1000.0)


class TestSignatureIO:
    def test_round_trip(self, tmp_path):
        sig = toy_signature()
        p = tmp_path / "sig1.txt"
        write_signature(p, sig)
        back = read_signature(p)
        assert np.allclose(back.x, sig.x)
        assert np.allclose(back.t, sig.t)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("3\n0 0 0\n1 1 1\n")
        with pytest.raises(InputFormatError, match="declares 3"):
            read_signature(p)

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("1\n0 0\n")
        with pytest.raises(InputFormatError, match="x, y, t"):
            read_signature(p)

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("2\n0 0 0 99 1000\n1 1 10 99 1000\n")
        sig = read_signature(p)
        assert len(sig) == 2

    def test_decreasing_timestamps(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("2\n0 0 10\n1 1 5\n")
        with pytest.raises(InputFormatError, match="decrease"):
            read_signature(p)

    def test_duplicate_timestamps_warn(self, tmp_path):
        p = tmp_path / "sig.txt"
        p.write_text("3\n0 0 5\n1 1 5\n2 2 6\n")
        with pytest.warns(UserWarning, match="duplicate"):
            sig = read_signature(p)
        assert sig.has_duplicate_timestamps

    def test_read_dir_sorted(self, tmp_path):
        for name in ("b.txt", "a.txt"):
            write_signature(tmp_path / name, toy_signature())
        entries = read_signature_dir(tmp_path)
        assert [n for n, _ in entries] == ["a.txt", "b.txt"]

    def test_empty_dir(self, tmp_path):
        with pytest.raises(InputFormatError):
            read_signature_dir(tmp_path)


class TestTangentialAcceleration:
    def test_unit_norm(self):
        sig = toy_signature(n=200)
        s = tangential_acceleration(sig, GRID,
                                    DerivativeMethod("local_poly", 2, 0.05))
        w = GRID.quad_weights
        assert np.dot(s.values * w, s.values) == pytest.approx(1.0, abs=1e-8)

    def test_parabola_constant_feature(self):
        # x(t) = t^2, y = 0: speed 2t, acceleration 2 along the motion
        # direction, so the normalized feature is the constant 1
        t = np.linspace(0.0, 1.0, 400)
        sig = SignatureRecord(x=t**2, y=np.zeros_like(t), t=t)
        s = tangential_acceleration(sig, GRID)
        # away from the boundary (where one-sided differences bite) the
        # feature is flat and positive
        interior = s.values[2:-2]
        assert np.all(interior > 0)
        assert interior.max() - interior.min() < 1e-3 * interior.max()

    def test_degenerate_straight_line(self):
        # constant-speed straight line: zero acceleration everywhere
        t = np.linspace(0.0, 1.0, 100)
        sig = SignatureRecord(x=t, y=2.0 * t, t=t)
        with pytest.raises(DegenerateFeatureError):
            tangential_acceleration(sig, GRID)

    def test_needs_points_and_span(self):
        t = np.zeros(10)
        with pytest.raises(InputFormatError, match="time span"):
            tangential_acceleration(SignatureRecord(np.arange(10.0),
                                                    np.arange(10.0), t), GRID)
        short = SignatureRecord(np.arange(3.0), np.arange(3.0),
                                np.arange(3.0))
        with pytest.raises(InputFormatError, match="at least 5"):
            tangential_acceleration(short, GRID)

    def test_pen_pause_borrows_direction(self):
        # the pen stops in the middle of the stroke; the zero-speed region
        # borrows the direction of the nearest moving point and a warning
        # is issued
        t = np.linspace(0.0, 1.0, 301)
        x = np.where(t < 0.4, t, np.where(t < 0.6, 0.4, t - 0.2)) ** 2
        sig = SignatureRecord(x=x, y=np.zeros_like(t), t=t)
        with pytest.warns(UserWarning, match="vanishing speed"):
            s = tangential_acceleration(sig, GRID)
        assert np.all(np.isfinite(s.values))

    def test_sign_carries_information(self):
        # slowing down vs speeding up flips the sign of the feature
        t = np.linspace(0.0, 1.0, 300)
        accel_sig = SignatureRecord(x=t**2, y=np.zeros_like(t), t=t)
        decel_sig = SignatureRecord(x=2.0 * t - t**2, y=np.zeros_like(t), t=t)
        a = tangential_acceleration(accel_sig, GRID)
        b = tangential_acceleration(decel_sig, GRID)
        assert np.mean(a.values) > 0 > np.mean(b.values)
