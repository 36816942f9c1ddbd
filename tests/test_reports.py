"""Run-report serialization must be a lossless round trip."""

import numpy as np
import pytest

from fmshift import ModeTestTable, RunReport, parse_report


def sample_report(with_test=True):
    mode_test = ModeTestTable(
        alpha=0.05,
        n_boot=1000,
        statistic="lambda_eigen",
        bandwidth=0.4123,
        rows=((0, -1.5, -1.2, -2.0, -0.9, 0.975, True, 0),
              (2, -0.1, 0.3, -0.5, 0.2, 0.975, False, 3)),
    ) if with_test else None
    return RunReport(
        config={"kernel": "gaussian_gaussian", "distance": "l2",
                "bandwidth": "0.4123"},
        provenance={"seed": "7", "version": "0.1.0",
                    "input": "sha256:" + "ab" * 32},
        grid=(0.0, 0.5, 1.0),
        modes=((1.0, 1.7320508075688772, 3.0), (0.1, -0.2, 0.3333333333333333)),
        assignments=(0, 0, 1, -1, 1),
        atomic_flags=(False, False),
        stability_flags=(True, False),
        mode_test=mode_test,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("with_test", [True, False])
    def test_lossless(self, with_test):
        rep = sample_report(with_test)
        back = parse_report(rep.to_text())
        assert back == rep

    def test_text_is_stable(self):
        rep = sample_report()
        t1 = rep.to_text()
        t2 = parse_report(t1).to_text()
        assert t1 == t2

    def test_float_precision_survives(self):
        rep = sample_report()
        back = parse_report(rep.to_text())
        assert back.modes[0][1] == np.sqrt(3.0)
        assert back.modes[1][2] == 1.0 / 3.0

    def test_outside_support_assignment(self):
        back = parse_report(sample_report().to_text())
        assert back.assignments[3] == -1


class TestParsing:
    def test_rejects_non_report(self):
        with pytest.raises(ValueError, match="not an fmshift run report"):
            parse_report("just,a,csv\n1,2,3\n")

    def test_header_line_present(self):
        text = sample_report().to_text()
        assert text.splitlines()[0] == "# fmshift run report v1"

    def test_comment_lines_ignored(self):
        text = sample_report().to_text()
        lines = text.splitlines()
        lines.insert(3, "# a stray comment")
        assert parse_report("\n".join(lines)) == sample_report()


# a [scan] section as v1 reports carried it, which the parser now skips
SCAN_SECTION = """[scan]
max_distance = 1.7320508075688772
plateaus = 1:2
candidates = 0.25
bandwidth,nonatomic,clustered
0.1,5,40
0.2,3,44
0.30000000000000004,3,44

"""


class TestUnknownSections:
    def test_a_scan_section_is_skipped(self):
        text = sample_report().to_text()
        with_scan = text.replace("[mode_test]", SCAN_SECTION + "[mode_test]")
        assert with_scan.count("[scan]") == 1
        back = parse_report(with_scan)
        assert back == parse_report(text)
        assert "[scan]" not in back.to_text()


class TestKeys:
    def test_key_holding_the_separator_round_trips(self):
        # provenance keys carry input file names, which may contain " = "
        rep = sample_report()
        prov = dict(rep.provenance, **{"input:w0 = x.txt": "sha256:" + "cd" * 32,
                                       "input:a = b = c": "sha256:" + "ef" * 32})
        rep = RunReport(**{**rep.__dict__, "provenance": prov})
        assert parse_report(rep.to_text()) == rep
