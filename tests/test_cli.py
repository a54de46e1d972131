import csv
import io
import json

import pytest

from confcoh import cli, suites
from confcoh.configcoh import SpaceId, cohomology
from confcoh.report import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def test_groups_table(capsys):
    code, out, _ = run_cli(capsys, "groups", "--space", "B", "--m", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H^* groups of B(P^4,2)"
    rows = {int(l.split()[0]): l.split(maxsplit=1)[1].strip() for l in lines[2:]}
    assert rows[2] == "<2>" and rows[4] == "{2}" and rows[7] == "Z"
    assert len(rows) == 8


def test_groups_trivial_space(capsys):
    code, out, _ = run_cli(capsys, "groups", "--space", "F", "--m", "1")
    assert code == 0
    body = out.splitlines()[2:]
    assert [l.split()[1] for l in body] == ["Z", "Z"]


def test_groups_formats_agree(capsys):
    code, table_out, _ = run_cli(capsys, "groups", "--space", "B", "--m", "5")
    code_j, json_out, _ = run_cli(
        capsys, "groups", "--space", "B", "--m", "5", "--format", "json"
    )
    code_c, csv_out, _ = run_cli(
        capsys, "groups", "--space", "B", "--m", "5", "--format", "csv"
    )
    assert code == code_j == code_c == 0
    data = json.loads(json_out)
    assert data["space"] == "B" and data["m"] == 5
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(csv_rows) == len(data["groups"]) == 10
    for json_row, csv_row in zip(data["groups"], csv_rows):
        i = json_row["degree"]
        group = cohomology(SpaceId("B", 5), i)
        assert json_row["free"] == group.free_rank == int(csv_row["free"])
        orders = [2**e for e in group.torsion_exponents]
        assert json_row["torsion"] == orders
        from_csv = [int(x) for x in csv_row["torsion"].split(";") if x]
        assert from_csv == orders


def test_groups_twisted(capsys):
    code, out, _ = run_cli(
        capsys, "groups", "--space", "B", "--m", "5", "--coefficients", "twisted",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    by_degree = {row["degree"]: row for row in data["groups"]}
    assert by_degree[2] == {"degree": 2, "free": 0, "torsion": [4]}
    assert by_degree[4]["free"] == 1


def test_groups_homology(capsys):
    code, out, _ = run_cli(
        capsys, "groups", "--space", "F", "--m", "5", "--homology", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["groups"][1] == {"degree": 1, "free": 0, "torsion": [2, 2]}


def test_groups_homology_needs_integral(capsys):
    code, _, err = run_cli(
        capsys, "groups", "--space", "F", "--m", "5", "--homology",
        "--coefficients", "F2",
    )
    assert code == 2
    assert "homology" in err


@pytest.mark.parametrize("m", ["4097", "100000"])
def test_groups_m_bound(monkeypatch, capsys, m):
    # refused before the space, let alone a table, is built
    monkeypatch.setattr(cli, "SpaceId", None)
    code, out, err = run_cli(capsys, "groups", "--space", "B", "--m", m)
    assert code == 2 and out == ""
    assert "m capped at 4096" in err


def test_groups_usage_error(capsys):
    code, _, _ = run_cli(capsys, "groups", "--space", "Q", "--m", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "groups", "--space", "B", "--m", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def test_table1_byte_stable(capsys):
    code, first, _ = run_cli(capsys, "table1")
    code2, second, _ = run_cli(capsys, "table1")
    assert code == code2 == 0
    assert first == second


def test_table1_cells():
    cells = cli.table1_cells()
    assert cells[8][8] == "{4}"
    assert cells[6][10] == "<2>"
    assert cells[2][3] == ""


def test_table1_json(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["B(P^4,2)"]["4"] == "{2}"
    assert data["B(P^2,2)"]["14"] == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "duality", "--m-range", "2..6")
    assert code == 0
    assert "0 failures" in out


def test_verify_sq1_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sq1", "--m-range", "3..7")
    assert code == 0


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "stiefel", "--m-range", "2..4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_clss_marks_open_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "clss", "--m-range", "2..7")
    assert code == 0
    assert "SKIPPED-OPEN" in out


def test_verify_range_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--m-range", "2..33")
    assert code == 2
    assert "m-range capped at 32" in err


def test_verify_lower_bound(monkeypatch, capsys):
    monkeypatch.setattr(cli.suites, "run_suites", lambda *a: pytest.fail("suites ran"))
    code, out, err = run_cli(capsys, "verify", "--m-range", "0..3")
    assert (code, out) == (2, "")
    assert err.strip() == "m-range must start at 1 or above"


def test_uct_suite_skips_m_below_two():
    report = suites.run_suites(["uct"], range(0, 4))
    assert report.passed
    assert len(report.checks) == len(suites.run_suites(["uct"], range(2, 4)).checks)


def test_verify_top_of_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-range", "32")
    assert code == 0
    assert "0 failures" in out


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    def fake(names, m_range):
        report = VerificationReport()
        report.add("fake", "forced", 1, 2)
        return report

    monkeypatch.setattr(cli.suites, "run_suites", fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "uct")
    assert code == 1
    assert "FAIL" in out


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "verify", "--m-range", "x..y")[0] == 2


# ---------------------------------------------------------------------------
# check counts and verdicts
# ---------------------------------------------------------------------------

# (checks, skipped-open) per suite over m = 2..12.
CHECK_COUNTS_2_12 = {
    "uct": (494, 0),
    "bockstein": (704, 0),
    "duality": (228, 0),
    "clss": (694, 3),
    "sq1": (28, 0),
    "stiefel": (187, 0),
}


def test_suite_check_counts():
    for name, (n_checks, n_skipped) in CHECK_COUNTS_2_12.items():
        report = suites.run_suites([name], range(2, 13))
        assert report.passed, report.failures()
        assert len(report.checks) == n_checks, name
        assert sum(c.skipped for c in report.checks) == n_skipped, name
    report = suites.run_suites(list(suites.SUITE_NAMES), range(2, 13))
    assert report.summary() == "2335 checks, 0 failures, 3 skipped-open"


def test_clss_sq1_suites_beyond_cli_range():
    # above the pinned 2..12: fragment, split and Sq1^2 = 0 checks for every
    # m in 13..31
    report = suites.run_suites(["clss", "sq1"], range(13, 32))
    assert report.summary() == "3644 checks, 0 failures, 5 skipped-open"


def test_report_compares_values_not_strings():
    report = VerificationReport()
    assert not report.add("fake", "int against str", 1, "1")
    check = report.checks[0]
    assert check.expected == check.got == "1"
    assert check.line().endswith("FAIL")
