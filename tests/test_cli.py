import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confcoh import abelian, cli, groupcoh, suites
from confcoh.abelian import AbGroup2, GradedGroups, uct_cohomology, uct_homology
from confcoh.configcoh import (
    SpaceId,
    cohomology,
    cohomology_table,
    mod2_dimension,
    twisted_cohomology,
)
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


@pytest.mark.parametrize("m", ["8193", "100000"])
def test_groups_m_bound(monkeypatch, capsys, m):
    # refused before the space, let alone a table, is built
    monkeypatch.setattr(cli, "SpaceId", None)
    code, out, err = run_cli(capsys, "groups", "--space", "B", "--m", m)
    assert code == 2 and out == ""
    assert "m capped at 8192" in err


def _per_degree_tables(s):
    """(coefficients, homology) -> the table as `_table_for` built it one
    degree at a time, through the per-degree definitions and the group
    methods, before it built each table in one pass."""
    degrees = range(s.support_bound + 1)
    coh = cohomology_table(s)
    tables = {
        ("twisted", False): [twisted_cohomology(s, j) for j in degrees],
        ("Z", True): [coh.group(i).free_part() + coh.group(i + 1).torsion_part() for i in degrees],
        ("F2", False): [AbGroup2.elementary(mod2_dimension(s, i)) for i in degrees],
    }
    return {key: GradedGroups(groups) for key, groups in tables.items()}


# Odd m is non-orientable, even m orientable, for both spaces; m = 8192 is
# the CLI's bound.
@settings(max_examples=12, deadline=None)
@given(st.one_of(st.integers(1, 3000), st.sampled_from((8191, 8192))), st.sampled_from("BF"))
@example(8191, "B")
@example(8192, "F")
def test_one_pass_tables_match_the_per_degree_definitions(m, kind):
    s = SpaceId(kind, m)
    for (coefficients, homology), want in _per_degree_tables(s).items():
        assert cli._table_for(s, coefficients, homology) == want, (coefficients, homology)
    table = cli._table_for(s, "Z", False)
    assert uct_cohomology(uct_homology(table)) == table


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 1163, 1533, 8191, 8192])
@pytest.mark.parametrize("kind", "BF")
def test_f2_and_homology_rows_are_shared_objects(kind, m):
    s = SpaceId(kind, m)
    for i, g in enumerate(cli._table_for(s, "F2", False).groups):
        assert g is AbGroup2.elementary(mod2_dimension(s, i)), i
    coh = cli._table_for(s, "Z", False)
    hom = uct_homology(coh)
    built = []
    for i, g in enumerate(hom.groups):
        up = coh.group(i + 1)
        if coh.group(i).free_rank == up.free_rank:
            assert g is up, i
        else:
            built.append(i)
    # degree 0, and the degree of the free class and the one below it
    assert len(built) <= 3, built
    assert cli._table_for(s, "Z", True) == hom
    assert uct_cohomology(hom) == coh


def test_table_writer_runs_no_equality_frame(monkeypatch):
    """The text dict finds each repeated row of these tables by identity.
    Only a row equal to an earlier row but not the same object makes it
    compare, through the Python frame of `Value.__eq__`."""
    cases = [("F", 1163, "F2", False), ("B", 1533, "Z", True), ("F", 676, "Z", False)]
    tables = []
    for kind, m, coefficients, homology in cases:
        s = SpaceId(kind, m)
        table = cli._table_for(s, coefficients, homology)
        first = {}
        unshared = sum(first.setdefault(g, g) is not g for g in table.groups)
        tables.append((s, table, _reference_text(s, table, "table", "L"), unshared))
    compared = []
    original = abelian.Value.__eq__

    def counted(self, other):
        compared.append(self)
        return original(self, other)

    monkeypatch.setattr(abelian.Value, "__eq__", counted)
    unshared = 0
    for s, table, want, n in tables:
        assert "".join(cli._render_groups(s, table, "table", "L")) == want, s
        unshared += n
    monkeypatch.undo()
    assert len(compared) == unshared <= 3, (len(compared), unshared)


GROUP_MODES = {
    "Z": ("--coefficients", "Z"),
    "twisted": ("--coefficients", "twisted"),
    "F2": ("--coefficients", "F2"),
    "homology": ("--homology",),
}


def _reference_groups(s, mode, fmt):
    """The groups output as rendered one summand at a time, with
    json.dumps for json: the renderer's output before it was written
    from the exponent multiplicities."""
    table = cli._table_for(s, "Z" if mode == "homology" else mode, mode == "homology")
    label = {"Z": "H^*", "twisted": "twisted H^*", "F2": "mod-2 H^*", "homology": "H_*"}[mode]
    return _reference_text(s, table, fmt, label)


def _reference_text(s, table, fmt, label):
    rows = [(i, table.group(i)) for i in range(table.support_bound + 1)]
    if fmt == "json":
        return json.dumps(
            {
                "space": s.kind,
                "m": s.m,
                "coefficients": label,
                "groups": [
                    {"degree": i, "free": g.free_rank, "torsion": [2**e for e in g.torsion_exponents]}
                    for i, g in rows
                ],
            },
            indent=2,
        )
    if fmt == "csv":
        lines = ["degree,free,torsion"]
        for i, g in rows:
            lines.append(f"{i},{g.free_rank},{';'.join(str(2**e) for e in g.torsion_exponents)}")
        return "\n".join(lines)
    return "\n".join([f"{label} groups of {s}", f"{'i':>3}  group"] + [f"{i:>3}  {g}" for i, g in rows])


ALL_OUTPUTS = [(mode, fmt) for mode in GROUP_MODES for fmt in ("table", "csv", "json")]
# Empty torsion lists, the m = 1 tables and rows of hundreds of summands in
# every output; past m = 301 only the shapes of the benchmark's larger ops
# (json Z at m = 2000, its largest), to keep the test fast.  The twisted
# tables are of odd m, where they are read by duality.
REFERENCE_CASES = [(m, kind, ALL_OUTPUTS) for m in (1, 2, 3, 4, 5, 300, 301) for kind in "BF"]
REFERENCE_CASES += [
    (393, "F", [("twisted", "csv"), ("twisted", "json")]),
    (895, "B", [("twisted", "csv"), ("twisted", "json")]),
    (1163, "F", [("F2", "table")]),
    (1533, "B", [("homology", "table")]),
    (2000, "F", [("Z", "json")]),
]


@pytest.mark.parametrize(
    "m, kind, outputs", REFERENCE_CASES, ids=[f"{m}-{kind}" for m, kind, _ in REFERENCE_CASES]
)
def test_groups_output_matches_reference(capsys, m, kind, outputs):
    for mode, fmt in outputs:
        code, out, _ = run_cli(
            capsys, "groups", "--space", kind, "--m", str(m), "--format", fmt, *GROUP_MODES[mode]
        )
        assert code == 0
        assert out == _reference_groups(SpaceId(kind, m), mode, fmt) + "\n", (mode, fmt)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.dictionaries(st.integers(1, 12), st.integers(1, 10**4), max_size=4),
)
def test_torsion_text_matches_reference(free, counts):
    # empty torsion, one exponent and several, up to 10^4 summands each
    g = AbGroup2(free, [e for e, k in counts.items() for _ in range(k)])
    s, table = SpaceId("B", 2), GradedGroups((g,))
    for fmt in ("table", "csv", "json"):
        want = _reference_text(s, table, fmt, "H^*")
        assert "".join(cli._render_groups(s, table, fmt, "H^*")) == want


@pytest.mark.parametrize("mode", GROUP_MODES)
@pytest.mark.parametrize("m", [1, 6, 7, 300, 301])
@pytest.mark.parametrize("kind", "BF")
def test_table_writer_formats_each_distinct_group_once(monkeypatch, kind, m, mode):
    s = SpaceId(kind, m)
    table = cli._table_for(s, "Z" if mode == "homology" else mode, mode == "homology")
    want = _reference_text(s, table, "table", "L")
    formatted = []

    def counted(g):
        formatted.append(g)
        return original(g)

    original = AbGroup2.__str__
    monkeypatch.setattr(AbGroup2, "__str__", counted)
    assert "".join(cli._render_groups(s, table, "table", "L")) == want
    assert len(formatted) == len(set(formatted)) == len(set(table.groups))


class _Discard:
    def write(self, text):
        pass

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_groups_json_is_written_one_row_at_a_time():
    s = SpaceId("F", 2000)
    table = cli._table_for(s, "Z", False)
    length = sum(map(len, cli._render_groups(s, table, "json", "H^*")))
    tracemalloc.start()
    try:
        _Discard().writelines(cli._render_groups(s, table, "json", "H^*"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 10, (peak, length)


@pytest.mark.parametrize("kind, coefficients, homology", [("F", "F2", False), ("B", "Z", True)])
def test_groups_table_writer_memory_is_bounded_at_the_cli_bound(kind, coefficients, homology):
    # The text dict holds one str per distinct group (8192 for F2 at the
    # bound); CPython 3.11 read peaks of 745 and 742 KB here, for texts of
    # 216 and 214 KB.
    s = SpaceId(kind, cli.MAX_GROUPS_M)
    table = cli._table_for(s, coefficients, homology)
    tracemalloc.start()
    try:
        _Discard().writelines(cli._render_groups(s, table, "table", "H^*"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_groups_usage_error(capsys):
    code, _, _ = run_cli(capsys, "groups", "--space", "Q", "--m", "4")
    assert code == 2
    code, out, err = run_cli(capsys, "groups", "--space", "B", "--m", "0")
    assert (code, out, err) == (2, "", "error: m must be >= 1\n")


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


def _reference_report_json(report):
    """The report document as json.dumps writes it, built here from the
    checks."""
    return json.dumps(
        {
            "passed": report.passed,
            "summary": report.summary(),
            "checks": [
                {
                    "suite": c.suite,
                    "m": c.m,
                    "degree": c.degree,
                    "label": c.label,
                    "expected": c.expected,
                    "got": c.got,
                    "passed": c.passed,
                    "skipped": c.skipped,
                }
                for c in report.checks
            ],
        },
        indent=2,
    )


def test_verify_json_matches_json_dumps():
    escapes = VerificationReport("fake", 3)
    escapes.add('quote " backslash \\ newline \n tab \t accent \u00e9', "x", "x")
    skip = VerificationReport("fake", 7)
    skip.add_skip("open")
    escapes.extend(skip)
    truthy = VerificationReport("fake")
    truthy.add_bool("truthy, not a bool", 1, degree=4)  # true, as json.dumps(True)
    escapes.extend(truthy)
    for report in (
        suites.run_suites(list(suites.SUITE_NAMES), range(2, 7)),
        VerificationReport(),
        escapes,
    ):
        want = _reference_report_json(report)
        assert "".join(cli._render_report_json(report)) == want


# Strings json.dumps escapes, one kind each: a control character, DEL, the
# two characters escaped by a backslash, a line separator, a lone surrogate
# and an astral character (written as a surrogate pair).
ESCAPED = ("\x00", "\x7f", '"', "\\", "\u2028", "\ud800", "\U0001f600")


@settings(max_examples=500)
@given(st.text(st.characters(exclude_categories=())))
@example("")
@example("plain ascii, quoted only")
@example("".join(ESCAPED) + "\b\f\n\r\t\x1f \u00e9\udfff")
def test_text_is_json_dumps(s):
    assert cli._text(s) == json.dumps(s)


@pytest.mark.parametrize("s", ESCAPED + ("plain",))
def test_quoted_hit_is_the_text_of_its_miss(s):
    quoted = cli._Quoted()
    miss = quoted[s]
    assert (quoted[s], len(quoted)) == (miss, 1)
    assert miss == json.dumps(s)


def test_report_json_escapes_like_json_dumps():
    """Labels, values and suites that need escaping, in families that
    repeat a suite under another m and come back to an earlier one."""
    report = VerificationReport()
    for suite, m in (('su"ite', 3), ('su"ite', 4), ("plain", 4), ('su"ite', 3), ("\\", None)):
        family = VerificationReport(suite, m)
        for i, s in enumerate(ESCAPED):
            family.add(f"label {s}", s, f"{s}{s}", degree=i)
        family.add_bool(f"bool {suite}", True)
        family.add_skip("open \u2028")
        report.extend(family)
    text = "".join(cli._render_report_json(report))
    assert text == _reference_report_json(report)
    rows = json.loads(text)["checks"]
    assert [(c["suite"], c["m"], c["label"], c["expected"], c["got"]) for c in rows] == [
        (c.suite, c.m, c.label, c.expected, c.got) for c in report.checks
    ]


@pytest.mark.parametrize(
    "names, m_range, argv",
    [
        (list(suites.SUITE_NAMES), range(2, 8), ("--m-range", "2..7")),
        (["sq1"], range(1, 2), ("--suite", "sq1", "--m-range", "1")),
    ],
    ids=["all-2..7", "no-checks"],
)
def test_verify_json_output_is_the_reference(capsys, names, m_range, argv):
    want = _reference_report_json(suites.run_suites(names, m_range)) + "\n"
    code, out, _ = run_cli(capsys, "verify", "--format", "json", *argv)
    assert (code, out) == (0, want)


def test_verify_json_is_written_one_check_at_a_time():
    report = suites.run_suites(list(suites.SUITE_NAMES), range(2, 17))
    length = sum(map(len, cli._render_report_json(report)))
    tracemalloc.start()
    try:
        _Discard().writelines(cli._render_report_json(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 10, (peak, length)


def test_verify_clss_marks_open_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "clss", "--m-range", "2..7")
    assert code == 0
    assert "SKIPPED-OPEN" in out


def test_verify_range_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--m-range", "2..81")
    assert code == 2
    assert "m-range capped at 80" in err


def test_verify_lower_bound(monkeypatch, capsys):
    monkeypatch.setattr(cli.suites, "run_suites", lambda *a: pytest.fail("suites ran"))
    code, out, err = run_cli(capsys, "verify", "--m-range", "0..3")
    assert (code, out) == (2, "")
    assert err.strip() == "m-range must start at 1 or above"


@pytest.mark.parametrize(
    "m_range, message",
    [
        ("2..1000000000000000000", "m-range capped at 80"),
        ("2..100000000000000000000", "m-range capped at 80"),
        ("0..1000000000000000000", "m-range must start at 1 or above"),
        ("5..3", "empty m-range"),
    ],
)
def test_verify_refuses_huge_range_at_once(m_range, message):
    # the ends are read without walking or sizing the range: a walk would
    # run for hours and len() overflows past sys.maxsize
    done = _module_cli("verify", "--m-range", m_range, timeout=10)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", message + "\n")


def test_uct_suite_skips_m_below_two():
    report = suites.run_suites(["uct"], range(0, 4))
    assert report.passed
    assert len(report.checks) == len(suites.run_suites(["uct"], range(2, 4)).checks)


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_suite_empty_range(name):
    report = suites.run_suites([name], range(5, 3))
    assert report.passed
    assert not report.checks


def test_verify_m_one_checks_classifying_spaces(capsys):
    # no suite runs for m = 1, but uct checks both classifying spaces
    code, out, _ = run_cli(capsys, "verify", "--m-range", "1")
    assert (code, out.strip()) == (0, "10 checks, 0 failures")


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_suite_skips_m_below_two(name):
    # -1 is 3 mod 4 in Python; no m = 3 mod 4 check may run for it.
    report = suites.run_suites([name], range(-1, 3))
    assert report.passed
    assert report.checks == suites.run_suites([name], range(2, 3)).checks


def test_verify_top_of_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-range", "32")
    assert code == 0
    assert "0 failures" in out


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    def fake(names, m_range):
        report = VerificationReport("fake")
        report.add("forced", 1, 2)
        return report

    monkeypatch.setattr(cli.suites, "run_suites", fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "uct")
    assert code == 1
    assert "FAIL" in out


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "verify", "--m-range", "x..y")[0] == 2


def test_engine_fault_is_not_a_usage_error(monkeypatch, capsys):
    # H^8(BD8) with its Z/4 split: the executors report failed checks
    # rather than stopping the run.
    original = groupcoh._d8_integral
    monkeypatch.setattr(
        groupcoh,
        "_d8_integral",
        lambda i: AbGroup2.elementary(5) if i == 8 else original(i),
    )
    code, out, _ = run_cli(capsys, "verify", "--m-range", "2..12")
    assert code == 1
    assert "FAIL" in out and "13 failures" in out


def _cold(code):
    """stdout of code run by a bare interpreter that imports confcoh from
    this tree only."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {code}"
    return subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    ).stdout


# Modules a cold start must not load.  Annotation-only imports sit behind
# TYPE_CHECKING and the annotations that name them are quoted, so typing,
# collections.abc and types stay out.  The value types declare their fields
# on Value and the constant sets are plain classes of strings and ints, so no
# namedtuple (collections), Enum (enum, functools) or dataclass (dataclasses,
# inspect).  argparse, and the gettext, shutil and locale that building a
# parser loads, are only for help and errors.  The json writers quote plain
# ASCII with cli._text and hand it any other string for json.dumps, which no
# output needs, so json and the re that its decoder loads stay out; only
# table1 --format json imports json.
COLD_START_ABSENT = (
    "typing",
    "dataclasses",
    "inspect",
    "argparse",
    "gettext",
    "shutil",
    "locale",
    "json",
    "re",
    "enum",
    "functools",
    "collections",
    "types",
    "operator",
    "_operator",
)

# name -> code that sets `code` to the exit code of one cold call
COLD_CALLS = {
    "import": "code = 0",
    "groups-table": "code = cli.main(['groups', '--space', 'F', '--m', '9'])",
    "groups-json": "code = cli.main(['groups', '--space', 'F', '--m', '9', '--format', 'json'])",
    "groups-json-F2": (
        "code = cli.main(['groups', '--space', 'B', '--m', '300', '--format', 'json',"
        " '--coefficients', 'F2'])"
    ),
    "verify-json": (
        "code = cli.main(['verify', '--suite', 'sq1', '--format', 'json', '--m-range', '2..4'])"
    ),
    "verify-all-json": (
        "code = cli.main(['verify', '--suite', 'all', '--format', 'json', '--m-range', '2..4'])"
    ),
    # verify's whole range and a large groups table: every string that
    # their json writes is plain ASCII, so no json or re loads.
    "verify-all-json-bound": (
        "code = cli.main(['verify', '--suite', 'all', '--format', 'json', '--m-range', '2..80'])"
    ),
    "groups-json-F-2000": (
        "code = cli.main(['groups', '--space', 'F', '--m', '2000', '--format', 'json'])"
    ),
    "sq1-sweep": """from confcoh.bockstein import page1_expected
from confcoh.configcoh import SpaceId
from confcoh.f2algebra import config_mod2_ring
ring = config_mod2_ring("B", 9)
ranks = [ring.sq1_homology_rank(d) for d in range(19)]
squares = all(ring.sq1_square_is_zero(d) for d in range(17))
code = 0 if squares and ranks == [page1_expected(SpaceId("B", 9), d) for d in range(19)] else 1""",
}


# Every module of the package: bench/run.py's setup_s times `import
# confcoh.cli` as the import of all of them.
CONFCOH_MODULES = ["confcoh"] + [
    f"confcoh.{name}"
    for name in (
        "abelian bockstein cartan_leray cli configcoh f2algebra groupcoh report stiefel suites"
    ).split()
]


@pytest.mark.parametrize("name", COLD_CALLS)
def test_cold_start_leaves_modules_out(name):
    # io is loaded at start-up; contextlib would load functools and
    # collections.  Beyond what a bare `python -S -E` has loaded, only the
    # package and the builtin _collections (abelian.Value's C field readers)
    # may load.
    out = _cold(
        "bare = set(sys.modules)\n"
        "import io; from confcoh import cli\n"
        "shown, sys.stdout = sys.stdout, io.StringIO()\n"
        f"{COLD_CALLS[name]}\n"
        "sys.stdout = shown\n"
        f"print(code, [name for name in {COLD_START_ABSENT!r} if name in sys.modules])\n"
        "added = set(sys.modules) - bare\n"
        "print(sorted(name for name in added if name.partition('.')[0] != 'confcoh'))\n"
        "print(sorted(name for name in added if name.partition('.')[0] == 'confcoh'))"
    )
    code_and_absent, others, package = out.splitlines()
    assert code_and_absent == "0 []"
    assert others == "['_collections']"
    if name == "import":
        assert package == repr(CONFCOH_MODULES)


def test_help_is_argparse_help(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: confcoh [-h] {groups,table1,verify} ...\n")
    assert "print a graded group table" in out


def _module_cli(*argv, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "confcoh.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_module_entry_point_reads_sys_argv():
    done = _module_cli("groups", "--space", "B", "--m", "4")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("H^* groups of B(P^4,2)\n")
    done = _module_cli("groups", "--space", "Q", "--m", "4")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: confcoh groups")


# Every option as the README and the benchmark write it.
CANONICAL_ARGV = [
    "groups --space B --m 4",
    "groups --space B --m 5 --coefficients twisted --format json",
    "groups --space F --m 3 --homology --format csv",
    "table1",
    "table1 --format json",
    "verify --suite all --m-range 2..10",
    "verify --suite duality --m-range 2..12",
    "verify --suite sq1 --m-range 3..7",
    "verify --suite all --m-range 2..32",
    "verify --suite all --m-range 2..80",
    "verify --m-range 1",
    *(f"verify --suite all --format json --m-range 2..{h}" for h in range(7, 11)),
    *(
        f"groups --space {kind} --m {m} --format {fmt} {mode}"
        for kind, m in (("B", 300), ("F", 2000))
        for fmt in ("table", "csv", "json")
        for mode in ("--homology", "--coefficients Z", "--coefficients twisted", "--coefficients F2")
    ),
]


def _argparse_vars(argv):
    """vars() of what argparse parses from argv, or None if it refuses it."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("line", CANONICAL_ARGV)
def test_canonical_argv_takes_the_fast_path(line):
    argv = line.split()
    args = cli._parse(argv)
    assert args is not None
    assert vars(args) == _argparse_vars(argv)


_GOOD_VALUES = {"--m": ["1", "4", "300"], "--m-range": ["2..7", "3", "0..2"]}
_ODD_WORDS = [
    *sorted({flag for _, _, options in cli.COMMANDS.values() for flag, _ in options}),
    "--coef", "--m", "--m-r", "--form", "--ho", "--verb", "--s", "--format=json",
    "--m=4", "--space=B", "-h", "--help", "--", "-x", "--bogus", "bogus", "groups",
    "Q", "x", " 5", "-3", "-", "--x", "", "7..2", "1..2..3", "xml", "9000",
]


@st.composite
def _argv(draw):
    """A subcommand and its own flags with good values, in any order,
    repeated or left out; then up to two words replaced by, or preceded by,
    odd ones: abbreviations, --flag=value, help, --, dash-led values, bad
    values, foreign flags."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [name]
    options = [option for option in cli.COMMANDS[name][2] for _ in range(draw(st.integers(0, 2)))]
    for flag, spec in draw(st.permutations(options)):
        argv.append(flag)
        if spec.get("action") != "store_true":
            good = [*spec.get("choices", ()), *_GOOD_VALUES.get(flag, ())]
            argv.append(draw(st.sampled_from(good)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        argv[i : i + draw(st.integers(0, 1))] = [draw(st.sampled_from(_ODD_WORDS))]
    return argv


@settings(max_examples=400, deadline=None)
@given(_argv())
def test_fast_parse_agrees_with_argparse(argv):
    # Whatever the fast path accepts, argparse accepts, to the same
    # namespace, defaults and function included.
    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == _argparse_vars(argv)


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


def test_all_suites_on_the_top_cli_range():
    # every check family over 33..80, the m that the CLI accepts above 32
    assert cli.MAX_VERIFY_M == 80
    report = suites.run_suites(list(suites.SUITE_NAMES), range(33, 81))
    assert report.summary() == "76598 checks, 0 failures, 12 skipped-open"
    assert Counter(c.suite for c in report.checks) == {
        "bockstein-page1": 10944,
        "bockstein-ranks": 15888,
        "clss": 12,
        "clss-1mod4": 5220,
        "clss-3mod4-fragment": 120,
        "clss-even-D8": 8088,
        "clss-even-Z2xZ2": 8088,
        "clss-odd-Z2xZ2": 2688,
        "duality": 8112,
        "global": 11424,
        "sq1": 96,
        "sq1-split": 24,
        "stiefel": 5568,
        "uct-mod2-D8": 163,
        "uct-mod2-Z2xZ2": 163,
    }
    assert Counter(c.suite for c in report.checks if c.skipped) == {"clss": 12}


def test_report_compares_values_not_strings():
    report = VerificationReport("fake")
    report.add("int against str", 1, "1")
    check = report.checks[0]
    assert not check.passed and check.expected == check.got == "1"
    assert check.line().endswith("FAIL")


def test_check_line_shows_label_and_values_as_stored():
    report = VerificationReport("fake", 3)
    report.add("two  spaces", "a  b", "a  b", degree=4)
    report.add_skip("open  case")
    unbound = VerificationReport("fake")
    unbound.add_bool("no  m", False, got="x  y")
    report.extend(unbound)
    assert [c.line() for c in report.checks] == [
        "[fake] m=3 degree=4 two  spaces: expected=a  b got=a  b ok",
        "[fake] m=3 open  case: expected=open got=open SKIPPED-OPEN",
        "[fake] no  m: expected=true got=x  y FAIL",
    ]
