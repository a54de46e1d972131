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
from hypothesis import given, settings
from hypothesis import strategies as st

from confcoh import cli, groupcoh, suites
from confcoh.abelian import AbGroup2, GradedGroups
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


@pytest.mark.parametrize("m", ["8193", "100000"])
def test_groups_m_bound(monkeypatch, capsys, m):
    # refused before the space, let alone a table, is built
    monkeypatch.setattr(cli, "SpaceId", None)
    code, out, err = run_cli(capsys, "groups", "--space", "B", "--m", m)
    assert code == 2 and out == ""
    assert "m capped at 8192" in err


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
# every output; at m = 2000 only json Z, the benchmark's largest op, to keep
# the test fast.
REFERENCE_CASES = [(m, kind, ALL_OUTPUTS) for m in (1, 2, 3, 4, 5, 300, 301) for kind in "BF"]
REFERENCE_CASES.append((2000, "F", [("Z", "json")]))


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
    assert cli._orders(g, ", ") == ", ".join(str(2**e) for e in g.torsion_exponents)
    s, table = SpaceId("B", 2), GradedGroups(0, {0: g})
    for fmt in ("csv", "json"):
        want = _reference_text(s, table, fmt, "H^*")
        assert "".join(cli._render_groups(s, table, fmt, "H^*")) == want


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


def test_cli_import_leaves_typing_out():
    # Annotations are strings (PEP 563) and abstract types come from
    # collections.abc, so a bare interpreter never loads typing.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import confcoh.cli; print('typing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # The value types are namedtuples, so dataclasses and the inspect, ast
    # and tokenize modules it pulls in stay out of a cold start.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import confcoh.cli; "
        "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def _cold(code):
    """stdout of code run by a bare interpreter that imports confcoh from
    this tree only."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {code}"
    return subprocess.run(
        [sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_leaves_argparse_out():
    out = _cold(
        "import confcoh.cli; "
        "print([name for name in ('argparse', 'gettext') if name in sys.modules])"
    )
    assert out == "[]\n"


@pytest.mark.parametrize(
    "call",
    [
        "",
        "cli.main(['groups', '--space', 'F', '--m', '9', '--format', 'json'])",
        "cli.main(['verify', '--suite', 'sq1', '--format', 'json', '--m-range', '2..4'])",
    ],
    ids=["import", "groups-json", "verify-json"],
)
def test_cli_leaves_json_and_re_out(call):
    # The json writers escape with _json's encode_basestring_ascii, the C
    # escaper json.dumps calls for a str, so json and the re that its
    # decoder loads stay out; only table1 --format json imports json.
    out = _cold(
        "import contextlib, io; from confcoh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {call or 'pass'}\n"
        "print([name for name in ('json', 're') if name in sys.modules])"
    )
    assert out == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["groups", "--space", "B", "--m", "300", "--format", "json", "--coefficients", "F2"],
        ["verify", "--suite", "all", "--format", "json", "--m-range", "2..4"],
    ],
    ids=["groups", "verify"],
)
def test_canonical_call_leaves_argparse_out(argv):
    # argparse, and the shutil and locale that building a parser loads, are
    # only for help and errors.
    out = _cold(
        "import contextlib, io; from confcoh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "names = ('argparse', 'gettext', 'shutil', 'locale')\n"
        "print(code, [name for name in names if name in sys.modules])"
    )
    assert out == "0 []\n"


def test_help_is_argparse_help(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: confcoh [-h] {groups,table1,verify} ...\n")
    assert "print a graded group table" in out


def _module_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "confcoh.cli", *argv], capture_output=True, text=True, env=env
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
    assert not report.add("int against str", 1, "1")
    check = report.checks[0]
    assert check.expected == check.got == "1"
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
