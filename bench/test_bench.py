"""Self-tests of the benchmark: tiny runs of every workload, and each
validator rejecting a corrupted output.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import validate  # noqa: E402
from confcoh import bockstein, cli, f2algebra  # noqa: E402
from confcoh.configcoh import SpaceId  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_has_no_failures(workload):
    res = run_bench(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    res = run_bench("verify-default", 1)
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    got = {k: v["value"] for k, v in res["metrics"].items()}
    assert got["report.checks"] >= validate.VERIFY_FLOOR[7][0]
    assert got["f2algebra.echelon.rows_offered"] > 0 and got["abelian.groups_built"] > 0


def test_run_refuses_a_tree_without_sources():
    """A tree holding only BENCHMARK.json and bench/ has nothing to measure."""
    bare = ROOT / ".bench_out" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench" / f.name)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-default", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# -- verify ------------------------------------------------------------------


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def verify_output():
    return _cli(["verify", "--suite", "all", "--format", "json", "--m-range", "2..7"])


def test_verify_accepts_real_output(verify_output):
    assert validate.verify(7, *verify_output) == validate.VERIFY_FLOOR[7][0]


def _edit_report(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def test_verify_rejects_fail_line(verify_output):
    code, text = verify_output

    def fail_one(obj):
        obj["checks"][100]["passed"] = False

    with pytest.raises(validate.ValidationError, match="FAIL"):
        validate.verify(7, code, _edit_report(text, fail_one))


def test_verify_rejects_fewer_checks(verify_output):
    code, text = verify_output
    with pytest.raises(validate.ValidationError, match="checks"):
        validate.verify(7, code, _edit_report(text, lambda o: o["checks"].pop(0)))


def test_verify_rejects_fewer_skipped(verify_output):
    code, text = verify_output

    def unskip(obj):
        next(c for c in obj["checks"] if c["skipped"])["skipped"] = False

    with pytest.raises(validate.ValidationError, match="skipped"):
        validate.verify(7, code, _edit_report(text, unskip))


def test_verify_rejects_nonzero_exit(verify_output):
    with pytest.raises(validate.ValidationError):
        validate.verify(7, 1, verify_output[1])


# -- sq1 ---------------------------------------------------------------------


def _sweep(kind, m):
    ring = (f2algebra.unordered_config_ring if kind == "B" else f2algebra.ordered_config_ring)(m)
    ranks = [ring.sq1_homology_rank(d) for d in range(2 * m + 1)]
    squares = [ring.sq1_square_is_zero(d) for d in range(2 * m - 1)]
    expected = [bockstein.page1_expected(SpaceId(kind, m), d) for d in range(2 * m + 1)]
    return ranks, expected, squares


@pytest.mark.parametrize("kind,m", [("B", 7), ("F", 9)])
def test_sq1_accepts_real_sweep(kind, m):
    ranks, expected, squares = _sweep(kind, m)
    assert validate.sq1(ranks, expected, squares, None) == 4 * m


def test_sq1_rejects_flipped_rank():
    ranks, expected, squares = _sweep("B", 7)
    ranks[5] += 1
    with pytest.raises(validate.ValidationError, match="degree 5"):
        validate.sq1(ranks, expected, squares, None)


def test_sq1_rejects_nonzero_square():
    ranks, expected, squares = _sweep("B", 7)
    squares[3] = False
    with pytest.raises(validate.ValidationError, match="square"):
        validate.sq1(ranks, expected, squares, None)


def test_sq1_rejects_failed_split():
    ranks, expected, squares = _sweep("B", 7)
    with pytest.raises(validate.ValidationError, match="splitting"):
        validate.sq1(ranks, expected, squares, [True, False])


# -- groups ------------------------------------------------------------------

MODES = ("Z", "twisted", "F2", "homology")
FORMATS = ("table", "csv", "json")


def _groups(space, m, mode, fmt):
    argv = ["groups", "--space", space, "--m", str(m), "--format", fmt]
    argv += ["--homology"] if mode == "homology" else ["--coefficients", mode]
    return _cli(argv)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("space", "BF")
def test_groups_accepts_real_tables(space, mode, fmt):
    for m in (2, 3, 4, 7, 29, 301):
        assert validate.groups(m, mode, fmt, *_groups(space, m, mode, fmt)) == 2 * m


def _drop_one_summand(fmt, text):
    """Remove one torsion summand from the row of degree 5."""
    if fmt == "json":
        obj = json.loads(text)
        obj["groups"][5]["torsion"].pop()
        return json.dumps(obj)
    lines = text.splitlines()
    row = 5 + (1 if fmt == "csv" else 2)
    if fmt == "csv":
        head, _, torsion = lines[row].rpartition(",")
        lines[row] = head + "," + ";".join(torsion.split(";")[1:])
    else:
        degree, group = lines[row].split(None, 1)
        k = int(group.strip("<>"))
        lines[row] = f"{degree:>3}  <{k - 1}>"
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", MODES)
def test_groups_rejects_dropped_summand(mode, fmt):
    code, text = _groups("B", 9, mode, fmt)
    with pytest.raises(validate.ValidationError, match="mod-2 count"):
        validate.groups(9, mode, fmt, code, _drop_one_summand(fmt, text))


@pytest.mark.parametrize("fmt", FORMATS)
def test_groups_rejects_missing_row(fmt):
    code, text = _groups("F", 9, "Z", fmt)
    if fmt == "json":
        obj = json.loads(text)
        obj["groups"].pop()
        text = json.dumps(obj)
    else:
        text = "\n".join(text.splitlines()[:-1])
    with pytest.raises(validate.ValidationError, match="rows"):
        validate.groups(9, "Z", fmt, code, text)


# -- runner ------------------------------------------------------------------


def test_inputs_come_from_the_seed_alone():
    import random

    import run

    for name, (gen, _) in run.WORKLOADS.items():
        assert gen(random.Random(f"{name}:3")) == gen(random.Random(f"{name}:3"))
    nominal = run.groups_wide(random.Random(0))
    for seed in range(20):
        drawn = run.groups_wide(random.Random(seed))
        # Sizes move in steps of 8, keeping m mod 8 and so the op's cost shape.
        assert [(o["m"] - n["m"]) % 8 for o, n in zip(drawn, nominal)] == [0] * len(nominal)
        assert drawn[-1] == {"m": 2000, "format": "json", "mode": "Z", "space": "F"}


def test_op_times_are_scaled_by_calibration_and_median_per_input():
    import run

    def op(m, op_s, cal):
        return {"spec": {"m": m}, "op_s": op_s, "cal_before": cal, "cal_after": cal}

    ref = run.CAL_REF_S
    done = [op(1, 1.0, ref), op(1, 1.6, 1.6 * ref), op(1, 3.0, ref), op(2, 0.5, 2 * ref)]
    assert run.op_times(done) == pytest.approx([1.0, 1.0, 1.0, 0.25])


def test_tail_is_the_maximum_until_it_lies_above_the_median():
    import run

    assert run.tail(list(range(21))) == (20, 100.0)
    assert run.tail(list(range(40))) == (29, 75.0)
