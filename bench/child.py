"""Run one benchmark op in a fresh interpreter and print one JSON line.

    python3 -S -E bench/child.py ROOT SPEC_JSON

ROOT is the checkout whose `src/confcoh` is measured.  `-S -E` keep any
installed copy of the package and the caller's PYTHONPATH out of the way.
The line reports the import time of the package, the wall time of the op
timed around the public calls only, the peak RSS read as soon as the op
returns, the op's unit of work, and whether its output passed validation.
It also reports the time of a fixed calibration task run just before and
just after the op, which measures the host's speed at that moment.
Checking happens after the timed region.
"""

import sys
import time


def main() -> int:
    root, spec = sys.argv[1], sys.argv[2]
    src = root.rstrip("/") + "/src"
    sys.path.insert(0, src)
    # Before the import, so that the task's memory is reused by the library
    # and does not raise the op's peak RSS.
    cal_before = calibrate()
    t0 = time.perf_counter()
    import confcoh.cli  # noqa: F401  (pulls in every module of the package)

    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource

    spec = json.loads(spec)
    if not os.path.realpath(confcoh.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"confcoh imported from {confcoh.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec.get("traced"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
    out = {"setup_s": setup_s, "cal_before": cal_before}
    try:
        try:
            op_s, check = OPS[spec["workload"]](spec)
        finally:
            if tracer is not None:
                tracer.stop()
        out["op_s"] = op_s
        out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["cal_after"] = calibrate()
        out["work"], out["out_bytes"] = check()
        out["ok"] = True
    except Exception as exc:  # the op raised or its output failed validation
        out.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    if tracer is not None:
        out["trace"] = tracer.summary()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"], spec["op_id"])
    print(json.dumps(out))
    return 0


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python task that allocates,
    hashes, sorts and joins as the library does, without touching it.

    The runner divides op times by it, so that the host's speed at the time
    of the op drops out.  The collector is off, so that the heap the
    library left behind does not change the task's work.
    """
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            rows = [(i, i * 2654435761 & 0xFFFFF, str(i)) for i in range(8000)]
            index: dict[int, int] = {}
            for i, h, _name in rows:
                index[h % 4099] = index.get(h % 4099, 0) ^ i
            ",".join(name for _, _, name in sorted(rows, key=lambda r: r[1]))
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


def _cli(argv: list[str]) -> tuple[float, int, str]:
    import contextlib
    import io

    from confcoh import cli

    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return time.perf_counter() - t, code, buf.getvalue()


def op_verify(spec: dict):
    import validate

    hi = spec["hi"]
    op_s, code, text = _cli(["verify", "--suite", "all", "--format", "json", "--m-range", f"2..{hi}"])
    return op_s, lambda: (validate.verify(hi, code, text), len(text.encode()))


def op_sq1(spec: dict):
    from confcoh import bockstein, f2algebra
    from confcoh.configcoh import SpaceId

    import validate

    kind, m = spec["space"], spec["m"]
    t = time.perf_counter()
    build = f2algebra.unordered_config_ring if kind == "B" else f2algebra.ordered_config_ring
    ring = build(m)
    ranks = [ring.sq1_homology_rank(d) for d in range(2 * m + 1)]
    squares = [ring.sq1_square_is_zero(d) for d in range(2 * m - 1)]
    split = None
    if kind == "B" and m % 4 == 3:
        split = [c.passed for c in bockstein.sq1_split_check((m - 3) // 4).checks]
    op_s = time.perf_counter() - t

    def check():
        s = SpaceId(kind, m)
        expected = [bockstein.page1_expected(s, d) for d in range(2 * m + 1)]
        return validate.sq1(ranks, expected, squares, split), 0

    return op_s, check


def op_groups(spec: dict):
    import validate

    m, mode, fmt = spec["m"], spec["mode"], spec["format"]
    argv = ["groups", "--space", spec["space"], "--m", str(m), "--format", fmt]
    argv += ["--homology"] if mode == "homology" else ["--coefficients", mode]
    op_s, code, text = _cli(argv)
    return op_s, lambda: (validate.groups(m, mode, fmt, code, text), len(text.encode()))


OPS = {"verify-default": op_verify, "sq1-sweep": op_sq1, "groups-wide": op_groups}


if __name__ == "__main__":
    sys.exit(main())
