"""Structured pass/fail records shared by every verification suite."""

from __future__ import annotations

from .abelian import Value


class CheckResult(Value, fields="suite label expected got passed m degree skipped"):
    """One check: suite and label name it, expected and got are the values
    as shown, m and degree locate it when they apply, and skipped marks an
    open case, reported but not asserted."""

    __slots__ = ()

    def __new__(
        cls,
        suite: str,
        label: str,
        expected: str,
        got: str,
        passed: bool,
        m: int | None = None,
        degree: int | None = None,
        skipped: bool = False,
    ) -> CheckResult:
        return tuple.__new__(cls, (suite, label, expected, got, passed, m, degree, skipped))

    def line(self) -> str:
        status = "SKIPPED-OPEN" if self.skipped else ("ok" if self.passed else "FAIL")
        head = [f"[{self.suite}]"]
        if self.m is not None:
            head.append(f"m={self.m}")
        if self.degree is not None:
            head.append(f"degree={self.degree}")
        head.append(f"{self.label}:")
        return f"{' '.join(head)} expected={self.expected} got={self.got} {status}"


class VerificationReport:
    """Checks of one family at one m, stamped on each check as it is added;
    a report that only collects other reports' checks leaves both unset.
    Reports are equal when their suite, m and checks are."""

    __slots__ = ("suite", "m", "checks")

    def __init__(
        self, suite: str = "", m: int | None = None, checks: list[CheckResult] | None = None
    ) -> None:
        self.suite = suite
        self.m = m
        self.checks = [] if checks is None else checks

    def __repr__(self) -> str:
        return f"VerificationReport(suite={self.suite!r}, m={self.m!r}, checks={self.checks!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.suite, self.m, self.checks) == (other.suite, other.m, other.checks)

    # The add methods build each CheckResult with tuple.__new__ directly, in
    # the field order CheckResult.__new__ takes, which saves a Python call
    # per check.

    def add(
        self, label: str, expected: object, got: object, *, degree: int | None = None
    ) -> bool:
        ok = expected == got  # decided by value; strings are for display
        self.checks.append(
            tuple.__new__(
                CheckResult,
                (self.suite, label, str(expected), str(got), ok, self.m, degree, False),
            )
        )
        return ok

    def add_bool(
        self,
        label: str,
        passed: bool,
        *,
        degree: int | None = None,
        expected: object = "true",
        got: object | None = None,
    ) -> bool:
        passed = bool(passed)  # the json report writes true/false, never 1/0
        shown = str(got) if got is not None else ("true" if passed else "false")
        self.checks.append(
            tuple.__new__(
                CheckResult,
                (self.suite, label, str(expected), shown, passed, self.m, degree, False),
            )
        )
        return passed

    def add_skip(self, label: str) -> None:
        self.checks.append(
            tuple.__new__(
                CheckResult, (self.suite, label, "open", "open", True, self.m, None, True)
            )
        )

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        n_skip = sum(1 for c in self.checks if c.skipped)
        return (
            f"{len(self.checks)} checks, {len(self.failures())} failures"
            + (f", {n_skip} skipped-open" if n_skip else "")
        )

