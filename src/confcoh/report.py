"""Structured pass/fail records shared by every verification suite."""

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
    ) -> "CheckResult":
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


class VerificationReport(Value, fields="suite m checks"):
    """Checks of one family at one m, stamped on each check as it is added;
    a report that only collects other reports' checks leaves both unset.
    The fields are fixed; the list of checks grows."""

    __slots__ = ()

    def __new__(
        cls, suite: str = "", m: int | None = None, checks: list[CheckResult] | None = None
    ) -> "VerificationReport":
        return tuple.__new__(cls, (suite, m, [] if checks is None else checks))

    # add builds each CheckResult with tuple.__new__ directly, in the field
    # order CheckResult.__new__ takes, which saves a Python call per check:
    # nearly every check goes through it.  add_bool and add_skip, rare,
    # call CheckResult.

    def add(self, label: str, expected: object, got: object, *, degree: int | None = None) -> None:
        ok = expected == got  # decided by value; strings are for display
        self.checks.append(
            tuple.__new__(
                CheckResult,
                (self.suite, label, str(expected), str(got), ok, self.m, degree, False),
            )
        )

    def add_bool(
        self,
        label: str,
        passed: bool,
        *,
        degree: int | None = None,
        expected: object = "true",
        got: object | None = None,
    ) -> None:
        passed = bool(passed)  # the json report writes true/false, never 1/0
        shown = str(got) if got is not None else ("true" if passed else "false")
        self.checks.append(
            CheckResult(self.suite, label, str(expected), shown, passed, self.m, degree)
        )

    def add_skip(self, label: str) -> None:
        self.checks.append(
            CheckResult(self.suite, label, "open", "open", True, self.m, skipped=True)
        )

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def tally(self) -> tuple[int, int]:
        """(failures, skipped-open checks), counted in one pass."""
        failures = skipped = 0
        for check in self.checks:
            if not check.passed:
                failures += 1
            if check.skipped:
                skipped += 1
        return failures, skipped

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self, tally: tuple[int, int] | None = None) -> str:
        """The count of checks, of failures and, if any, of skipped-open
        checks, from the given tally of this report or else a new one."""
        failures, skipped = self.tally() if tally is None else tally
        return f"{len(self.checks)} checks, {failures} failures" + (
            f", {skipped} skipped-open" if skipped else ""
        )
