"""Named pass/fail check results shared by the two validators."""

from __future__ import annotations

from ._frozen import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """An ordered list of checks; validation reports failures instead of
    raising them.  The one exception: ``validate_hypermap`` raises
    ``GroupTooLarge`` for a flag stabiliser over the closure cap."""

    checks: tuple[CheckResult, ...]
    # the subgroups the checks closed, for a caller that builds on them;
    # not part of the report's value
    memo: dict | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def failed_summary(self) -> str:
        """The failed checks as ``name (detail)``, on one line."""
        return "; ".join(f"{c.name} ({c.detail})" if c.detail else c.name
                         for c in self.checks if not c.passed)

    def summary(self) -> str:
        return "; ".join(
            f"{c.name}: {'PASS' if c.passed else 'FAIL'}" for c in self.checks
        )
