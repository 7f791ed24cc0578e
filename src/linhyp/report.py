"""Named pass/fail check results shared by the two validators.

A report is its checks and nothing else: what a validator closed or
built on the way stays with that validator."""

from __future__ import annotations

from ._frozen import dataclass


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
