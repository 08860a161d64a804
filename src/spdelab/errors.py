"""Error taxonomy shared by all subsystems.

Exit-code mapping used by the command line driver:
  1  usage / schema / contract problems
  2  a mathematical hypothesis required by an experiment does not hold
  3  an experiment ran fine but its verdict is a failure (or "diverges")
"""


class SpdelabError(Exception):
    """Base class for all package errors."""


class ContractViolation(SpdelabError):
    """An input breaks a documented precondition (dimension mismatch, non-PSD
    covariance, malformed generator, out-of-range shift, ...)."""


class SchemaError(SpdelabError):
    """A scenario document failed strict validation."""


class CertificationFailed(SpdelabError):
    """Dissipativity certification could not produce a positive constant."""


class HypothesisViolated(SpdelabError):
    """A hypothesis an experiment relies on was audited and found false.

    ``hypothesis`` names the violated condition so the CLI diagnostics can
    point at it directly; the message is that name and the detail, and the
    CLI prefixes it with ``hypothesis violated:``.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        self.detail = detail
        msg = hypothesis
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NumericalBlowup(SpdelabError):
    """A trajectory left the representable range during time stepping: found
    by the check after step ``step_index``; ``last_passed`` is the step of the
    previous check, which the state passed (None when there was none)."""

    def __init__(self, step_index: int, trajectory_ids=None, last_passed: int | None = None):
        self.step_index = step_index
        self.trajectory_ids = list(trajectory_ids) if trajectory_ids is not None else []
        msg = f"numerical blow-up at step {step_index} " + (
            "(no earlier check)" if last_passed is None else f"(last passed check: step {last_passed})")
        if self.trajectory_ids:
            msg += f" (trajectories {self.trajectory_ids[:8]}{'...' if len(self.trajectory_ids) > 8 else ''})"
        super().__init__(msg)


class BudgetExceeded(SpdelabError):
    """A request exceeded a solver's declared size budget."""
