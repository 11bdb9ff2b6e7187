"""Exception types shared across the package."""


class EnumerationBudgetError(RuntimeError):
    """An exact enumeration would exceed the configured state budget."""

    def __init__(self, states, budget):
        super().__init__(
            f"enumeration needs {states} states but the budget is {budget}; "
            "pass a larger budget to proceed"
        )
        self.states = states
        self.budget = budget


class AlreadyFixedError(ValueError):
    """A database position was conditioned twice."""


class ZeroProbabilityError(ValueError):
    """A template distribution was conditioned on a zero-probability event."""


class NotSamplableError(ValueError):
    """The samplability gate refused; carries the witness and the refused
    family, "half_line" (same-template pair, the half-line property) or
    "coupled" (cross pair, the mean value inequality)."""

    def __init__(self, eps, outcome, family, context=""):
        detail = f" ({context})" if context else ""
        condition = "mean value inequality" if family == "coupled" else "half-line property"
        super().__init__(
            f"{condition} fails at eps={eps} "
            f"with witness outcome {outcome}{detail}"
        )
        self.eps = eps
        self.outcome = outcome
        self.family = family
