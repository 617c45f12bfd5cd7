"""Exception types shared across the package."""


class NotPositiveDefinite(ValueError):
    """Gram matrix failed a positivity check; `minor` is the 1-based order
    of the first offending leading principal minor."""

    def __init__(self, minor: int):
        self.minor = minor
        super().__init__(f"matrix is not positive definite "
                         f"(leading minor of order {minor})")


class DegeneratePlane(ValueError):
    """Two vectors span a numerically degenerate plane."""


class SymmetryViolation(ValueError):
    """Conflicting values for permutations of one index triple."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        super().__init__(f"conflicting values for permutations "
                         f"of triple {self.triple}")


class Inadmissible(ValueError):
    """A (variant, tuple) pairing or tuple itself violates its admissibility
    conditions."""


class ChartDomainError(ValueError):
    """Chart point outside the declared domain."""


class HorizontalityError(ValueError):
    """An immersion point failed the horizontality precondition; `residual`
    carries the offending magnitude."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"horizontality residual {residual:.3e} "
                         f"exceeds tolerance")
