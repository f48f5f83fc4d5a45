"""Exception types shared across the toolkit."""


class NotPrime(ValueError):
    """A number required to be prime is composite."""


class ZeroElement(ZeroDivisionError):
    """The zero field element was passed where a unit is required."""


class NotCoprime(ValueError):
    """Arguments of a multiplicative-order computation share a factor."""


class InvalidSpec(ValueError):
    """Parameters of a unit construction violate its integrality condition."""


class HInDihedralizer(ValueError):
    """The conjugating element normalizes the base cyclic group, so the
    derived bicyclic unit is trivial and the criteria are undefined."""


class BalanceFamiliesDisagree(ArithmeticError):
    """The balance equalities with first index 0 and 1 disagree at some
    shift, so the triple counts behind a balance verdict are inconsistent."""


class InvariantViolated(ArithmeticError):
    """A structural fact that a verdict rests on failed to hold, so the
    inputs or the arithmetic behind them are corrupt.  Raised instead of
    an assert so that the check also runs under python -O."""


class NoElementOfOrderP(ValueError):
    """The group order is not divisible by the requested prime."""


class GroupTooLarge(ValueError):
    """The group exceeds the size bound of a brute-force search."""


class InadmissiblePair(ValueError):
    """A (q, p) pair fails the sweep admissibility filter."""

    def __init__(self, q, p, reason):
        super().__init__(f"(q={q}, p={p}) inadmissible: {reason}")
        self.q = q
        self.p = p
        self.reason = reason


class DimensionTooLarge(ValueError):
    """The permutation representation is too large for the dense oracle."""
