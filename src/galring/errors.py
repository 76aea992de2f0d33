"""Exception types shared across the package, and the one budget check
every exhaustive oracle runs before it starts."""


class GalringError(Exception):
    """Base class for all library-specific errors."""


class NonPrimeError(GalringError, ValueError):
    """The modulus base p failed the primality check."""


class BudgetExceededError(GalringError):
    """An exhaustive construction or scan would exceed its configured cap."""

    def __init__(self, what: str, required: int, cap: int):
        super().__init__(f"{what}: requires {required}, cap is {cap}")
        self.what = what
        self.required = required
        self.cap = cap


def check_budget(what: str, required: int, budget: int | None, default: int) -> None:
    """Raise BudgetExceededError if required exceeds the cap.

    A budget of None stands for the calling oracle's default cap.
    """
    cap = default if budget is None else budget
    if required > cap:
        raise BudgetExceededError(what, required, cap)


class ContextMismatchError(GalringError):
    """Operands belong to different ring contexts."""


class ParamsMismatchError(GalringError):
    """Operands belong to different ambient quotient rings."""


class ZeroElementError(GalringError):
    """The operation is undefined for the zero element."""


class NotAUnitError(GalringError):
    """A unit was required."""


class NotTeichmullerError(GalringError):
    """The element is not a nonzero Teichmuller representative."""


class WrongUnitTypeError(GalringError):
    """The unit is not of the classification variant the operation needs."""


class IndexOutOfRangeError(GalringError, ValueError):
    """A generator exponent lies outside its admissible range."""


class CharacteristicTooSmallError(GalringError):
    """The operation needs characteristic exponent a >= 2."""
