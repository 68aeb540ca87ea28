"""Exception types shared across the package."""


class InclogicError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(InclogicError):
    """Raised on malformed formula text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class FragmentError(InclogicError):
    """An operation received a formula outside its supported fragment."""


class NotMlError(InclogicError):
    """A plain modal-logic formula was required."""


class NotEmincError(InclogicError):
    """Inclusion parameters must be plain modal-logic formulas."""


class InputError(InclogicError):
    """A JSON input document is malformed: wrong root, missing or mistyped field."""


class ForeignWorldError(InclogicError):
    """A world name does not belong to the model."""


class UnboundPropError(InclogicError):
    """A proposition symbol is outside the assignment domain or model signature."""


class ArityError(InclogicError):
    """Inclusion atom parameter lists must have equal, positive length."""


class SizeGuardError(InclogicError):
    """An exhaustive enumeration exceeded its configured size guard."""


class CircuitInvariantError(InclogicError):
    """A monotone circuit violates a structural invariant."""


class PropCollisionError(InclogicError):
    """An input instance uses proposition names reserved by an encoding."""
