"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's requirements."""


class ParseError(ValueError):
    """A string or JSON document does not match the wire format."""


class PreconditionError(ValueError):
    """A stated precondition does not hold for the given inputs."""


class IntegrityError(RuntimeError):
    """An internal cross-check that must hold by theory failed.

    Raised when two independent computations of the same fact disagree
    (power iteration vs. characteristic polynomial, or the two sides of an
    exact equivalence).  Reaching this means an implementation bug, never
    bad input.  `instance`, when set, is the input that failed the check,
    so the failure can be replayed; it does not appear in str(exc).
    """

    def __init__(self, message: str, instance=None):
        super().__init__(message)
        self.instance = instance
