"""Exception types shared across the package."""


class NumericsError(ValueError):
    """A numerical precondition failed at run time.

    Raised when an input is structurally valid but the requested computation
    cannot be trusted on it: a signal or integrand that is not finite or
    does not decay at the grid edges (the truncation guard,
    ``signals.check_decay``), an
    un-normalized auxiliary function, or a zero-energy signal where a
    relative quantity is requested. Distinct from plain ``ValueError``
    (caller misconfiguration) so that command-line wrappers can map the two
    cases to different exit codes.
    """
