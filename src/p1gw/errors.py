"""Exception hierarchy for the p1gw package.

Every error raised intentionally by this package derives from P1GWError,
so callers can catch one type at the boundary.
"""


class P1GWError(Exception):
    """Base class for all errors raised by p1gw."""


class DepthExceeded(P1GWError):
    """A series coefficient below the stored truncation depth was requested."""

    def __init__(self, needed: int, available: int, what: str = "series"):
        self.needed = needed
        self.available = available
        super().__init__(
            f"{what}: coefficient at exponent {needed} requested but data "
            f"is only valid down to exponent {-available}"
        )


class CancellationFailure(P1GWError):
    """Positive powers that must cancel in a correlator product did not."""


class UnstableExtraction(P1GWError):
    """A recomputation at higher depth changed an extracted coefficient."""


class MalformedValue(P1GWError):
    """A computed value violates a structural constraint (parity, range)."""


class IdentityViolation(P1GWError):
    """An internal consistency identity failed to hold exactly."""


class IndexOutOfRange(P1GWError):
    """An insertion index outside the supported range was requested."""
