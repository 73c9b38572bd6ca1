"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that
callers can catch everything raised by this package with one clause
while still being able to discriminate failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GeometryError(ReproError):
    """Invalid geometric construction (non-rectilinear segment, bad rect...)."""


class LayoutError(ReproError):
    """Invalid layout model construction (duplicate names, bad references...)."""


class ValidationError(LayoutError):
    """A layout violates the paper's placement restrictions.

    The paper imposes three restrictions on block placement: blocks must
    be rectangular, oriented orthogonally, and placed a finite non-zero
    distance apart.
    """


class RoutingError(ReproError):
    """A routing phase failed for a reason other than unroutability."""


class UnroutableError(RoutingError):
    """No legal route exists (or none was found by an incomplete router).

    Attributes
    ----------
    partial:
        Optional partially-completed artifact (e.g. a route tree missing
        some terminals) useful for diagnostics.
    """

    def __init__(self, message: str, partial: object | None = None):
        super().__init__(message)
        self.partial = partial

    def __reduce__(self):
        # Default exception pickling would drop ``partial``; process
        # batches ship these across process boundaries.
        return (type(self), (self.args[0], self.partial))


class SearchError(ReproError):
    """The state-space search engine was misused or exhausted its limits."""


class ServiceError(ReproError):
    """The routing service rejected or failed a request.

    Attributes
    ----------
    status:
        The HTTP status code the failure maps to (``None`` when the
        error was raised outside an HTTP exchange).
    """

    def __init__(self, message: str, *, status: int | None = None):
        super().__init__(message)
        self.status = status


class QueueFullError(ServiceError):
    """The service's admission window is full (HTTP 429).

    Raised before a job is created: a rejected request is never
    enqueued, so acceptance is all-or-nothing — every job that *was*
    accepted still runs to a terminal state.
    """

    def __init__(self, message: str, *, status: int | None = 429):
        super().__init__(message, status=status)
