"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: ValidationError maps to
exit code 2 (the input itself is bad), InapplicableError to exit code 3 (the
input is fine but the requested algorithm cannot handle it).
"""


class NetimproveError(Exception):
    """Base class for all package errors."""


class ValidationError(NetimproveError):
    """Malformed or inconsistent instance / allocation / flow data."""


class InapplicableError(NetimproveError):
    """The requested algorithm does not apply to this instance."""


class NotSeriesParallel(InapplicableError):
    """Two-terminal graph is not series-parallel; carries a reason string."""


class NotParallelPaths(InapplicableError):
    """Graph is not a union of edge-disjoint source-sink paths."""


class UnsupportedDelay(InapplicableError):
    """Delay functions outside the algorithm's supported class."""


class Infeasible(InapplicableError):
    """No finite-delay routing exists for some commodity."""


class GridTooLarge(InapplicableError):
    """Requested oracle grid exceeds the evaluation cap."""


class DiscretizationError(InapplicableError):
    """Requested accuracy needs a finer grid than the configured cap allows."""
