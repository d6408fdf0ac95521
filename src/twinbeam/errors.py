"""Semantic exception hierarchy shared by all twinbeam modules."""


class TwinbeamError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TwinbeamError):
    """A domain-type invariant was violated."""


class DomainError(TwinbeamError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleMomentsError(TwinbeamError):
    """The detected moments admit no paired + noise decomposition."""


class NumericsError(TwinbeamError):
    """A numerical evaluation lost more precision than is recoverable."""


class GridResolutionError(TwinbeamError):
    """A truncation cutoff or quadrature grid is too coarse for the request."""
