"""Shared exception types."""


class SizeError(ValueError):
    """A dimension or size constraint was violated."""


class IndexRangeError(IndexError):
    """A basis index lies outside its valid range."""


class DomainError(ValueError):
    """Input is outside an operation's mathematical domain."""


class NumericError(ArithmeticError):
    """Non-finite values or a failed numerical safeguard."""
