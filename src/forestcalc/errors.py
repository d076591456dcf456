"""Exception hierarchy with stable machine-readable tags.

Parse errors exit the CLI with code 2, domain errors with code 1.
"""


class ForestcalcError(Exception):
    tag = "error"


class ParseError(ForestcalcError):
    tag = "syntax-error"

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class LabelOutOfRangeError(ParseError):
    tag = "label-out-of-range"


class MalformedTwistedError(ParseError):
    tag = "malformed-twisted"


class DomainError(ForestcalcError):
    tag = "domain-error"


class OrderMismatchError(DomainError):
    tag = "order-mismatch"


class NotPrimitiveError(DomainError):
    tag = "not-primitive"


class BracketNonzeroError(DomainError):
    tag = "bracket-nonzero"


class HypothesisViolationError(DomainError):
    tag = "hypothesis-violation"


class ParameterError(DomainError):
    tag = "bad-parameter"


class ResourceLimitError(DomainError):
    tag = "resource-limit"
