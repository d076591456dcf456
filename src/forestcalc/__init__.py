"""forestcalc: exact integer calculus for decorated trees and free Lie algebras."""

from .errors import (
    DomainError,
    ForestcalcError,
    HypothesisViolationError,
    LabelOutOfRangeError,
    MalformedTwistedError,
    NotPrimitiveError,
    ParameterError,
    ParseError,
)
from .forest import IntersectionForest, forest_add, forest_scale, make_forest, parse_forest
from .trees import (
    DecoratedTree,
    framed_tree,
    rooted_tree,
    twisted_tree,
)

__all__ = [
    "DecoratedTree",
    "DomainError",
    "ForestcalcError",
    "HypothesisViolationError",
    "IntersectionForest",
    "LabelOutOfRangeError",
    "MalformedTwistedError",
    "NotPrimitiveError",
    "ParameterError",
    "ParseError",
    "forest_add",
    "forest_scale",
    "framed_tree",
    "make_forest",
    "parse_forest",
    "rooted_tree",
    "twisted_tree",
]
