"""Transformation-based error analysis for document-level template filling.

Given gold and predicted templates per document, the package finds the
F1-optimal template and mention matching, derives the transformation
sequence that rewrites the predictions into the gold annotations, maps
those transformations onto thirteen diagnostic error types, and emits
per-role and aggregate score and error reports.
"""

__version__ = "0.1.0"

from .config import AnalysisConfig
from .errors import ERROR_TYPES, ErrorProfile, ErrorType, map_errors, total_errors
from .exceptions import (
    ComplexityGuardExceeded,
    InconsistentLog,
    IncompatibleReports,
    InfeasibleSpec,
    ParseError,
    SchemaMismatch,
    TfeaError,
    UnmappableSequence,
)
from .matching import (
    MentionPair,
    Tally,
    TemplateMatching,
    TemplatePair,
    count_template_matchings,
    find_optimal_matching,
    greedy_matching,
)
from .model import (
    Document,
    GoldEntity,
    Mention,
    RoleKind,
    RoleSpec,
    Schema,
    Span,
    Template,
    normalize,
    resolve_document_spans,
)
from .pipeline import CorpusAnalysis, DocumentAnalysis, analyze_corpus, analyze_document
from .scoring import Scores, score_corpus, score_document
from .spans import ScsMode, scs_absolute, scs_geometric, span_score
from .transforms import (
    Transformation,
    TransformationLog,
    TransformKind,
    derive_transformations,
)

# The injector and the replay are loaded on first use (PEP 562), so that
# importing the package, as every CLI command does, compiles neither.
_INJECT_NAMES = ("GenerationParams", "InjectionSpec", "generate_corpus", "inject_errors")


def __getattr__(name: str):
    if name in _INJECT_NAMES:
        from . import inject as module
    elif name == "apply_transformations":
        from . import replay as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "AnalysisConfig",
    "ComplexityGuardExceeded",
    "CorpusAnalysis",
    "Document",
    "DocumentAnalysis",
    "ERROR_TYPES",
    "ErrorProfile",
    "ErrorType",
    "GenerationParams",
    "GoldEntity",
    "IncompatibleReports",
    "InconsistentLog",
    "InfeasibleSpec",
    "InjectionSpec",
    "Mention",
    "MentionPair",
    "ParseError",
    "RoleKind",
    "RoleSpec",
    "Schema",
    "SchemaMismatch",
    "Scores",
    "ScsMode",
    "Span",
    "Tally",
    "Template",
    "TemplateMatching",
    "TemplatePair",
    "TfeaError",
    "Transformation",
    "TransformationLog",
    "TransformKind",
    "UnmappableSequence",
    "analyze_corpus",
    "analyze_document",
    "apply_transformations",
    "count_template_matchings",
    "derive_transformations",
    "find_optimal_matching",
    "generate_corpus",
    "greedy_matching",
    "inject_errors",
    "map_errors",
    "normalize",
    "resolve_document_spans",
    "score_corpus",
    "score_document",
    "scs_absolute",
    "scs_geometric",
    "span_score",
    "total_errors",
]
