"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TfeaError(Exception):
    """Base class for all errors raised by this package.

    Errors pickle as their message and attributes, not as constructor
    arguments, so one raised in a pool worker reaches the parent intact.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls: type[TfeaError], args: tuple, state: dict) -> TfeaError:
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class ParseError(TfeaError):
    """A corpus, schema, or report file could not be parsed.

    Carries the offending path and a location hint (doc id, role, ...)
    so callers can report actionable messages.
    """

    def __init__(self, path: str, message: str, location: str | None = None):
        self.path = path
        self.location = location
        where = f"{path}" if location is None else f"{path} ({location})"
        super().__init__(f"{where}: {message}")


class SchemaMismatch(ParseError):
    """A corpus file names a role that the schema does not define."""

    def __init__(self, path: str, role: str, location: str | None = None):
        self.role = role
        super().__init__(path, f"role '{role}' is not defined by the schema", location)


class ComplexityGuardExceeded(TfeaError):
    """A document is over the template matching cap.

    The cap is on the closed-form template matching count, a size guard
    kept while the greedy fallback exists. Filler pairings have no cap:
    they are solved, not enumerated. A count too long to print is text.
    """

    def __init__(self, doc_id: str, what: str, count: int | str, cap: int):
        self.doc_id = doc_id
        self.what = what
        self.count = count
        self.cap = cap
        super().__init__(
            f"document '{doc_id}': {what} ({count}) exceeds the configured cap ({cap})"
        )


class InconsistentLog(TfeaError):
    """A transformation log names a missing or already-gone template, filler or gold entity, or repeats an edit."""


class UnmappableSequence(TfeaError):
    """A transformation group matches no error-type mapping rule."""

    def __init__(self, kinds, subject):
        self.kinds = kinds
        self.subject = subject
        names = ", ".join(sorted(k.value for k in kinds))
        super().__init__(f"no error type maps to transformation group [{names}] on {subject}")


class InfeasibleSpec(TfeaError):
    """An injection spec requests errors the gold corpus cannot host."""

    def __init__(self, error_type, reason: str):
        self.error_type = error_type
        super().__init__(f"cannot inject {error_type}: {reason}")


class IncompatibleReports(TfeaError):
    """Reports being compared were produced against different schemas."""
