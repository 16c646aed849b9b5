"""Exceptions: every package error survives a pickle round trip, as from a pool worker."""

import pickle

from tfea.errors import ErrorType
from tfea.exceptions import (
    ComplexityGuardExceeded,
    IncompatibleReports,
    InconsistentLog,
    InfeasibleSpec,
    ParseError,
    SchemaMismatch,
    TfeaError,
    UnmappableSequence,
)
from tfea.transforms import TransformKind

SAMPLES = [
    TfeaError("generic failure"),
    ParseError("gold.json", "must be a list", "doc 'd1'"),
    ParseError("gold.json", "not JSON"),
    SchemaMismatch("gold.json", "Weapon", "doc 'd1' template 0"),
    SchemaMismatch("gold.json", "Weapon"),
    ComplexityGuardExceeded("d1", "template matchings", 1441729, 1000000),
    InconsistentLog("filler consumed twice"),
    UnmappableSequence(frozenset({TransformKind.ALTER_SPAN, TransformKind.ALTER_ROLE}), "role 'Target'"),
    InfeasibleSpec(ErrorType.SPAN_ERROR, "no mention long enough"),
    IncompatibleReports("role names differ"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_samples_cover_every_error_class():
    assert {type(e) for e in SAMPLES} == {TfeaError, *_subclasses(TfeaError)}


def test_pickle_round_trip_keeps_message_and_attributes():
    for error in SAMPLES:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)
