"""Every record class behaves as the stdlib dataclass with the same fields and flags.

The classes are found in the package source (every class decorated with
``record``), so a new record is checked as soon as it exists. Each one is
compared with a twin built by ``dataclasses.make_dataclass`` from the
record's own annotations, defaults and decorator flags.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
from functools import partial

import pytest

import tfea
from tfea.matching import Tally
from tfea.model import Factory, Mention, RoleKind, RoleSpec, Span, Template
from tfea.spans import ScsMode


def _record_classes() -> list[tuple[type, bool, bool]]:
    """``(class, frozen, order)`` for every ``@record`` class, flags as written in the source."""
    found = []
    for info in pkgutil.iter_modules(tfea.__path__):
        module = importlib.import_module(f"tfea.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                name = call.func if call else decorator
                if isinstance(name, ast.Name) and name.id == "record":
                    flags = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords} if call else {}
                    found.append((getattr(module, node.name), flags.get("frozen", False), flags.get("order", False)))
    return found


RECORDS = _record_classes()

_STRING = RoleKind.STRING_FILL
_SET = RoleKind.SET_FILL
# Two argument tuples for each record whose __post_init__ checks or converts
# its fields; every other record gets distinct strings.
VALID = {
    "RoleSpec": [("agent", _STRING), ("status", _SET, ["a", "b"], True)],
    "Schema": [((RoleSpec("a", _STRING),),), ([RoleSpec("b", _STRING), RoleSpec("c", _SET, ("x",))],)],
    "Span": [(1, 3), (0, 5)],
    "GoldEntity": [((Mention("x"),),), ([Mention("y", Span(0, 1)), Mention("z")],)],
    "Template": [({"agent": (Mention("x"),)},), ({"status": "a"},)],
    "Document": [("d1", "text"), ("d2", "t", [Template({})], ())],
    "AnalysisConfig": [(), (ScsMode.ABSOLUTE, True, 5, "fail")],
}
INVALID = {
    "RoleSpec": [("status", _SET), ("agent", _STRING, ("x",))],
    "Schema": [((RoleSpec("a", _STRING), RoleSpec("a", _STRING)),)],
    "Span": [(3, 1), (-1, 2)],
    "GoldEntity": [((),)],
    "AnalysisConfig": [(ScsMode.GEOMETRIC, False, 1, "nope")],
}


def _fields(cls) -> dict:
    return cls.__dict__["__annotations__"]


def _defaults(cls) -> dict:
    """Each field's default as ``__init__`` declares it; a record keeps no default on its class."""
    params = inspect.signature(cls).parameters.values()
    return {param.name: param.default for param in params if param.default is not param.empty}


def _twin(cls, frozen: bool, order: bool, slots: bool = True) -> type:
    fields = []
    defaults = _defaults(cls)
    for name, annotation in _fields(cls).items():
        if name not in defaults:
            fields.append((name, annotation))
        elif isinstance(defaults[name], Factory):
            fields.append((name, annotation, dataclasses.field(default_factory=defaults[name].make)))
        else:
            fields.append((name, annotation, dataclasses.field(default=defaults[name])))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=frozen, order=order, slots=slots, namespace=namespace
    )


def _pickled(obj, protocol: int):
    return pickle.loads(pickle.dumps(obj, protocol))


def _samples(cls) -> list[tuple]:
    if cls.__name__ in VALID:
        return VALID[cls.__name__]
    assert not hasattr(cls, "__post_init__"), f"{cls.__name__} checks its fields: add it to VALID"
    return [tuple(f"{name}-{k}" for name in _fields(cls)) for k in (0, 1)]


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises.

    ``dataclasses.FrozenInstanceError`` counts as the ``AttributeError``
    it subclasses.
    """
    try:
        return "value", call()
    except Exception as exc:
        return "raised", AttributeError if isinstance(exc, AttributeError) else type(exc), str(exc)


def test_records_found():
    classes = {cls for cls, _, _ in RECORDS}
    assert len(classes) == len(RECORDS) > 0
    # Every class that got the generated methods was found in the source.
    generated = {
        obj
        for info in pkgutil.iter_modules(tfea.__path__)
        for obj in vars(importlib.import_module(f"tfea.{info.name}")).values()
        if isinstance(obj, type) and "__match_args__" in obj.__dict__
    }
    assert generated == classes


@pytest.fixture(params=RECORDS, ids=lambda r: f"{r[0].__module__}.{r[0].__qualname__}")
def pair(request):
    cls, frozen, order = request.param
    return cls, _twin(cls, frozen, order), frozen, order


def test_signature_and_repr(pair):
    cls, twin, _, _ = pair
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__match_args__ == twin.__match_args__
    for args in _samples(cls):
        assert repr(cls(*args)) == repr(twin(*args))
        kwargs = dict(zip(_fields(cls), args))
        assert repr(cls(**kwargs)) == repr(cls(*args))


def test_eq_and_hash(pair):
    cls, twin, frozen, _ = pair
    samples = _samples(cls)
    for a in samples:
        assert _outcome(lambda: hash(cls(*a))) == _outcome(lambda: hash(twin(*a)))
        # Another class with the same field values is never equal.
        assert (cls(*a) == twin(*a)) is False
        assert (twin(*a) == cls(*a)) is False
        assert cls(*a) != twin(*a)
        for b in samples:
            assert (cls(*a) == cls(*b)) == (twin(*a) == twin(*b))
            assert (cls(*a) != cls(*b)) == (twin(*a) != twin(*b))
    assert (cls.__hash__ is None) == (twin.__hash__ is None) == (not frozen)


# Frozen records whose fields hold a dict, and a Document holding a
# Template: hashing them raises, exactly as for their dataclass twins.
UNHASHABLE = {
    "Template": ({},),
    "TemplatePair": (0, 0, {}),
    "TemplateMatching": ("d", (), (), (), {}, Tally(), 0),
    "Scores": ({}, Tally()),
    "InjectionSpec": ({},),
    "Document": ("d", "t", [Template({})]),
}


@pytest.mark.parametrize("name", UNHASHABLE)
def test_frozen_records_holding_a_dict_do_not_hash(name):
    (cls, frozen, order), = [r for r in RECORDS if r[0].__name__ == name]
    assert frozen
    twin = _twin(cls, frozen, order)
    args = UNHASHABLE[name]
    outcome = _outcome(lambda: hash(cls(*args)))
    assert outcome == ("raised", TypeError, "unhashable type: 'dict'")
    assert outcome == _outcome(lambda: hash(twin(*args)))


def test_frozen_assignment(pair):
    cls, twin, frozen, _ = pair
    args = _samples(cls)[0]
    for name in _fields(cls):
        ours, theirs = cls(*args), twin(*args)
        assigned = _outcome(lambda: setattr(ours, name, 7))
        assert assigned == _outcome(lambda: setattr(theirs, name, 7))
        assert (assigned[0] == "raised") == frozen
        assert repr(ours) == repr(theirs)
        assert _outcome(lambda: delattr(ours, name)) == _outcome(lambda: delattr(theirs, name))


def test_defaults_are_fresh_per_instance(pair):
    cls, twin, _, _ = pair
    defaults = _defaults(cls)
    required = [name for name in _fields(cls) if name not in defaults]
    args = dict(zip(required, _samples(cls)[0]))
    first, second, theirs = cls(**args), cls(**args), twin(**args)
    assert repr(first) == repr(theirs)
    for name, default in defaults.items():
        if isinstance(default, Factory):
            assert getattr(first, name) == getattr(theirs, name)
            assert getattr(first, name) is not getattr(second, name)


def test_post_init_errors(pair):
    cls, twin, _, _ = pair
    for args in INVALID.get(cls.__name__, []):
        outcome = _outcome(lambda: cls(*args))
        assert outcome[:2] == ("raised", ValueError)
        assert outcome == _outcome(lambda: twin(*args))


def test_order(pair):
    cls, twin, _, order = pair
    samples = _samples(cls)
    for a in samples:
        for b in samples:
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                ours = _outcome(lambda: getattr(cls(*a), op)(cls(*b)))
                assert ours == _outcome(lambda: getattr(twin(*a), op)(twin(*b)))
                assert (ours[0] == "value" and ours[1] is not NotImplemented) == order
            assert _outcome(lambda: cls(*a) < twin(*b))[:2] == ("raised", TypeError)


def test_slots(pair):
    """Fields are the slots: no instance ``__dict__``, no class-level default, no other attribute.

    A frozen record is compared with an unslotted frozen twin there: the
    ``__setattr__`` of a frozen ``slots=True`` dataclass tests ``type(self)``
    against the class it replaced, so (on Python 3.11, for one) an unknown
    name reaches ``super(cls, self)`` and raises ``TypeError``.
    """
    cls, twin, frozen, order = pair
    assert cls.__slots__ == cls.__match_args__ == twin.__slots__
    for name in _fields(cls):
        assert type(cls.__dict__[name]) is type(twin.__dict__[name])
    if frozen:
        twin = _twin(cls, frozen, order, slots=False)
    for args in _samples(cls):
        ours, theirs = cls(*args), twin(*args)
        assert not hasattr(ours, "__dict__")
        assigned = _outcome(lambda: setattr(ours, "unknown", 7))
        assert assigned[0] == "raised"
        assert assigned == _outcome(lambda: setattr(theirs, "unknown", 7))
        assert repr(ours) == repr(theirs)


# Every pickle protocol, and both copies: all of them go through ``__reduce__``.
COPIES = [
    *(partial(_pickled, protocol=protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy,
    copy.deepcopy,
]


def test_pickle_round_trip(pair):
    cls, _, frozen, _ = pair
    for args, how in itertools.product(_samples(cls), COPIES):
        obj = cls(*args)
        back = how(obj)
        assert type(back) is cls, how
        assert back == obj, how
        assert repr(back) == repr(obj), how
        if frozen:
            with pytest.raises(AttributeError):
                setattr(back, next(iter(_fields(cls))), 7)
