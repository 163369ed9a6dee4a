"""The record contract shared by every value class: immutable, equal and
hashed by class and fields, printed as ``Name(field=value, ...)``, built
positionally or by keyword with defaults, and checked on every build."""

from __future__ import annotations

import copy
import pickle

import pytest

from conftest import ArcCoordinate
from hkannuli.boundary import TypeKParams
from hkannuli.classify import (CHO_KODA, AnnulusType, CensusEntry, CensusReport,
                               ClassificationOutcome, EmParams, Verdict)
from hkannuli.freegroup import Word
from hkannuli.jsjgraph import Edge, JsjGraph, NodeKind, SlopePair, Violation
from hkannuli.tangle import ExtendedRational, RationalTangle

FIVE_TWO_FIELDS = {"p": 2, "q": 1, "delta": 0, "rho": 0, "beta": 0, "lam": 1, "mu": 0}
FIVE_TWO = TypeKParams(**FIVE_TWO_FIELDS)

# class -> (fields in order with valid values, one field changed to another valid value)
RECORDS = {
    Word: ({"blocks": (("u", 2), ("v", -1))}, {"blocks": (("u", 1),)}),
    ArcCoordinate: ({"rho": 1, "beta": 0, "lam": 0, "mu": 1}, {"mu": 0}),
    TypeKParams: (FIVE_TWO_FIELDS, {"beta": 1}),
    ClassificationOutcome: ({"verdict": Verdict.TYPE_4_1, "criterion": "cho-koda",
                             "witness": None}, {"criterion": "tangle"}),
    EmParams: ({"l": 3, "m": 1, "n": 0, "p": 1}, {"n": 2}),
    CensusEntry: ({"n": 5, "outcome": CHO_KODA}, {"n": -5}),
    CensusReport: ({"params": FIVE_TWO, "span": 1, "window": (-2, -1, 0, 1),
                    "inconclusive": (-1, 0, 1)}, {"span": 2}),
    SlopePair: ({"form": "recip", "p": 2, "q": 3}, {"q": 5}),
    Edge: ({"id": "e1", "a": "x", "b": "y", "label": AnnulusType.T2_1, "slope": None},
           {"b": "x"}),
    JsjGraph: ({"nodes": (("x", NodeKind.SIMPLE),), "edges": ()},
               {"nodes": (("x", NodeKind.SEIFERT),)}),
    Violation: ({"rule": "three-annulus-law", "subject": "graph"}, {"subject": "edge e1"}),
    ExtendedRational: ({"numerator": 10, "denominator": 3}, {"numerator": 11}),
    RationalTangle: ({"twists": (3, 2)}, {"twists": (2, 3)}),
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def build(cls):
    """Two equal but distinct instances and one with a field changed."""
    fields, changed = RECORDS[cls]
    return cls(*fields.values()), cls(**fields), cls(**(fields | changed))


@CLASSES
def test_set_and_delete_raise(cls):
    record = build(cls)[0]
    assert not hasattr(record, "__dict__")  # every field is a slot
    for name in [*RECORDS[cls][0], "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert build(cls)[0] == record


@CLASSES
def test_equal_and_hash_by_class_and_fields(cls):
    positional, keyword, changed = build(cls)
    fields = tuple(RECORDS[cls][0].values())
    assert positional is not keyword
    assert positional == keyword and not positional != keyword
    assert hash(positional) == hash(keyword)
    assert positional != changed
    assert positional != fields and fields != positional
    if cls is not SlopePair:  # hashes its two slopes, not its fields
        assert hash(positional) == hash(fields)
    assert positional != type("Sub", (cls,), {})(*fields)


def test_slope_pair_equality_is_by_slopes():
    assert SlopePair.recip(2, 3) == SlopePair.recip(3, 2)
    assert hash(SlopePair.recip(2, 3)) == hash(SlopePair.recip(-3, -2))
    assert SlopePair.recip(2, 3) != SlopePair.recip(-2, 3)
    assert SlopePair.prod(2, 3) != SlopePair.prod(3, 2)


@CLASSES
def test_repr_names_every_field(cls):
    fields = RECORDS[cls][0]
    text = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(build(cls)[0]) == f"{cls.__name__}({text})"


def test_repr_as_printed_in_readme():
    assert repr(ExtendedRational(10, 3)) == "ExtendedRational(numerator=10, denominator=3)"
    assert repr(Word()) == "Word(blocks=())"


def test_construction_defaults():
    assert Word().blocks == () and Word() == Word(blocks=())
    outcome = ClassificationOutcome(Verdict.INCONCLUSIVE)
    assert (outcome.criterion, outcome.witness) == (None, None)
    edge = Edge("e1", "x", "y")
    assert (edge.label, edge.slope) == (None, None)
    assert JsjGraph((("x", NodeKind.SIMPLE),)).edges == ()


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2, 3), {}),
    ((10,), {}),
    ((10, 3), {"numerator": 10}),
    ((10, 3), {"sign": 1}),
], ids=["too-many", "missing", "repeated", "unknown"])
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        ExtendedRational(*args, **kwargs)


@CLASSES
def test_post_init_runs_once_per_construction(cls, monkeypatch):
    calls = []
    post_init = cls.__post_init__

    def counted(record):
        calls.append(type(record))
        post_init(record)

    monkeypatch.setattr(cls, "__post_init__", counted)
    build(cls)
    assert calls == [cls] * 3


@pytest.mark.parametrize("cls, fields", [
    (Word, {"blocks": (("u", 1), ("u", 1))}),
    (ArcCoordinate, {"rho": 3, "beta": 1, "lam": 0, "mu": 0}),
    (SlopePair, {"form": "prod", "p": 1, "q": 2}),
    (ExtendedRational, {"numerator": 2, "denominator": 4}),
    (RationalTangle, {"twists": ()}),
    # each case below can fail only the check its id names
    pytest.param(Word, {"blocks": (("w", 1),)}, id="Word-generator"),
    pytest.param(SlopePair, {"form": "sum", "p": 2, "q": 3}, id="SlopePair-form"),
    pytest.param(SlopePair, {"form": "recip", "p": 2, "q": 4}, id="SlopePair-lowest-terms"),
    pytest.param(ExtendedRational, {"numerator": 1, "denominator": -2},
                 id="ExtendedRational-denominator"),
], ids=lambda value: getattr(value, "__name__", ""))
def test_invalid_fields_rejected_either_way(cls, fields):
    with pytest.raises(ValueError):
        cls(*fields.values())
    with pytest.raises(ValueError):
        cls(**fields)


@CLASSES
def test_copy_and_pickle_rebuild_equal_records(cls):
    record = build(cls)[0]
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
