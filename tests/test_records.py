"""The immutable record classes behave as the frozen dataclasses they
replace, and importing the command line loads neither ``dataclasses`` nor
``typing``.

The reprs below were captured from the dataclass versions; the bench
oracle compares answer reprs, so they must match byte for byte.
"""
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from ellcob.cobordism import (
    CharNumberVector,
    DistinctnessResult,
    FamilySpec,
    Functional,
    Partition,
    VerdictResult,
)
from ellcob.manifolds import LineBundleSum

SRC = Path(__file__).resolve().parents[1] / "src"

# class, keyword arguments in signature order, one field changed, repr
CASES = {
    "CharNumberVector": (
        CharNumberVector, {"dimension": 8, "row": (1, F(1, 3))}, {"row": (1, 2)},
        "CharNumberVector(dimension=8, values={(1, 1): Fraction(1, 1), (2,): Fraction(1, 3)})",
    ),
    "Functional": (
        Functional, {"dimension": 8, "coefficients": {(2,): F(1, 2), (1, 1): 3}}, {"coefficients": {(2,): 1}},
        "Functional(dimension=8, coefficients={(2,): Fraction(1, 2), (1, 1): Fraction(3, 1)})",
    ),
    "FamilySpec": (
        FamilySpec, {"name": "Y16", "dimension": 16, "builder": int, "substitution": "c -> 2c", "max_degree": 5},
        {"max_degree": 6},
        "FamilySpec(name='Y16', dimension=16, builder=<class 'int'>, substitution='c -> 2c', max_degree=5)",
    ),
    "VerdictResult": (
        VerdictResult,
        {"unbounded": True, "witness": "Y16", "polynomial": (F(1), F(-2)), "per_family": {"Y16": (F(1), F(-2))}},
        {"unbounded": False},
        "VerdictResult(unbounded=True, witness='Y16', polynomial=(Fraction(1, 1), Fraction(-2, 1)), "
        "per_family={'Y16': (Fraction(1, 1), Fraction(-2, 1))})",
    ),
    "DistinctnessResult": (
        DistinctnessResult, {"params": (1, 2, 3), "pair_separators": (Partition((2,)), None, Partition((1, 1)))},
        {"pair_separators": (None, None, None)},
        "DistinctnessResult(distinct=False, separators={(1, 2): (2,), (2, 3): (1, 1)}, collisions=((1, 3),))",
    ),
    "LineBundleSum": (
        LineBundleSum, {"base_dim": 3, "degrees": (1, 0, 0, 0)}, {"degrees": (2, 0, 0, 0)},
        "LineBundleSum(base_dim=3, degrees=(1, 0, 0, 0))",
    ),
}
UNHASHABLE = {"Functional", "VerdictResult"}  # a dict field


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, kwargs, changed, text = CASES[request.param]
    return request.param, cls, kwargs, changed, text


def test_repr(case):
    _, cls, kwargs, _, text = case
    assert repr(cls(*kwargs.values())) == text


def test_keyword_construction(case):
    _, cls, kwargs, _, text = case
    assert cls(**kwargs) == cls(*kwargs.values())
    assert repr(cls(**kwargs)) == text


def test_equality_and_hash(case):
    name, cls, kwargs, changed, _ = case
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert a != cls(**{**kwargs, **changed})
    assert a != tuple(kwargs.values())
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_fields_are_read_only(case):
    _, cls, kwargs, _, _ = case
    record = cls(**kwargs)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == repr(cls(**kwargs))


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_round_trips(case, round_trip):
    _, cls, kwargs, _, text = case
    record = cls(**kwargs)
    again = round_trip(record)
    assert type(again) is cls and again == record and repr(again) == text


def test_family_spec_defaults_and_builder_ignored_by_equality():
    spec = FamilySpec("Y16", 16, int)
    assert (spec.substitution, spec.max_degree) == ("c -> c", 7)
    other = FamilySpec("Y16", 16, lambda c: c)
    assert spec == other and hash(spec) == hash(other)


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S: a site-packages .pth file may import typing before ellcob runs
    code = "import ellcob.cli, sys; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
