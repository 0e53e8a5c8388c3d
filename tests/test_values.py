"""The package's value types: repr, equality, hashing, immutability, keyword
construction, and copy and pickle round trips."""

import copy
import pickle

import pytest

from entrogup.ansatz import AnsatzCoeffs, GenExpFit
from entrogup.cli import Report
from entrogup.entropy import ProbVector
from entrogup.gup import GupParams, PipelineReport, RegimeSummary
from entrogup.maxent import MaxEntSolution
from entrogup.series import TruncatedSeries
from entrogup.superstats import GammaBetaParams

COEFFS = AnsatzCoeffs((1.0, 0.25), kind="plus")
SERIES = TruncatedSeries((0.0, 0.5))

# class, positional arguments, the same arguments by keyword, the repr, and
# the arguments of an unequal instance
CASES = [
    (
        AnsatzCoeffs,
        ((1, 0.5), "tsallis", 1.5),
        {"a": [1.0, 0.5], "kind": "tsallis", "q": 1.5},
        "AnsatzCoeffs(a=(1.0, 0.5), kind='tsallis', q=1.5)",
        ((1.0, 0.5),),
    ),
    (
        GenExpFit,
        (COEFFS, 1e-9, "0:1:41"),
        {"coeffs": COEFFS, "residual": 1e-9, "grid": "0:1:41"},
        "GenExpFit(coeffs=AnsatzCoeffs(a=(1.0, 0.25), kind='plus', q=None), "
        "residual=1e-09, grid='0:1:41')",
        (COEFFS, 1e-9, "0:1:301"),
    ),
    (
        TruncatedSeries,
        ((1, 0.5),),
        {"coeffs": [1.0, 0.5]},
        "TruncatedSeries(coeffs=(1.0, 0.5))",
        ((1.0, 0.5, 0.0),),
    ),
    (
        ProbVector,
        ((0.25, 0.75),),
        {"probs": [0.25, 0.75]},
        "ProbVector(probs=(0.25, 0.75))",
        ((0.75, 0.25),),
    ),
    (
        GupParams,
        (0.36, 2.0),
        {"alpha0": 0.36, "m_pl": 2.0},
        "GupParams(alpha0=0.36, m_pl=2.0)",
        (0.36,),
    ),
    (
        RegimeSummary,
        (0.09, "minimal_length", 0.3, None),
        {"alpha": 0.09, "regime": "minimal_length", "minimal_length": 0.3,
         "max_momentum": None},
        "RegimeSummary(alpha=0.09, regime='minimal_length', minimal_length=0.3, "
        "max_momentum=None)",
        (0.0, "heisenberg", None, None),
    ),
    (
        PipelineReport,
        (COEFFS, SERIES, SERIES, SERIES, 0.5, 0.5, 0.0),
        {"coeffs": COEFFS, "hamiltonian": SERIES, "momentum": SERIES,
         "momentum_normalized": SERIES, "alpha0_pipeline": 0.5, "alpha0_closed": 0.5,
         "discrepancy": 0.0},
        "PipelineReport(coeffs=AnsatzCoeffs(a=(1.0, 0.25), kind='plus', q=None), "
        "hamiltonian=TruncatedSeries(coeffs=(0.0, 0.5)), "
        "momentum=TruncatedSeries(coeffs=(0.0, 0.5)), "
        "momentum_normalized=TruncatedSeries(coeffs=(0.0, 0.5)), "
        "alpha0_pipeline=0.5, alpha0_closed=0.5, discrepancy=0.0)",
        (COEFFS, SERIES, SERIES, SERIES, 0.5, 0.5, 1e-16),
    ),
    (
        MaxEntSolution,
        (1.0, 0.5, 1e-16),
        {"x": 1.0, "p": 0.5, "residual": 1e-16},
        "MaxEntSolution(x=1.0, p=0.5, residual=1e-16)",
        (1.0, 0.5, 0.0),
    ),
    (
        GammaBetaParams,
        (0.2, 1.0),
        {"p": 0.2, "beta0": 1.0},
        "GammaBetaParams(p=0.2, beta0=1.0)",
        (0.2, 2.0),
    ),
    (
        Report,
        ("fit", [("kind", "plus")], ["j"], [[0]]),
        {"command": "fit", "records": [("kind", "plus")], "columns": ["j"], "rows": [[0]]},
        "Report(command='fit', records=[('kind', 'plus')], columns=['j'], rows=[[0]])",
        ("fit",),
    ),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = [case for case in CASES if case[0] is not Report]


@pytest.mark.parametrize("cls, args, kwargs, text, other", CASES, ids=IDS)
def test_repr(cls, args, kwargs, text, other):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, args, kwargs, text, other", CASES, ids=IDS)
def test_equality_over_the_fields(cls, args, kwargs, text, other):
    value = cls(*args)
    assert value == cls(**kwargs)
    assert not value != cls(**kwargs)
    assert value != cls(*other)
    assert not value == cls(*other)


@pytest.mark.parametrize("cls, args, kwargs, text, other", FROZEN, ids=IDS[:-1])
def test_frozen_values_hash_by_their_fields(cls, args, kwargs, text, other):
    assert hash(cls(*args)) == hash(cls(**kwargs))
    assert len({cls(*args), cls(**kwargs), cls(*other)}) == 2


def test_report_is_unhashable():
    with pytest.raises(TypeError):
        hash(Report("fit"))


@pytest.mark.parametrize("cls, args, kwargs, text, other", CASES, ids=IDS)
def test_unequal_to_another_class(cls, args, kwargs, text, other):
    value = cls(*args)
    lookalike = type("Lookalike", (cls,), {})(*args)
    assert value != lookalike and lookalike != value
    fields = tuple(kwargs.values())
    assert value.__eq__(fields) is NotImplemented
    assert value != fields


@pytest.mark.parametrize("cls, args, kwargs, text, other", FROZEN, ids=IDS[:-1])
def test_frozen_values_refuse_assignment_and_deletion(cls, args, kwargs, text, other):
    value = cls(*args)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


def test_report_is_mutable_with_fresh_lists():
    first, second = Report("fit"), Report("fit")
    first.add("kind", "plus")
    first.command = "derive"
    assert first.records == [("kind", "plus")] and first.command == "derive"
    assert second.records == [] and second.columns == [] and second.rows == []
    assert first.columns is not second.columns and first.rows is not second.rows


@pytest.mark.parametrize("cls, args, kwargs, text, other", CASES, ids=IDS)
def test_copy_and_pickle_round_trips(cls, args, kwargs, text, other):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and repr(twin) == text


def test_fields_outside_equality():
    # ProbVector's array and GupParams' alpha stay out of repr, == and hash,
    # and neither is a constructor argument
    values = ProbVector.uniform(65)
    plain = copy.copy(values)
    plain.probs  # built from the array on first read, so read before it goes
    object.__setattr__(plain, "_array", None)
    assert values._array is not None
    assert values == plain and hash(values) == hash(plain)
    assert "_array" not in repr(values)
    with pytest.raises(TypeError):
        ProbVector(probs=(1.0,), _array=None)

    params = GupParams(0.36, m_pl=2.0)
    shifted = copy.copy(params)
    object.__setattr__(shifted, "alpha", 1.0)
    assert params == shifted and hash(params) == hash(shifted)
    assert "alpha=" not in repr(params)
    with pytest.raises(TypeError):
        GupParams(alpha0=0.36, alpha=0.36)
    # the derived fields survive copying and pickling, and the array stays
    # read-only (numpy's own unpickling returns a writeable one)
    assert copy.copy(params).alpha == pickle.loads(pickle.dumps(params)).alpha == 0.09
    twin = pickle.loads(pickle.dumps(values))
    assert (twin._array == values._array).all() and not twin._array.flags.writeable


def test_defaults():
    assert AnsatzCoeffs((1.0,)) == AnsatzCoeffs((1.0,), "custom", None)
    assert GupParams(0.36) == GupParams(0.36, 1.0)
