"""The contract of the package's immutable value objects.

Each case builds one instance twice, once positionally and once by
keyword with every default left out, and names its exact ``repr``.
Equality and hashing follow the field tuple, but an instance equals
only an instance of the same class; no field can be assigned or
deleted; pickling rebuilds an equal instance.
"""

import pickle
import re
from fractions import Fraction

import pytest

from noninv import (
    BoundReport,
    ChainSpec,
    EnumerationBudget,
    EstimateReport,
    FiniteFunction,
    InvalidSizeError,
    OutOfRangeImageError,
    SamplerConfig,
    VerificationReport,
)

# class, field values in order, keyword arguments (defaults omitted), repr
CASES = [
    (FiniteFunction, (3, 2, (0, 1, 1)),
     dict(domain_size=3, codomain_size=2, images=(0, 1, 1)),
     "FiniteFunction(domain_size=3, codomain_size=2, images=(0, 1, 1))"),
    (ChainSpec, ((2, 3),), dict(sizes=(2, 3)),
     "ChainSpec(sizes=(2, 3))"),
    (EnumerationBudget, (10**6,), dict(),
     "EnumerationBudget(max_states=1000000)"),
    (VerificationReport,
     ({"n": 2}, Fraction(3, 2), Fraction(3, 2), True),
     dict(parameters={"n": 2}, oracle_value=Fraction(3, 2),
          closed_value=Fraction(3, 2), match=True),
     "VerificationReport(parameters={'n': 2}, "
     "oracle_value=Fraction(3, 2), closed_value=Fraction(3, 2), "
     "match=True)"),
    (BoundReport,
     (Fraction(5, 3), Fraction(2), (Fraction(4), Fraction(9, 2)), True,
      True),
     dict(deg_composition=Fraction(5, 3), new_bound=Fraction(2),
          old_bound_squared_scaled=(Fraction(4), Fraction(9, 2)),
          new_holds=True, chain_holds=True),
     "BoundReport(deg_composition=Fraction(5, 3), "
     "new_bound=Fraction(2, 1), "
     "old_bound_squared_scaled=(Fraction(4, 1), Fraction(9, 2)), "
     "new_holds=True, chain_holds=True)"),
    (SamplerConfig, (7, 100, None), dict(seed=7, samples=100),
     "SamplerConfig(seed=7, samples=100, sizes=None)"),
    (EstimateReport, (1.5, 0.25, Fraction(3, 2), 0.0, 100, 7, None),
     dict(mean=1.5, std_error=0.25, closed_form=Fraction(3, 2),
          z_score=0.0, samples=100, seed=7),
     "EstimateReport(mean=1.5, std_error=0.25, "
     "closed_form=Fraction(3, 2), z_score=0.0, samples=100, seed=7, "
     "theta_ratio=None)"),
]

FIELDS = {
    FiniteFunction: ("domain_size", "codomain_size", "images"),
    ChainSpec: ("sizes",),
    EnumerationBudget: ("max_states",),
    VerificationReport: ("parameters", "oracle_value", "closed_value",
                         "match"),
    BoundReport: ("deg_composition", "new_bound", "old_bound_squared_scaled",
                  "new_holds", "chain_holds"),
    SamplerConfig: ("seed", "samples", "sizes"),
    EstimateReport: ("mean", "std_error", "closed_form", "z_score",
                     "samples", "seed", "theta_ratio"),
}


@pytest.mark.parametrize("cls,values,kwargs,text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_object_contract(cls, values, kwargs, text):
    first, second = cls(*values), cls(**kwargs)
    names = FIELDS[cls]
    assert tuple(getattr(first, name) for name in names) == values
    assert repr(first) == repr(second) == text

    assert first == second and not first != second
    if cls is VerificationReport:
        # the dict field is stored read-only, and hashes as its items;
        # the field tuple holds a dict, so it has no hash
        assert hash(first) == hash(second)
    else:
        assert hash(first) == hash(second) == hash(values)
    assert first != values and values != first
    other = next(case for case in CASES if case[0] is not cls)
    assert first != other[0](*other[1])

    for name in names:
        with pytest.raises(AttributeError):
            setattr(first, name, getattr(first, name))
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert repr(first) == text

    copy = pickle.loads(pickle.dumps(first))
    assert type(copy) is cls and copy == first and repr(copy) == text


@pytest.mark.parametrize("build,error,message", [
    (lambda: ChainSpec((1,)), InvalidSizeError,
     "a chain needs at least 2 set sizes, got 1"),
    (lambda: EnumerationBudget(0), InvalidSizeError,
     "budget must be >= 1, got 0"),
    (lambda: SamplerConfig(seed=-1, samples=1), InvalidSizeError,
     "seed must be a 64-bit unsigned integer, got -1"),
    (lambda: FiniteFunction(3, 2, (0, 2, 1)), OutOfRangeImageError,
     "image of 1 is 2, outside [0, 2)"),
], ids=["ChainSpec", "EnumerationBudget", "SamplerConfig", "FiniteFunction"])
def test_value_object_validation(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_verification_parameters_are_read_only():
    params = {"n": 2}
    report = VerificationReport(params, Fraction(1), Fraction(1), True)
    params["n"] = 3
    assert report.parameters == {"n": 2}
    with pytest.raises(TypeError):
        report.parameters["n"] = 5
    with pytest.raises(AttributeError):
        report.parameters.update(n=5)
    assert hash(report) == hash(
        VerificationReport({"n": 2}, Fraction(1), Fraction(1), True)
    )
