from dataclasses import fields, replace

import pytest

from klstab.config import DEFAULT_TOLS, Tolerances


def test_defaults_validate():
    DEFAULT_TOLS.validate()
    assert {f.name for f in fields(Tolerances)} >= {"max_evaluations", "angle_threshold", "proximity_factor",
                                                    "integer_tol"}


@pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
@pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
def test_validate_refuses_a_value_that_is_not_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"^tolerance {name} must be positive and finite"):
        replace(DEFAULT_TOLS, **{name: value}).validate()
