from dataclasses import fields, replace

import pytest

from klstab.config import DEFAULT_TOLS, Tolerances


def test_defaults_validate():
    assert Tolerances() == DEFAULT_TOLS  # the defaults pass the checks of construction
    # the five tolerances the CLI sets by flag; the winding walk's settings are constants of winding
    assert [f.name for f in fields(Tolerances)] == ["cluster_radius", "unit_circle_tol", "origin_tol", "kernel_tol",
                                                    "cauchy_tol"]


@pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
@pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
def test_validate_refuses_a_value_that_is_not_positive_and_finite(name, value):
    # construction refuses the value, so no tolerances object holds one
    with pytest.raises(ValueError, match=f"^tolerance {name} must be positive and finite, got {value}$"):
        replace(DEFAULT_TOLS, **{name: value})
