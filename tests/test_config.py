from dataclasses import fields, replace

import pytest

from klstab.config import DEFAULT_TOLS, Tolerances


def test_defaults_validate():
    DEFAULT_TOLS.validate()
    # the five tolerances the CLI sets by flag; the winding walk's settings are constants of winding
    assert [f.name for f in fields(Tolerances)] == ["cluster_radius", "unit_circle_tol", "origin_tol", "kernel_tol",
                                                    "cauchy_tol"]


@pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
@pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
def test_validate_refuses_a_value_that_is_not_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"^tolerance {name} must be positive and finite"):
        replace(DEFAULT_TOLS, **{name: value}).validate()
