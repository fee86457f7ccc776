"""Interior schemes: coefficients, structural assumptions and the symbol.

A scheme here is an explicit one-step update using only the current point
and its ``r`` left neighbours,

    U_j^{n+1} = a_{-r} U_{j-r}^n + ... + a_{-1} U_{j-1}^n + a_0 U_j^n,

stored together with its CFL number ``lambda = a*dt/dx``. The coefficients
are real; all presets in scope are real-valued.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import DEFAULT_TOLS, Tolerances


@dataclass(frozen=True, eq=False)
class Scheme:
    """Totally upwind stencil ``(a_{-r}, ..., a_0)`` with its CFL number.

    ``a`` is stored in ascending index order, ``a[0] = a_{-r}`` through ``a[-1] = a_0``. Construction trims leading
    coefficients below ``DEFAULT_TOLS.trim_rel`` times the largest, so the non-degeneracy requirement on ``a_{-r}``
    holds by representation.
    """

    a: np.ndarray
    lam: float

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[float], lam: float) -> "Scheme":
        _check_cfl(lam)
        values = [float(value) for value in coefficients]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"scheme coefficients must be finite, got {values}")
        threshold = DEFAULT_TOLS.trim_rel * max(map(abs, values), default=0.0)
        first = next((i for i, value in enumerate(values) if abs(value) > threshold), None)
        if first is None:
            raise ValueError("a scheme needs a nonzero coefficient")
        if len(values) - first < 2:
            raise ValueError(f"at CFL {lam} the trimmed stencil is the single coefficient a_0; "
                             "a scheme needs at least two")
        return cls(np.array(values[first:]), float(lam))

    @property
    def r(self) -> int:
        return self.a.size - 1

    @property
    def a_lead(self) -> float:
        """Coefficient of the leftmost stencil point, ``a_{-r}``."""
        return float(self.a[0])

    @property
    def a_zero(self) -> float:
        """Coefficient of the current point, ``a_0``."""
        return float(self.a[-1])


def _check_cfl(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"the CFL number must be finite, got {lam}")
    if lam <= 0:
        raise ValueError("the CFL number must be positive")


def make_beam_warming(lam: float) -> Scheme:
    """Second-order upwind (Beam-Warming) scheme for advection at CFL ``lam``.

    At ``lam = 1`` the leftmost coefficient vanishes and the stencil trims
    to the one-cell shift ``(1, 0)``.
    """
    a_m2 = lam * (lam - 1.0) / 2.0
    a_m1 = lam * (2.0 - lam)
    a_0 = (lam - 1.0) * (lam - 2.0) / 2.0
    return Scheme.from_coefficients([a_m2, a_m1, a_0], lam)


PRESETS = {"beam-warming": make_beam_warming}


@functools.lru_cache(maxsize=8)
def _symbol_basis(r: int) -> np.ndarray:
    """``exp(i k xi)`` for ``k = -r..0``, one row per ``k``, at the 4096 uniform frequencies on ``[0, 2pi)`` that
    :func:`validate` samples; cached and shared, hence read-only."""
    xi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    basis = np.exp(1j * np.multiply.outer(np.arange(-r, 1), xi))
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the structural checks on a scheme.

    Flags are advisory: construction never refuses a scheme, the analyzer
    decides what to do with violations.
    """

    h0_nondegenerate: bool
    h2_cauchy_stable: bool
    h2_max_symbol_modulus: float
    h3_consistent: bool
    h3_residual_sum: float
    h3_residual_order1: float
    a0_interior: bool
    a0: float

    @property
    def all_pass(self) -> bool:
        return self.h0_nondegenerate and self.h2_cauchy_stable and self.h3_consistent and self.a0_interior


def validate(s: Scheme, tols: Tolerances = DEFAULT_TOLS) -> AssumptionReport:
    """Check non-degeneracy, Cauchy stability, consistency and ``|a_0| < 1``.

    Cauchy stability is checked by dense sampling of the symbol modulus on
    4096 uniform frequencies; the symbols in scope are trigonometric
    polynomials of tiny degree, so sampling is reliable.
    """
    h0 = abs(s.a_lead) > tols.trim_rel * float(np.maximum.reduce(np.abs(s.a)))

    # the symbol summed row by row in ascending k: elementwise on purpose, as a matrix-vector product runs on a
    # multithreaded BLAS, whose threads contend for the cores with the workers of a parallel sweep
    basis = _symbol_basis(s.r)
    symbol = basis[0] * s.a[0]
    for k in range(1, s.r + 1):
        symbol += basis[k] * s.a[k]
    max_mod = float(np.maximum.reduce(np.abs(symbol)))
    h2 = max_mod <= 1.0 + tols.cauchy_tol

    residual_sum = float(np.add.reduce(s.a) - 1.0)
    residual_order1 = float(np.dot(np.arange(-s.r, 1), s.a) + s.lam)
    h3 = abs(residual_sum) <= tols.consistency_tol and abs(residual_order1) <= tols.consistency_tol

    a0 = s.a_zero
    return AssumptionReport(h0_nondegenerate=bool(h0), h2_cauchy_stable=bool(h2), h2_max_symbol_modulus=max_mod,
                            h3_consistent=bool(h3), h3_residual_sum=residual_sum, h3_residual_order1=residual_order1,
                            a0_interior=bool(abs(a0) < 1.0), a0=a0)

