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
from typing import Iterable, Tuple

import numpy as np

from .config import DEFAULT_TOLS, Tolerances


@dataclass(frozen=True, eq=False)
class Scheme:
    """Totally upwind stencil ``(a_{-r}, ..., a_0)`` with its CFL number.

    ``a`` is stored in ascending index order, ``a[0] = a_{-r}`` through
    ``a[-1] = a_0``. Construction trims leading near-zero coefficients so the
    non-degeneracy requirement on ``a_{-r}`` holds by representation.
    """

    a: np.ndarray
    lam: float

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @classmethod
    def from_coefficients(
        cls, coefficients: Iterable[float], lam: float, trim_rel: float = DEFAULT_TOLS.trim_rel
    ) -> "Scheme":
        _check_cfl(lam)
        arr = np.asarray(list(coefficients), dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"scheme coefficients must be finite, got {arr.tolist()}")
        kept = np.flatnonzero(np.abs(arr) > trim_rel * np.max(np.abs(arr), initial=0.0))
        if kept.size == 0:
            raise ValueError("a scheme needs a nonzero coefficient")
        if arr.size - kept[0] < 2:
            raise ValueError(f"at CFL {lam} the trimmed stencil is the single coefficient a_0; "
                             "a scheme needs at least two")
        return cls(arr[kept[0]:].copy(), float(lam))

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


def make_beam_warming(lam: float, trim_rel: float = DEFAULT_TOLS.trim_rel) -> Scheme:
    """Second-order upwind (Beam-Warming) scheme for advection at CFL ``lam``.

    At ``lam = 1`` the leftmost coefficient vanishes and the stencil trims
    to the one-cell shift ``(1, 0)``.
    """
    _check_cfl(lam)
    a_m2 = lam * (lam - 1.0) / 2.0
    a_m1 = lam * (2.0 - lam)
    a_0 = (lam - 1.0) * (lam - 2.0) / 2.0
    return Scheme.from_coefficients([a_m2, a_m1, a_0], lam, trim_rel)


PRESETS = {"beam-warming": make_beam_warming}


def scheme_from_descriptor(descriptor: dict, trim_rel: float = DEFAULT_TOLS.trim_rel) -> Scheme:
    """Build a scheme from a JSON-style descriptor.

    Either ``{"preset": "beam-warming", "lambda": 1.4}`` or
    ``{"coefficients": [a_-r, ..., a_0], "lambda": 1.4}``.
    """
    lam = descriptor.get("lambda")
    if lam is None:
        raise ValueError("scheme descriptor needs a 'lambda' entry")
    if "preset" in descriptor:
        name = descriptor["preset"]
        if name not in PRESETS:
            raise ValueError(f"unknown scheme preset {name!r}; available: {sorted(PRESETS)}")
        return PRESETS[name](float(lam), trim_rel)
    if "coefficients" in descriptor:
        return Scheme.from_coefficients(descriptor["coefficients"], float(lam), trim_rel)
    raise ValueError("scheme descriptor needs 'preset' or 'coefficients'")


def _fourier_basis(xi: np.ndarray, r: int) -> np.ndarray:
    """``exp(i k xi)`` for ``k = -r..0``, one row per ``k``."""
    return np.exp(1j * np.multiply.outer(np.arange(-r, 1), xi))


def _symbol_from_basis(basis: np.ndarray, a: np.ndarray):
    """``sum_k a_k basis[k]``, summed row by row in ascending ``k``.

    Every symbol evaluation goes through here, so a cached basis and a basis
    built per call give bit-identical values. It is elementwise on purpose:
    a matrix-vector product runs on a multithreaded BLAS, whose threads
    contend for the cores with the workers of a parallel sweep.
    """
    values = basis[0] * a[0]
    for k in range(1, a.size):
        values += basis[k] * a[k]
    return values


@functools.lru_cache(maxsize=8)
def symbol_basis(n: int, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``n`` uniform frequencies on ``[0, 2pi)`` and their Fourier basis for width ``r``.

    ``_symbol_from_basis(basis, s.a)`` is the amplification symbol
    ``sum_k a_k exp(i k xi)`` of any scheme of width ``r``, bit for bit as
    from a basis built per call. Both arrays are cached and shared, hence
    read-only.
    """
    xi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    basis = _fourier_basis(xi, r)
    xi.setflags(write=False)
    basis.setflags(write=False)
    return xi, basis


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


def validate(s: Scheme, n_xi: int = 4096, tols: Tolerances = DEFAULT_TOLS) -> AssumptionReport:
    """Check non-degeneracy, Cauchy stability, consistency and ``|a_0| < 1``.

    Cauchy stability is checked by dense sampling of the symbol modulus on
    ``n_xi`` uniform frequencies; the symbols in scope are trigonometric
    polynomials of tiny degree, so sampling is reliable.
    """
    if n_xi < 64:
        raise ValueError("n_xi must be at least 64")
    h0 = abs(s.a_lead) > tols.trim_rel * float(np.max(np.abs(s.a)))

    _, basis = symbol_basis(n_xi, s.r)
    max_mod = float(np.max(np.abs(_symbol_from_basis(basis, s.a))))
    h2 = max_mod <= 1.0 + tols.cauchy_tol

    ks = np.arange(-s.r, 1)
    residual_sum = float(np.sum(s.a) - 1.0)
    residual_order1 = float(np.dot(ks, s.a) + s.lam)
    h3 = abs(residual_sum) <= tols.consistency_tol and abs(residual_order1) <= tols.consistency_tol

    a0 = s.a_zero
    return AssumptionReport(
        h0_nondegenerate=bool(h0),
        h2_cauchy_stable=bool(h2),
        h2_max_symbol_modulus=max_mod,
        h3_consistent=bool(h3),
        h3_residual_sum=residual_sum,
        h3_residual_order1=residual_order1,
        a0_interior=bool(abs(a0) < 1.0),
        a0=a0,
    )


@dataclass(frozen=True, eq=False)
class CurveSamples:
    """Ordered closed polygonal sampling of a complex curve."""

    params: np.ndarray
    points: np.ndarray
    closed: bool

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        points = np.asarray(self.points, dtype=complex)
        if params.shape != points.shape:
            raise ValueError("params and points must have the same length")
        if params.size and np.any(np.diff(params) <= 0):
            raise ValueError("params must be strictly increasing")
        if self.closed and params.size and abs(points[0] - points[-1]) > 1e-12 * max(
            1.0, float(np.max(np.abs(points)))
        ):
            raise ValueError("closed curve must end where it starts")
        params.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)
