"""Numerical boundary conditions for the left (inflow) edge.

A boundary condition fills the ``r`` ghost values from the first ``m``
interior values plus data terms,

    U_j^n = sum_{k=0}^{m-1} b_{j,k} U_k^n + g_j^n,   j = -r, ..., -1,

and is carried around as the real matrix ``b`` together with a plan for the
data terms ``g_j^n`` (which only the time-domain simulator consumes). The
assembled matrix ``B = [I_r | -b]`` is what the determinant pipeline uses.

Two constructions are provided: the simplified inverse Lax-Wendroff family
(ghost values from a few exact boundary-data derivatives plus extrapolation
from interior points, including a fractional grid offset ``sigma``) and raw
user matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidOrder

# Per ghost row: tuple of (derivative order k, dimensionless weight w).
# The simulator turns each entry into w * (dx/a)**k * g^{(k)}(t).
GhostDataPlan = Tuple[Tuple[Tuple[int, float], ...], ...]


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """Extrapolation matrix ``b`` plus the data-term plan for the simulator.

    ``b`` has shape ``(r, m)``: row ``i`` belongs to ghost index ``j = -r + i``;
    columns are the interior points ``0 .. m-1``.
    """

    b: np.ndarray
    g_plan: GhostDataPlan
    sigma: Optional[float] = None

    def __post_init__(self):
        arr = np.array(self.b, dtype=float)  # a copy
        arr.setflags(write=False)
        object.__setattr__(self, "b", arr)
        if arr.ndim != 2 or len(self.g_plan) != len(arr):
            raise ValueError(f"b must be 2-D with one g_plan entry a row, got shape {arr.shape} and {len(self.g_plan)}")
        if not np.isfinite(arr).all():
            raise ValueError(f"b must be finite, got {arr.tolist()}")

    @property
    def r(self) -> int:
        return self.b.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    def restricted_to(self, new_r: int) -> "BoundaryCondition":
        """Fit to a scheme with ``new_r`` ghost points: keep rows ``-new_r .. -1``, never add any."""
        if new_r == self.r:
            return self
        if not 1 <= new_r < self.r:
            raise ValueError(f"boundary condition has {self.r} ghost rows, scheme needs {new_r}")
        drop = self.r - new_r
        return BoundaryCondition(b=self.b[drop:], g_plan=self.g_plan[drop:], sigma=self.sigma)


def silw_condition(r: int, k_d: int, d: int, sigma: float = 0.0) -> BoundaryCondition:
    """Simplified inverse Lax-Wendroff boundary of order ``d``.

    The ghost value at index ``j`` uses the exact boundary-data derivatives
    of orders ``0 .. k_d - 1`` and an extrapolation from the ``m = d`` first
    interior values for the remaining orders ``k_d .. d - 1``. With a grid
    offset ``sigma`` the expansion point shifts, replacing ``j`` by
    ``j + sigma`` in all weights:

        b[j, s] = sum_{k = max(k_d, s)}^{d-1} (j+sigma)^k / k! * C(k, s) * (-1)^(k-s)

    ``k_d = d`` leaves no extrapolation term, so ``b`` is the zero matrix. The result is immutable and shared: every
    call with equal arguments of the same types, and a zero ``sigma`` of the same sign, returns the same object.
    """
    if d < 1 or k_d > d:
        raise InvalidOrder(f"need 0 <= k_d <= d and d >= 1, got k_d={k_d}, d={d}")
    if k_d < 0:
        raise InvalidOrder(f"k_d must be nonnegative, got {k_d}")
    if r < 1:
        raise ValueError(f"need at least one ghost point, got r={r}")
    if not -0.5 <= sigma < 0.5:
        raise ValueError(f"sigma must lie in [-1/2, 1/2), got {sigma}")
    return _silw_condition(r, k_d, d, sigma, math.copysign(1.0, sigma))


@functools.lru_cache(maxsize=1024, typed=True)
def _silw_condition(r: int, k_d: int, d: int, sigma: float, sign: float) -> BoundaryCondition:
    """:func:`silw_condition` of checked arguments; ``sign``, that of ``sigma``, keeps 0.0 and -0.0 apart."""
    m = d
    b = np.zeros((r, m))
    plan = []
    for i in range(r):
        j = i - r
        base = j + sigma
        for s in range(m):
            acc = 0.0
            for k in range(max(k_d, s), d):
                acc += base**k / math.factorial(k) * math.comb(k, s) * (-1.0) ** (k - s)
            b[i, s] = acc
        plan.append(tuple((k, (-base) ** k / math.factorial(k)) for k in range(k_d)))

    return BoundaryCondition(b=b, g_plan=tuple(plan), sigma=float(sigma))


def custom_condition(b_matrix) -> BoundaryCondition:
    """Wrap a raw extrapolation matrix; no consistency order is checked.

    The data plan feeds the plain boundary trace ``g(t)`` to every ghost row.
    """
    arr = np.asarray(b_matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError("custom boundary matrix must be two-dimensional")
    return BoundaryCondition(b=arr, g_plan=tuple(((0, 1.0),) for _ in arr))


def assemble_B(bc: BoundaryCondition) -> np.ndarray:
    """Assembled boundary matrix ``[I_r | -b]`` of shape (r, r + m)."""
    return np.hstack([np.eye(bc.r), -bc.b])

