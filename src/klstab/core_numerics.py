"""Complex polynomials: evaluation, root finding and root clustering.

Degrees in this package stay in the single digits (stencil widths and
boundary orders), so dense coefficient arrays, companion-matrix eigenvalues
and quadratic-cost clustering are reliable and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DegenerateLeadingCoefficient


@dataclass(frozen=True, eq=False)
class ComplexPolynomial:
    """Dense complex polynomial, coefficients in ascending power order."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __call__(self, z):
        """Horner evaluation; accepts scalars or arrays."""
        if np.isscalar(z):
            acc = 0j
            for c in self.coeffs[::-1]:
                acc = acc * z + c
            return acc
        zarr = np.asarray(z, dtype=complex)
        acc = np.zeros_like(zarr)
        for c in self.coeffs[::-1]:
            acc = acc * zarr + c
        return acc

    def derivative(self) -> "ComplexPolynomial":
        if self.coeffs.size <= 1:
            return ComplexPolynomial(np.zeros(0, dtype=complex))
        return ComplexPolynomial(self.coeffs[1:] * np.arange(1, self.coeffs.size))


@dataclass(frozen=True)
class RootSet:
    """Clustered roots with multiplicities; multiplicities sum to the degree."""

    roots: Tuple[Tuple[complex, int], ...]

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.roots], dtype=complex)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([m for _, m in self.roots], dtype=int)

    @property
    def total_multiplicity(self) -> int:
        return int(sum(m for _, m in self.roots))

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)


def _newton_refine(coeffs: np.ndarray, roots: np.ndarray, passes: int = 2) -> np.ndarray:
    """Polish companion-matrix roots; keep a step only when it reduces |p|."""
    p = ComplexPolynomial(coeffs)
    dp = p.derivative()
    for _ in range(passes):
        pv = p(roots)
        dv = dp(roots)
        safe = np.abs(dv) > 1e-300
        step = np.where(safe, pv / np.where(safe, dv, 1.0), 0.0)
        candidate = roots - step
        better = np.abs(p(candidate)) <= np.abs(pv)
        roots = np.where(better, candidate, roots)
    return roots


def _cluster(values: np.ndarray, radius: float) -> Tuple[Tuple[complex, int], ...]:
    """Merge values pairwise closer than ``radius`` (transitively, union-find)."""
    n = values.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    clusters: dict[int, list[complex]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(values[i])
    merged = [(complex(np.mean(members)), len(members)) for members in clusters.values()]
    merged.sort(key=lambda item: (item[0].real, item[0].imag))
    return tuple(merged)


def poly_roots(
    p,
    cluster_radius: float = DEFAULT_TOLS.cluster_radius,
    trim_rel: float = DEFAULT_TOLS.trim_rel,
) -> RootSet:
    """All complex roots of ``p``, clustered into representatives with multiplicity.

    ``p`` may be a :class:`ComplexPolynomial` or a raw ascending coefficient
    sequence. Raw input with a negligible leading coefficient is rejected so
    the caller trims deliberately instead of silently losing a root.
    """
    if isinstance(p, ComplexPolynomial):
        coeffs = p.coeffs
    else:
        coeffs = np.atleast_1d(np.asarray(p, dtype=complex))
        if coeffs.size:
            scale = float(np.max(np.abs(coeffs)))
            if scale == 0.0 or abs(coeffs[-1]) <= trim_rel * scale:
                raise DegenerateLeadingCoefficient(
                    "leading coefficient is below the trim tolerance; trim the polynomial first"
                )
    if coeffs.size < 2:
        raise ValueError("root finding requires degree >= 1")

    raw = np.roots(coeffs[::-1])
    raw = _newton_refine(coeffs, raw)
    return RootSet(_cluster(raw, cluster_radius))
