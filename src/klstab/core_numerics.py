"""Complex polynomials: evaluation, root finding and root clustering.

Degrees in this package stay in the single digits (stencil widths and boundary orders), so dense coefficient arrays,
companion-matrix eigenvalues and quadratic-cost clustering are reliable and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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
        return _horner(self.coeffs, np.asarray(z, dtype=complex))

    def derivative(self) -> "ComplexPolynomial":
        if self.coeffs.size <= 1:
            return ComplexPolynomial(np.zeros(0, dtype=complex))
        return ComplexPolynomial(self.coeffs[1:] * np.arange(1, self.coeffs.size))


@dataclass(frozen=True)
class RootSet:
    """Clustered roots with multiplicities; multiplicities sum to the degree."""

    roots: Tuple[Tuple[complex, int], ...]

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomial with ascending ``coeffs`` at the complex array ``z``, by Horner's rule from a zero sum."""
    acc = np.zeros_like(z)
    for c in coeffs[::-1].tolist():
        acc = acc * z + c
    return acc


def _newton_refine(coeffs: np.ndarray, roots: np.ndarray, passes: int = 2) -> np.ndarray:
    """Polish companion-matrix roots; keep a step only when it reduces |p|."""
    coeffs, roots = np.asarray(coeffs, dtype=complex), np.asarray(roots, dtype=complex)
    derivative = coeffs[1:] * np.arange(1, coeffs.size)
    for _ in range(passes):
        pv = _horner(coeffs, roots)
        dv = _horner(derivative, roots)
        safe = np.abs(dv) > 1e-300
        step = np.where(safe, pv / np.where(safe, dv, 1.0), 0.0)
        candidate = roots - step
        better = np.abs(_horner(coeffs, candidate)) <= np.abs(pv)
        roots = np.where(better, candidate, roots)
    return roots


# Relative margin by which the pairs of a row must clear the cluster radius for the vectorized
# path: numpy's stacked modulus may differ from the scalar one in the last bit.
_CLUSTER_MARGIN = 1e-9


def _cluster(values: np.ndarray, radius: float) -> List[Tuple[Tuple[complex, int], ...]]:
    """Each row of ``values`` as ``(mean, multiplicity)`` pairs of its values closer than ``radius``,
    sorted by real, then imaginary part. Rows of finite values whose pairs all clear the radius are
    singletons, sorted in one vectorized pass, when no real part is 0 and no imaginary part -0.0
    (the mean of one member would change a zero's sign); the others go through union-find."""
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    apart = (gaps > radius * (1.0 + _CLUSTER_MARGIN)) | np.eye(values.shape[1], dtype=bool)
    imag = values.imag
    plain = np.isfinite(values) & (values.real != 0.0) & ((imag != 0.0) | ~np.signbit(imag))
    simple = np.logical_and.reduce(apart, axis=(1, 2)) & np.logical_and.reduce(plain, axis=1)
    order = np.lexsort((imag, values.real), axis=-1)
    ordered = values[np.arange(values.shape[0])[:, None], order].astype(complex).tolist()
    return [
        tuple((value, 1) for value in ordered[i]) if simple[i] else _union_find(values[i], radius)
        for i in range(values.shape[0])
    ]


def _union_find(values: np.ndarray, radius: float) -> Tuple[Tuple[complex, int], ...]:
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


def poly_roots(p, cluster_radius: float = DEFAULT_TOLS.cluster_radius,
               trim_rel: float = DEFAULT_TOLS.trim_rel) -> RootSet:
    """All complex roots of ``p``, clustered into representatives with multiplicity.

    ``p`` may be a :class:`ComplexPolynomial` or a raw ascending coefficient sequence. Raw input with a negligible
    leading coefficient is rejected so the caller trims deliberately instead of silently losing a root.
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
    return RootSet(_cluster(raw[None], cluster_radius)[0])
