"""Complex polynomials: evaluation, root finding and root clustering.

Degrees in this package stay in the single digits (stencil widths and boundary orders), so dense coefficient arrays,
companion-matrix eigenvalues and quadratic-cost clustering are reliable and cheap.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .config import DEFAULT_TOLS
from .errors import DegenerateLeadingCoefficient


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
    n = values.shape[1]
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    # a row of finite values has n gaps of 0, its own; all the others must clear the radius
    apart = np.add.reduce(gaps > radius * (1.0 + _CLUSTER_MARGIN), axis=(1, 2)) == n * (n - 1)
    imag = values.imag
    plain = np.isfinite(values) & (values.real != 0.0) & ((imag != 0.0) | ~np.signbit(imag))
    simple = (apart & np.logical_and.reduce(plain, axis=1)).tolist()
    order = np.lexsort((imag, values.real), axis=-1)
    ordered = values[np.arange(values.shape[0])[:, None], order].astype(complex).tolist()
    return [tuple((value, 1) for value in row) if single else _union_find(values[i], radius)
            for i, (row, single) in enumerate(zip(ordered, simple))]


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


def poly_roots(coeffs, cluster_radius: float = DEFAULT_TOLS.cluster_radius,
               trim_rel: float = DEFAULT_TOLS.trim_rel) -> Tuple[Tuple[complex, int], ...]:
    """All complex roots of the polynomial with ascending coefficients ``coeffs``, as ``(value, multiplicity)``
    pairs of clustered representatives whose multiplicities sum to the degree.

    A negligible leading coefficient is rejected so the caller trims deliberately instead of silently losing a root.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
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
    return _cluster(raw[None], cluster_radius)[0]
