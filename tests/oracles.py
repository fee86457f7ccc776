"""Reference routes the tests check klstab against; not part of the package."""

import numpy as np

from klstab.boundary import BoundaryCondition, assemble_B
from klstab.config import DEFAULT_TOLS, Tolerances
from klstab.kl import ReducedBoundary, k_matrix, kl_det_stack, stable_roots, upwind_blocks
from klstab.scheme import Scheme, _fourier_basis, _symbol_from_basis
from klstab.simulator import SolutionField, _data_table
from klstab.winding import DEFAULT_POLICY, kl_curve_evaluator, sample_kl_curve, winding_number


def symbol(s: Scheme, xi):
    """Amplification symbol ``sum_k a_k exp(i k xi)``; accepts arrays."""
    xi_arr = np.asarray(xi, dtype=float)
    values = _symbol_from_basis(_fourier_basis(xi_arr, s.r), s.a)
    if np.isscalar(xi) or xi_arr.ndim == 0:
        return complex(values)
    return values


def upwind_block(s: Scheme, bc: BoundaryCondition) -> np.ndarray:
    """Closed top-left ``m x m`` block ``A`` of the half-line update matrix of one pair."""
    return upwind_blocks(s.a[None], bc.b[None])[0]


def kl_det_direct(s: Scheme, bc: BoundaryCondition, z: complex, tols: Tolerances = DEFAULT_TOLS) -> complex:
    """Intrinsic determinant from the defining formula.

    Dividing the raw determinant by the mode matrix of lines ``0 .. r-1``
    removes the basis dependence. Root clustering makes this route
    ill-conditioned near multiple roots; it serves as the independent oracle
    for :func:`kl_det_explicit`.
    """
    roots = stable_roots(s, z, tols)
    K_all = k_matrix(roots, -s.r, bc.m - 1)
    K_norm = k_matrix(roots, 0, s.r - 1)
    numerator = complex(np.linalg.det(assemble_B(bc) @ K_all))
    denominator = complex(np.linalg.det(K_norm))
    return numerator / denominator


def kl_det_explicit(rb: ReducedBoundary, s: Scheme, z):
    """Intrinsic determinant via the explicit rational formula, as the winding route evaluates it."""
    zs = np.asarray(z, dtype=complex)
    value = kl_det_stack(rb.det_c.coeffs, s.a_lead, s.a_zero, rb.r, zs.ravel()).reshape(zs.shape)
    return complex(value) if np.isscalar(z) else value


def winding_count(s, rb, n0=1024, policy=DEFAULT_POLICY):
    """Exterior zero count by winding: minus the index of the normalized curve, as in ``analyze``."""
    curve = sample_kl_curve(s, rb, n0=n0, normalize=True)
    return -winding_number(curve, policy, evaluator=kl_curve_evaluator(s, rb, normalize=True)).index


def full_width_march_group(s, rows, J, n_steps, m, blowup_threshold, keep_history):
    """``simulator._march_group`` before the causal prefix: every cell of each row-major row, every step."""
    r, count = s.r, len(rows)
    U = np.zeros((count, J + r))
    for i, (_, _, run) in enumerate(rows):
        U[i, r:] = 0.0 if run.f is None else run.f
    V, term = np.empty_like(U), np.empty(U.size - r)
    B, ghosts = np.stack([bc.b for _, bc, _ in rows]), np.empty((count, r, 1))
    G, fallbacks = _data_table(rows, r, n_steps)
    ids, amplitudes = np.arange(count), np.empty((n_steps + 1, count))
    recorded = [[] for _ in rows]
    peaks, blowup_steps = [0.0] * count, [None] * count
    for n in range(n_steps + 1):
        np.matmul(B, U[:, r : r + m, None], out=ghosts)
        np.add(ghosts[:, :, 0], G[n], out=U[:, :r])
        amplitude = np.abs(U, out=V).max(axis=1, out=amplitudes[n])
        if keep_history:
            for i, row in enumerate(ids):
                recorded[row].append((n, U[i].copy()))
        if n == n_steps or not amplitude.max() <= blowup_threshold:
            amplitude[np.isnan(amplitude)] = np.inf
            done = (amplitude > blowup_threshold) | (n == n_steps)
            for i in np.flatnonzero(done):
                if not keep_history:
                    recorded[ids[i]].append((n, U[i].copy()))
                peaks[ids[i]] = float(amplitudes[: n + 1, i].max())
                blowup_steps[ids[i]] = n if amplitude[i] > blowup_threshold else None
            if done.all():
                break
            U, V, B, G, ghosts = U[~done], V[~done], B[~done], G[:, ~done], ghosts[~done]
            ids, amplitudes, term = ids[~done], amplitudes[:, ~done], term[: U.size - r]
        u, v = U.reshape(-1), V.reshape(-1)
        interior = v[r:]
        np.add(0.0, np.multiply(s.a[0], u[:-r], out=term), out=interior)
        for k in range(1, r + 1):
            np.add(interior, np.multiply(s.a[k], u[k : k + term.size], out=term), out=interior)
        U, V = V, U
    return [
        SolutionField(
            np.asarray([u for _, u in record]), np.asarray([n * run.dt for n, _ in record]),
            np.arange(-r, J) * run.dx, peak, step, fd,
        )
        for (_, _, run), record, peak, step, fd in zip(rows, recorded, peaks, blowup_steps, fallbacks)
    ]
