"""Reference routes the tests check klstab against; not part of the package."""

import functools

import numpy as np

from klstab import simulator
from klstab.boundary import BoundaryCondition, assemble_B
from klstab.config import DEFAULT_TOLS, TRIM_REL, Tolerances
from klstab.kl import ReducedBoundary, k_matrix, kl_det_stack, parity, reduce_boundary, stable_roots, upwind_blocks
from klstab.scheme import Scheme
from klstab.simulator import SolutionField
from klstab.winding import sample_kl_curve, winding_number


def poly_at(coeffs, z):
    """The polynomial with ascending coefficients ``coeffs`` at the scalar or array ``z``, by Horner's rule."""
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], np.asarray(z, dtype=complex))


def ghost_row(bc: BoundaryCondition, j: int) -> np.ndarray:
    """Extrapolation coefficients of ``bc`` for ghost index ``j`` in ``-r .. -1``."""
    if not -bc.r <= j <= -1:
        raise ValueError(f"ghost index {j} outside -r..-1")
    return bc.b[j + bc.r]


def kl_det_stack_by_power(coeffs: np.ndarray, a_lead, a_zero, r: int, z: np.ndarray) -> np.ndarray:
    """``kl.kl_det_stack`` raising the prefactor to the power ``m - r`` for every ``m - r``, 1 included."""
    m = coeffs.shape[-1] - 1
    acc = 0j
    for k in range(m, -1, -1):
        acc = np.multiply(acc, z) + coeffs[..., k, None]
    prefactor = (np.asarray(a_lead)[..., None] / (np.asarray(a_zero)[..., None] - z)) ** (m - r)
    return np.multiply(parity(r, m) * acc, prefactor)


def kl_curve_evaluator(s: Scheme, rb: ReducedBoundary, normalize: bool = True):
    """Parameter-to-point map for the determinant curve on the unit circle; vectorized. With ``normalize`` the
    determinant is divided by ``z**r``, which shifts the winding index so that the exterior zero count is simply its
    negative."""

    def evaluate(theta):
        z = np.exp(1j * np.asarray(theta, dtype=float))
        value = kl_det_stack(rb.det_c, s.a_lead, s.a_zero, rb.r, z)
        return value / z**rb.r if normalize else value

    return evaluate


def symbol(s: Scheme, xi):
    """Amplification symbol ``sum_k a_k exp(i k xi)``, summed term by term in ascending ``k``; accepts arrays."""
    xi_arr = np.asarray(xi, dtype=float)
    terms = [np.exp(1j * (k * xi_arr)) * a_k for k, a_k in zip(range(-s.r, 1), s.a)]
    values = terms[0]
    for term in terms[1:]:
        values = values + term
    if np.isscalar(xi) or xi_arr.ndim == 0:
        return complex(values)
    return values


def stencil_by_numpy(coefficients, lam, trim_rel: float = TRIM_REL) -> np.ndarray:
    """The stencil that ``Scheme(...)`` keeps, with its checks and messages, built as one float array and
    checked and trimmed by numpy calls."""
    arr = np.asarray(list(coefficients), dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"scheme coefficients must be finite, got {arr.tolist()}")
    kept = np.flatnonzero(np.abs(arr) > trim_rel * np.max(np.abs(arr), initial=0.0))
    if kept.size == 0:
        raise ValueError("a scheme needs a nonzero coefficient")
    if arr.size - kept[0] < 2:
        raise ValueError(f"at CFL {lam} the trimmed stencil is the single coefficient a_0; "
                         "a scheme needs at least two")
    return arr[kept[0]:].copy()


def newton_refine_by_polynomials(coeffs: np.ndarray, roots: np.ndarray, passes: int = 2) -> np.ndarray:
    """``kl._newton_refine`` through polynomial objects: Horner over the numpy scalars of the
    coefficients and of the derivative's coefficients, from a zero array each time."""

    def horner(c, z):
        zarr = np.asarray(z, dtype=complex)
        acc = np.zeros_like(zarr)
        for coefficient in np.asarray(c, dtype=complex)[::-1]:
            acc = acc * zarr + coefficient
        return acc

    derivative = np.asarray(coeffs, dtype=complex)[1:] * np.arange(1, len(coeffs))
    for _ in range(passes):
        pv = horner(coeffs, roots)
        dv = horner(derivative, roots)
        safe = np.abs(dv) > 1e-300
        step = np.where(safe, pv / np.where(safe, dv, 1.0), 0.0)
        candidate = roots - step
        better = np.abs(horner(coeffs, candidate)) <= np.abs(pv)
        roots = np.where(better, candidate, roots)
    return roots


def upwind_blocks_by_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``kl.upwind_blocks`` as a loop over rows ``j`` and offsets ``k``: ``a_k`` is added to column ``j + k`` of row
    ``j`` when that is an interior point, and times ghost row ``j + k`` of ``b`` to the whole row when it is a ghost
    point."""
    r, ghosts, m = a.shape[1] - 1, b.shape[1], b.shape[2]
    blocks = np.zeros((a.shape[0], m, m))
    for j in range(m):
        for offset in range(-r, 1):
            coeff = a[:, offset + r]
            if j + offset >= 0:
                blocks[:, j, j + offset] += coeff
            else:
                blocks[:, j] += coeff[:, None] * b[:, j + offset + ghosts]
    return blocks


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
    value = kl_det_stack(rb.det_c, s.a_lead, s.a_zero, rb.r, zs.ravel()).reshape(zs.shape)
    return complex(value) if np.isscalar(z) else value


def winding_count(s, rb, n0=1024, tols=DEFAULT_TOLS):
    """Exterior zero count by winding: minus the index of the normalized curve, as in ``analyze``."""
    params, points = sample_kl_curve(s, rb, n0=n0, normalize=True)
    return -winding_number(params, points, tols, evaluator=kl_curve_evaluator(s, rb, normalize=True)).index


def predict_flip_by_reduction(pair, x, end, tols=DEFAULT_TOLS, n0=1024):
    """``analyzer._predict_flip`` through the reduction of each CFL value's pair ``pair(lam)``: the scale from the
    curve that ``sample_kl_curve`` samples at ``x``, and ``D`` at ``mu / |mu|`` from ``det C`` by Horner."""

    @functools.lru_cache(maxsize=None)
    def reduced(lam):
        s, bc = pair(lam)
        return s, reduce_boundary(s, bc.restricted_to(s.r))

    scale = float(np.max(np.abs(sample_kl_curve(*reduced(x), n0=n0)[1])))

    def gap(lam):
        s, rb = reduced(lam)
        mu = min(np.linalg.eigvals(rb.block), key=lambda v: abs(abs(v) - 1.0))
        z = np.exp(1j * np.angle([mu]))
        value = kl_det_stack(rb.det_c, s.a_lead, s.a_zero, s.r, z) / z**s.r
        return float(abs(value[0])) / scale - tols.origin_tol

    gx, gend = gap(x), gap(end)
    if np.sign(gx) == np.sign(gend) != 0.0:
        raise ValueError("g must have different signs at the ends of the bracket")
    return end - gend * (end - x) / (gend - gx)


def nested_differences(g, k: int, t: float, h: float) -> float:
    """The ``k``-th derivative of ``g`` at the time ``t`` by nested centered differences of step ``h``, without
    sharing a node: ``g`` is called ``2**k`` times."""
    if k == 0:
        return float(g(t))
    return (nested_differences(g, k - 1, t + h, h) - nested_differences(g, k - 1, t - h, h)) / (2.0 * h)


def data_table_by_loop(rows, r: int, n_steps: int):
    """``simulator._data_table`` in the ``(steps + 1, rows, r)`` layout of the march below, as one ``+=`` per row,
    ghost and plan entry in plan order, each row sampling its own columns."""
    table, fallbacks = np.zeros((n_steps + 1, len(rows), r)), []
    for i, (_, bc, run) in enumerate(rows):
        samples = {k: [run.g_derivative(k, n * run.dt) for n in range(n_steps + 1)]
                   for k in {k for plan in bc.g_plan for k, _ in plan}}
        fallbacks.append(any(fd for column in samples.values() for _, fd in column))
        for j, plan in enumerate(bc.g_plan):
            for k, weight in plan:
                table[:, i, j] += weight * (run.dx / run.a) ** k * np.array([v for v, _ in samples[k]])
    return table, fallbacks


def full_width_march_group(s, rows, J, n_steps, m, keep_history):
    """``simulator._march_group`` before the causal prefix: every cell of each row-major row, every step."""
    r, count, blowup_threshold = s.r, len(rows), simulator._BLOWUP_THRESHOLD
    U = np.zeros((count, J + r))
    for i, (_, _, run) in enumerate(rows):
        U[i, r:] = 0.0 if run.f is None else run.f
    V, term = np.empty_like(U), np.empty(U.size - r)
    B, ghosts = np.stack([bc.b for _, bc, _ in rows]), np.empty((count, r, 1))
    G, fallbacks = data_table_by_loop(rows, r, n_steps)
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
