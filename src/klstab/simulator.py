"""Time-domain runner for the half-line advection scheme with ghost cells.

Corroborates stability verdicts empirically: a strongly stable pair keeps
the solution at the size of the boundary data, an unstable one blows up
within a few hundred steps. The spatial domain is the unit interval with
``J`` interior cells (``dx = 1/J``), the stencil only ever looks left, so
no treatment is needed at the right edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .boundary import BoundaryCondition
from .scheme import Scheme


@dataclass(frozen=True)
class GaussianPulse:
    """Boundary pulse exp(-width*(t-center)^2) with closed-form derivatives."""

    width: float = 200.0
    center: float = 0.25

    def __call__(self, t: float) -> float:
        tau = t - self.center
        return math.exp(-self.width * tau * tau)

    def derivative(self, k: int, t: float) -> float:
        tau = t - self.center
        g = self(t)
        w = self.width
        if k == 0:
            return g
        if k == 1:
            return -2.0 * w * tau * g
        if k == 2:
            return (4.0 * w * w * tau * tau - 2.0 * w) * g
        if k == 3:
            return (12.0 * w * w * tau - 8.0 * w**3 * tau**3) * g
        raise ValueError(f"analytic derivatives available up to order 3, requested {k}")


def _check_run(J: int, T: float, a: float) -> None:
    """Refuse a run without an interior cell, or whose final time or velocity is not positive (NaN too)."""
    if J < 1:
        raise ValueError(f"the run needs at least one interior cell, got J={J}")
    if not T > 0:
        raise ValueError(f"the final time must be positive, got T={T}")
    if not a > 0:
        raise ValueError(f"the advection velocity must be positive, got a={a}")


def _step_count(T: float, dt: float) -> int:
    """The march's ``ceil(T/dt - 1e-9)`` steps, refused at parse_grid's 10**7 or more (inf and NaN too)."""
    if not T / dt - 1e-9 <= 10**7 - 1:
        raise ValueError(f"the final time T={T!r} takes {T / dt:.3g} steps of dt={dt:.3g}; the limit is 10**7 - 1")
    return int(math.ceil(T / dt - 1e-9))


@dataclass(frozen=True, eq=False)
class IBVPRun:
    """Geometry, time horizon and boundary data for one simulation.

    A :class:`GaussianPulse` ``g`` gives its derivatives of orders 1 to 3 in
    closed form; any other derivative falls back to centered finite
    differences with step ``dt/10``, and the fallback is flagged on the
    result. Runs marched together that have the same ``dt`` and equal ``g``
    share their boundary-data samples: a hashable ``g`` is compared by value
    (equal pulses are equal), any other by identity. Runs themselves compare
    by identity, as ``f`` is an array.
    """

    J: int
    T: float
    dx: float
    dt: float
    a: float
    sigma: float
    g: Callable[[float], float]
    f: Optional[np.ndarray] = None

    @classmethod
    def from_cfl(
        cls,
        s: Scheme,
        J: int = 1000,
        T: float = 0.3,
        a: float = 1.0,
        sigma: float = 0.0,
        g: Callable[[float], float] = GaussianPulse(),
        f: Optional[np.ndarray] = None,
    ) -> "IBVPRun":
        """Choose dx = 1/J and the time step matching the scheme's CFL number; refuse 10**7 steps or more."""
        _check_run(J, T, a)
        dx = 1.0 / J
        dt = s.lam * dx / a
        _step_count(T, dt)
        return cls(J=J, T=T, dx=dx, dt=dt, a=a, sigma=sigma, g=g, f=f)

    def g_derivative(self, k: int, t: float) -> Tuple[float, bool]:
        """k-th derivative of the boundary data at ``t``; flags a FD fallback."""
        if k == 0:
            return float(self.g(t)), False
        if k <= 3 and isinstance(self.g, GaussianPulse):
            return float(self.g.derivative(k, t)), False
        h = self.dt / 10.0

        def deriv(order: int, tt: float) -> float:
            if order == 0:
                return float(self.g(tt))
            return (deriv(order - 1, tt + h) - deriv(order - 1, tt - h)) / (2.0 * h)

        return deriv(k, t), True


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Recorded profiles (ghosts included), running amplitude and blowup step."""

    values: np.ndarray
    times: np.ndarray
    x: np.ndarray
    max_amplitude: float
    blowup_step: Optional[int]
    fd_derivative_fallback: bool

    @property
    def final_profile(self) -> np.ndarray:
        return self.values[-1]


def run_ibvp(
    s: Scheme,
    bc: BoundaryCondition,
    run: IBVPRun,
    blowup_threshold: float = 1e6,
    keep_history: bool = True,
) -> SolutionField:
    """March the interior update with ghost cells filled from the boundary rule: the one-row :func:`march`.

    Each step rebuilds the ghost values from the interior values plus the boundary-data terms, then
    advances the interior. It stops early once the amplitude passes the blowup threshold or is not
    finite; blowing up is data, not an error.
    """
    return march(s, [(bc, run)], blowup_threshold, keep_history)[0]


def march(
    s: Scheme,
    pairs: Sequence[Tuple[BoundaryCondition, IBVPRun]],
    blowup_threshold: float = 1e6,
    keep_history: bool = False,
) -> List[SolutionField]:
    """Run every (boundary, run) pair with scheme ``s``; one result per pair, in order.

    Pairs that share ``J``, the step count and the boundary width ``m`` march
    together as the columns of one ``(J + r, rows)`` array, each row doing the
    arithmetic of a run on its own. A row that blows up is recorded at that
    step and leaves the array. Every run is checked, its step count included,
    before any group allocates.
    """
    groups: dict = {}
    for index, (bc, run) in enumerate(pairs):
        bc = bc.restricted_to(s.r)
        _check_run(run.J, run.T, run.a)
        expected_dt = s.lam * run.dx / run.a
        if not abs(run.dt - expected_dt) <= 1e-12 * max(abs(run.dt), abs(expected_dt)):
            raise ValueError(f"dt={run.dt} does not match lambda*dx/a={expected_dt}")
        if bc.sigma is not None and abs(bc.sigma - run.sigma) > 1e-12:
            raise ValueError(f"boundary built for sigma={bc.sigma}, run declares sigma={run.sigma}")
        if bc.m > run.J:
            raise ValueError(f"boundary uses {bc.m} interior points but the run has only {run.J}")
        if run.f is not None and not np.all(np.isfinite(run.f)):
            raise ValueError("the initial data f must be finite")
        n_steps = _step_count(run.T, run.dt)
        groups.setdefault((run.J, n_steps, bc.m), []).append((index, bc, run))
    results = {}
    for (J, n_steps, m), rows in groups.items():
        fields = _march_group(s, rows, J, n_steps, m, blowup_threshold, keep_history)
        results.update(zip([index for index, _, _ in rows], fields))
    return [results[index] for index in range(len(pairs))]


def _data_table(rows, r: int, n_steps: int) -> Tuple[np.ndarray, List[bool]]:
    """Data terms ``w * (dx/a)**k * g^(k)(t)`` of each step, row and ghost, summed in plan order.

    Each distinct column ``g^(k)(n dt)``, keyed on the run's ``g`` and ``dt``
    and the order ``k``, is sampled once (one ``g_derivative`` call a
    step) and shared by every row with that key; the second result flags the
    rows whose columns fell back to finite differences.
    """
    table, fallbacks, columns = np.zeros((n_steps + 1, len(rows), r)), [], {}
    for i, (_, bc, run) in enumerate(rows):
        data = (_by_value(run.g), run.dt)
        orders = {k for plan in bc.g_plan for k, _ in plan}
        for k in orders:
            if data + (k,) not in columns:
                samples = [run.g_derivative(k, n * run.dt) for n in range(n_steps + 1)]
                columns[data + (k,)] = np.array([v for v, _ in samples]), any(fd for _, fd in samples)
        fallbacks.append(any(columns[data + (k,)][1] for k in orders))
        for j, plan in enumerate(bc.g_plan):
            for k, weight in plan:
                table[:, i, j] += weight * (run.dx / run.a) ** k * columns[data + (k,)][0]
    return table, fallbacks


def _by_value(f):
    """``f`` itself when it can be hashed, so that equal callables share a key; else its identity."""
    try:
        hash(f)
    except TypeError:
        return ("id", id(f))
    return f


def _march_group(s, rows, J, n_steps, m, blowup_threshold, keep_history) -> List[SolutionField]:
    """March the rows of one group of :func:`march` as the columns of one cell-major array.

    Only the causal prefix ``U[:width]`` is updated: cell ``j`` reads cells
    ``j-r..j``, so the prefix grows by ``r`` a step from the ghosts and the
    initial data (``-0.0`` counts, as the stencil's sum turns it into ``+0.0``),
    and every cell past it is the ``+0.0`` that a full-width pass would compute.
    ``P`` keeps the running peak of each cell, so a step tests one global
    maximum; per-row amplitudes and peaks are reduced only when that test
    fires or at the last step.
    """
    r, count = s.r, len(rows)
    U = np.zeros((J + r, count))
    for i, (_, _, run) in enumerate(rows):
        U[r:, i] = 0.0 if run.f is None else run.f
    data = np.flatnonzero(((U != 0) | np.signbit(U)).any(axis=1))
    width = max(r, data[-1] + 1 if data.size else 0)
    V, P, scratch = np.zeros_like(U), np.zeros_like(U), np.empty_like(U)
    B, ghosts = np.stack([bc.b for _, bc, _ in rows]), np.empty((count, r, 1))
    G, fallbacks = _data_table(rows, r, n_steps)
    ids, recorded = np.arange(count), [[] for _ in rows]
    peaks, blowup_steps = [0.0] * count, [None] * count
    for n in range(n_steps + 1):
        np.matmul(B, np.ascontiguousarray(U[r : r + m].T)[:, :, None], out=ghosts)
        np.add(ghosts[:, :, 0].T, G[n].T, out=U[:r])
        np.maximum(P[:width], np.abs(U[:width], out=scratch[:width]), out=P[:width])
        if keep_history:
            for i, row in enumerate(ids):
                recorded[row].append((n, U[:, i].copy()))
        if n == n_steps or not P[:width].max() <= blowup_threshold:  # true for NaN data too
            amplitude, peak = scratch[:width].max(axis=0), P[:width].max(axis=0)
            amplitude[np.isnan(amplitude)], peak[np.isnan(peak)] = np.inf, np.inf
            done = (amplitude > blowup_threshold) | (n == n_steps)
            for i in np.flatnonzero(done):
                if not keep_history:
                    recorded[ids[i]].append((n, U[:, i].copy()))
                peaks[ids[i]] = float(peak[i])
                blowup_steps[ids[i]] = n if amplitude[i] > blowup_threshold else None
            if done.all():
                break
            U, V, P, scratch = (X.compress(~done, axis=1) for X in (U, V, P, scratch))  # C order, for the flat pass
            B, G, ghosts, ids = B[~done], G[:, ~done], ghosts[~done], ids[~done]
        # One flat pass over the prefix, summed from zero in stencil order: an
        # interior cell reads only its own column, the ghost slots are left alone.
        width, stride = min(width + r, J + r), U.shape[1]
        u, v, term = U.reshape(-1), V.reshape(-1), scratch.reshape(-1)[: (width - r) * stride]
        interior = v[r * stride : width * stride]
        np.add(0.0, np.multiply(s.a[0], u[: term.size], out=term), out=interior)
        for k in range(1, r + 1):
            np.add(interior, np.multiply(s.a[k], u[k * stride : k * stride + term.size], out=term), out=interior)
        U, V = V, U
    return [
        SolutionField(
            np.asarray([u for _, u in record]), np.asarray([n * run.dt for n, _ in record]),
            np.arange(-r, J) * run.dx, peak, step, fd,
        )
        for (_, _, run), record, peak, step, fd in zip(rows, recorded, peaks, blowup_steps, fallbacks)
    ]


@dataclass(frozen=True, eq=False)
class SigmaScan:
    """Final-time amplitude field over (x, sigma) plus per-sigma growth data.

    ``fd_derivative_fallbacks[i]`` flags that the run at ``sigma_grid[i]``
    took some boundary-data derivative by finite differences.
    """

    sigma_grid: np.ndarray
    x: np.ndarray
    profiles_clipped: np.ndarray
    max_amplitudes: np.ndarray
    blowup_steps: Tuple[Optional[int], ...]
    fd_derivative_fallbacks: Tuple[bool, ...]

    def to_csv(self) -> str:
        lines = ["sigma,x,value_clipped,max_amplitude_unclipped"]
        for i, sigma in enumerate(self.sigma_grid):
            amp = float(self.max_amplitudes[i])
            for xj, value in zip(self.x, self.profiles_clipped[i]):
                lines.append(f"{float(sigma)!r},{float(xj)!r},{float(value)!r},{amp!r}")
        return "\n".join(lines) + "\n"


def sigma_scan(
    s: Scheme,
    bc_family: Callable[[float], BoundaryCondition],
    sigma_grid: Sequence[float],
    run_factory: Optional[Callable[[float], IBVPRun]] = None,
) -> SigmaScan:
    """One simulation per grid offset, blowing up past amplitude 1e6; profiles are clipped at +-1 for export.

    The unclipped running maximum per offset is kept alongside, which is what
    the verdict-agreement checks consume. All offsets go to one :func:`march`
    call. A boundary without an offset (a custom ``b``) is simulated once for
    the whole grid: a run's offset is read only to check it against the
    boundary's.
    """
    sigma_grid = np.asarray(list(sigma_grid), dtype=float)
    if sigma_grid.size == 0:
        raise ValueError("sigma grid must be nonempty")
    if run_factory is None:
        run_factory = lambda sigma: IBVPRun.from_cfl(s, sigma=sigma)

    bcs = [bc_family(float(sigma)) for sigma in sigma_grid]
    offset_free = [i for i, bc in enumerate(bcs) if bc.sigma is None][:1]
    marched = [i for i, bc in enumerate(bcs) if bc.sigma is not None or i in offset_free]
    pairs = [(bcs[i], run_factory(float(sigma_grid[i]))) for i in marched]
    fields = dict(zip(marched, march(s, pairs)))
    results = [fields[i if bc.sigma is not None else offset_free[0]] for i, bc in enumerate(bcs)]
    return SigmaScan(
        sigma_grid=sigma_grid,
        x=results[-1].x,
        profiles_clipped=np.asarray([np.clip(f.final_profile, -1.0, 1.0) for f in results]),
        max_amplitudes=np.asarray([f.max_amplitude for f in results]),
        blowup_steps=tuple(f.blowup_step for f in results),
        fd_derivative_fallbacks=tuple(f.fd_derivative_fallback for f in results),
    )
