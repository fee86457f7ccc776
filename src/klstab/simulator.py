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

    def derivative(self, k: int, t):
        """The ``k``-th derivative at ``t``, a time or an array of times. On an array each element is bit for bit
        its time's value: ``exp`` and the cube are taken element by element in Python, as numpy's differ in the
        last bit."""
        if not 0 <= k <= 3:
            raise ValueError(f"analytic derivatives available up to order 3, requested {k}")
        tau = np.subtract(t, self.center)
        w = self.width
        g = _per_element(math.exp, -w * tau * tau)
        if k == 0:
            return g
        if k == 1:
            return -2.0 * w * tau * g
        if k == 2:
            return (4.0 * w * w * tau * tau - 2.0 * w) * g
        return (12.0 * w * w * tau - 8.0 * w**3 * _per_element(lambda x: x**3, tau)) * g


def _per_element(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``f`` of each element of ``x``, as Python floats."""
    return np.array([f(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))[()]


def _check_run(J: int, T: float, a: float) -> None:
    """Refuse a run without an interior cell, whose final time is not positive or whose velocity is not in (0, inf)."""
    if J < 1:
        raise ValueError(f"the run needs at least one interior cell, got J={J}")
    if not T > 0:
        raise ValueError(f"the final time must be positive, got T={T}")
    if not 0 < a < math.inf:
        raise ValueError(f"the advection velocity must be {'finite' if a > 0 else 'positive'}, got a={a}")


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
        """The run with the time step matching the scheme's CFL number; refuse 10**7 steps or more."""
        _check_run(J, T, a)
        dt = s.lam * (1.0 / J) / a
        _step_count(T, dt)
        return cls(J=J, T=T, dt=dt, a=a, sigma=sigma, g=g, f=f)

    @property
    def dx(self) -> float:
        """The cell width of the unit interval, ``1/J``."""
        return 1.0 / self.J

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


# A run blows up, and stops, once its amplitude passes this
_BLOWUP_THRESHOLD = 1e6


def run_ibvp(s: Scheme, bc: BoundaryCondition, run: IBVPRun, keep_history: bool = True) -> SolutionField:
    """March the interior update with ghost cells filled from the boundary rule: the one-row :func:`march`.

    Each step rebuilds the ghost values from the interior values plus the boundary-data terms, then
    advances the interior. It stops early once the amplitude passes the blowup threshold or is not
    finite; blowing up is data, not an error.
    """
    return march(s, [(bc, run)], keep_history)[0]


def march(s: Scheme, pairs: Sequence[Tuple[BoundaryCondition, IBVPRun]],
          keep_history: bool = False) -> List[SolutionField]:
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
        fields = _march_group(s, rows, J, n_steps, m, keep_history)
        results.update(zip([index for index, _, _ in rows], fields))
    return [results[index] for index in range(len(pairs))]


def _data_table(rows, r: int, n_steps: int) -> Tuple[np.ndarray, List[bool]]:
    """Data terms ``w * (dx/a)**k * g^(k)(t)`` of each row, ghost and step, summed in plan order.

    Each distinct column ``g^(k)(n dt)``, keyed on the run's ``g`` and ``dt``
    and the order ``k``, is sampled once and shared by every row with that
    key: by one ``derivative`` call over all step times for orders 0 to 3 of
    a :class:`GaussianPulse`, else by one ``g_derivative`` call a step. It is
    added to all its (row, ghost) slots of one plan position by one ``+=``;
    the second result flags the rows whose columns fell back to finite
    differences.
    """
    fallbacks, columns, terms = [], {}, {}
    for i, (_, bc, run) in enumerate(rows):
        data = (_by_value(run.g), run.dt)
        orders = {k for plan in bc.g_plan for k, _ in plan}
        for k in orders:
            if data + (k,) not in columns:
                times = np.arange(n_steps + 1) * run.dt
                if isinstance(run.g, GaussianPulse) and k <= 3:
                    columns[data + (k,)] = run.g.derivative(k, times), False
                else:
                    samples = [run.g_derivative(k, time) for time in times.tolist()]
                    columns[data + (k,)] = np.array([v for v, _ in samples]), any(fd for _, fd in samples)
        fallbacks.append(any(columns[data + (k,)][1] for k in orders))
        for j, plan in enumerate(bc.g_plan):
            for position, (k, weight) in enumerate(plan):
                terms.setdefault((position, data + (k,)), []).append((i, j, weight * (run.dx / run.a) ** k))
    table = np.zeros((len(rows), r, n_steps + 1))
    for (_, key), entries in sorted(terms.items(), key=lambda item: item[0][0]):
        i, j, weights = map(np.array, zip(*entries))
        table[i, j] += np.multiply.outer(weights, columns[key][0])
    return table, fallbacks


def _by_value(f):
    """``f`` itself when it can be hashed, so that equal callables share a key; else its identity."""
    try:
        hash(f)
    except TypeError:
        return ("id", id(f))
    return f


def _march_group(s, rows, J, n_steps, m, keep_history) -> List[SolutionField]:
    """March the rows of one group of :func:`march` as the columns of one cell-major array.

    Only the causal prefix ``U[:width]`` is updated: cell ``j`` reads cells
    ``j-r..j``, so the prefix grows by ``r`` a step from the ghosts and the
    initial data, and every cell past it is zero. A sum that starts from
    ``a_{-r} u`` may be ``-0.0`` where one from ``+0.0`` is ``+0.0``, so a
    profile recorded at a step ``n >= 1`` adds ``+0.0``. ``P`` keeps each
    cell's running peak; its maximum ``top`` is read only where the bound
    ``growth * top + lift`` on the next amplitude could pass the threshold.
    A read past it finds the rows that crossed in one flat pass and reduces
    only their peaks; the rows left keep their columns in the front of the
    same buffers.
    """
    r, count = s.r, len(rows)
    G, fallbacks = _data_table(rows, r, n_steps)  # before the state, so that its temporaries are freed first
    B, ghosts = np.stack([bc.b for _, bc, _ in rows]), np.empty((count, r, 1))
    # bounds on a step of the stencil and the ghost rows, with room for their rounding
    growth = float(np.abs(s.a).sum()) * max(1.0, float(np.abs(B).sum(axis=2).max())) * (1 + 1e-9)
    lift, bound, start = float(np.abs(G).max()) * (1 + 1e-9), math.inf, 0
    U = np.zeros((J + r, count))
    for i, (_, _, run) in enumerate(rows):
        U[r:, i] = 0.0 if run.f is None else run.f
    width = max(r, int(np.flatnonzero(U.any(axis=1)).max(initial=-1)) + 1)  # past the last initial data
    V, P, scratch = np.zeros_like(U), np.zeros_like(U), np.empty_like(U)
    ids, recorded = np.arange(count), [[] for _ in rows]
    peaks, blowup_steps = [0.0] * count, [None] * count
    profile = lambda i: U[:, i] + 0.0 if n else U[:, i].copy()  # -0.0 becomes +0.0 after step 0
    for n in range(n_steps + 1):
        np.matmul(B, np.ascontiguousarray(U[r : r + m].T)[:, :, None], out=ghosts)
        np.add(ghosts[:, :, 0].T, G[:, :, n - start].T, out=U[:r])
        np.maximum(P[:width], np.abs(U[:width], out=scratch[:width]), out=P[:width])
        if keep_history:
            for i, row in enumerate(ids):
                recorded[row].append((n, profile(i)))
        if n == n_steps or not bound <= _BLOWUP_THRESHOLD:  # true for a NaN bound too
            bound = float(P[:width].max())
        if n == n_steps or not bound <= _BLOWUP_THRESHOLD:  # one flat pass finds the rows that crossed, NaN too
            crossed = np.bincount(np.nonzero(~(scratch[:width] <= _BLOWUP_THRESHOLD))[1], minlength=len(ids)) > 0
            done = np.arange(len(ids)) if n == n_steps else np.flatnonzero(crossed)
            peak = P[:width, done].max(axis=0)
            peak[np.isnan(peak)] = np.inf
            for i, top in zip(done, peak):
                if not keep_history:
                    recorded[ids[i]].append((n, profile(i)))
                peaks[ids[i]] = float(top)
                blowup_steps[ids[i]] = n if crossed[i] else None
            if done.size == len(ids):
                break
            keep, stride = ~crossed, len(ids) - done.size
            U, P = (_narrowed(X, width, stride, X[:width, keep]) for X in (U, P))
            V, scratch = (_narrowed(X, width, stride) for X in (V, scratch))  # prefixes written before read
            B, ghosts, ids = B[keep], ghosts[keep], ids[keep]
            G, start, bound = G[keep, :, n + 1 - start :], n + 1, _BLOWUP_THRESHOLD  # the steps to come
        bound = growth * bound + lift
        # One flat pass over the prefix in stencil order: an interior cell reads
        # only its own column, the ghost slots are left alone.
        width, stride = min(width + r, J + r), U.shape[1]
        u, v, term = U.reshape(-1), V.reshape(-1), scratch.reshape(-1)[: (width - r) * stride]
        interior = v[r * stride : width * stride]
        np.multiply(s.a[0], u[: term.size], out=interior)
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


def _narrowed(X: np.ndarray, width: int, stride: int, prefix: Optional[np.ndarray] = None) -> np.ndarray:
    """The front of ``X``'s buffer as a C-order array of ``stride`` columns, zero past ``width`` rows as ``X`` is,
    with ``prefix`` as its first ``width`` rows (else those rows are left as they are).

    ``X`` is C-contiguous and zero past ``width`` rows, so at the narrower stride only the cells that held its first
    ``width`` rows need zeroing.
    """
    flat = X.reshape(-1)
    flat[width * stride : width * X.shape[1]] = 0.0
    narrowed = flat[: X.shape[0] * stride].reshape(X.shape[0], stride)
    if prefix is not None:
        narrowed[:width] = prefix
    return narrowed


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
    run_factory: Callable[[float], IBVPRun],
) -> SigmaScan:
    """One simulation per grid offset, ``run_factory(sigma)``, blowing up past amplitude 1e6; profiles are clipped
    at +-1 for export.

    The unclipped running maximum per offset is kept alongside, which is what
    the verdict-agreement checks consume. All offsets go to one :func:`march`
    call. A boundary without an offset (a custom ``b``) is simulated once for
    the whole grid: a run's offset is read only to check it against the
    boundary's.
    """
    sigma_grid = np.asarray(list(sigma_grid), dtype=float)
    if sigma_grid.size == 0:
        raise ValueError("sigma grid must be nonempty")
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
