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

    def derivatives(self, up_to: int) -> Tuple[Callable[[float], float], ...]:
        return tuple((lambda t, kk=k: self.derivative(kk, t)) for k in range(1, up_to + 1))


@dataclass(frozen=True)
class IBVPRun:
    """Geometry, time horizon and boundary data for one simulation.

    ``g_derivs[k-1]`` is the k-th derivative of ``g``; missing derivatives
    fall back to centered finite differences with step ``dt/10`` and the
    fallback is flagged on the result.
    """

    J: int
    T: float
    dx: float
    dt: float
    a: float
    sigma: float
    g: Callable[[float], float]
    g_derivs: Tuple[Callable[[float], float], ...] = ()
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
        g_derivs: Optional[Tuple[Callable[[float], float], ...]] = None,
        f: Optional[np.ndarray] = None,
    ) -> "IBVPRun":
        """Choose dx = 1/J and the time step matching the scheme's CFL number."""
        if J < 1:
            raise ValueError(f"the run needs at least one interior cell, got J={J}")
        if not T > 0:
            raise ValueError(f"the final time must be positive, got T={T}")
        if not a > 0:
            raise ValueError(f"the advection velocity must be positive, got a={a}")
        dx = 1.0 / J
        dt = s.lam * dx / a
        if g_derivs is None:
            g_derivs = g.derivatives(3) if isinstance(g, GaussianPulse) else ()
        return cls(J=J, T=T, dx=dx, dt=dt, a=a, sigma=sigma, g=g, g_derivs=tuple(g_derivs), f=f)

    def g_derivative(self, k: int, t: float) -> Tuple[float, bool]:
        """k-th derivative of the boundary data at ``t``; flags a FD fallback."""
        if k == 0:
            return float(self.g(t)), False
        if k <= len(self.g_derivs):
            return float(self.g_derivs[k - 1](t)), False
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
    """March the interior update with ghost cells filled from the boundary rule.

    At each time level the ghost values are rebuilt from the current interior
    values plus the boundary-data terms, then every interior cell advances
    (the stencil never reads to the right of the current cell, so all ``J``
    interior cells update). Stops early once the amplitude passes the blowup
    threshold; blowing up is data, not an error.
    """
    bc = bc.restricted_to(s.r)
    expected_dt = s.lam * run.dx / run.a
    if abs(run.dt - expected_dt) > 1e-12 * max(abs(run.dt), abs(expected_dt)):
        raise ValueError(f"dt={run.dt} does not match lambda*dx/a={expected_dt}")
    if bc.sigma is not None and abs(bc.sigma - run.sigma) > 1e-12:
        raise ValueError(f"boundary built for sigma={bc.sigma}, run declares sigma={run.sigma}")
    r, m, J = s.r, bc.m, run.J
    if m > J:
        raise ValueError(f"boundary uses {m} interior points but the run has only {J}")

    n_steps = int(math.ceil(run.T / run.dt - 1e-9))
    U = np.zeros(J + r)
    if run.f is not None:
        U[r:] = np.asarray(run.f, dtype=float)

    dx_over_a = run.dx / run.a
    used_fd = False
    history: List[np.ndarray] = []
    times: List[float] = []
    max_amplitude = 0.0
    blowup_step: Optional[int] = None

    for n in range(n_steps + 1):
        t = n * run.dt
        g_terms = np.zeros(r)
        for i in range(r):
            for k, weight in bc.g_plan[i]:
                value, fd = run.g_derivative(k, t)
                used_fd = used_fd or fd
                g_terms[i] += weight * dx_over_a**k * value
        U[:r] = bc.b @ U[r : r + m] + g_terms

        amplitude = float(np.max(np.abs(U)))
        max_amplitude = max(max_amplitude, amplitude)
        final = n == n_steps or amplitude > blowup_threshold
        if keep_history or final:
            history.append(U.copy())
            times.append(t)
        if amplitude > blowup_threshold:
            blowup_step = n
            break
        if final:
            break
        new_interior = np.zeros(J)
        for k in range(r + 1):
            new_interior += s.a[k] * U[k : k + J]
        U[r:] = new_interior

    x = (np.arange(-r, J)) * run.dx
    return SolutionField(
        values=np.asarray(history),
        times=np.asarray(times),
        x=x,
        max_amplitude=max_amplitude,
        blowup_step=blowup_step,
        fd_derivative_fallback=used_fd,
    )


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
    blowup_threshold: float = 1e6,
    clip_value: float = 1.0,
) -> SigmaScan:
    """One simulation per grid offset; profiles are clipped at +-clip_value for export.

    The unclipped running maximum per offset is kept alongside, which is what
    the verdict-agreement checks consume. A boundary without an offset (a
    custom ``b``) is simulated once for the whole grid: ``run_ibvp`` reads a
    run's offset only to check it against the boundary's.
    """
    sigma_grid = np.asarray(list(sigma_grid), dtype=float)
    if sigma_grid.size == 0:
        raise ValueError("sigma grid must be nonempty")
    if run_factory is None:
        run_factory = lambda sigma: IBVPRun.from_cfl(s, sigma=sigma)

    profiles = []
    max_amps = []
    blowups = []
    fallbacks = []
    x = offset_free = None
    for sigma in sigma_grid:
        bc = bc_family(float(sigma))
        if bc.sigma is None and offset_free is not None:
            result = offset_free
        else:
            run = run_factory(float(sigma))
            result = run_ibvp(s, bc, run, blowup_threshold=blowup_threshold, keep_history=False)
        if bc.sigma is None:
            offset_free = result
        profiles.append(np.clip(result.final_profile, -clip_value, clip_value))
        max_amps.append(result.max_amplitude)
        blowups.append(result.blowup_step)
        fallbacks.append(result.fd_derivative_fallback)
        x = result.x
    return SigmaScan(
        sigma_grid=sigma_grid,
        x=x,
        profiles_clipped=np.asarray(profiles),
        max_amplitudes=np.asarray(max_amps),
        blowup_steps=tuple(blowups),
        fd_derivative_fallbacks=tuple(fallbacks),
    )
