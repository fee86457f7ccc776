"""Command-line interface: verdicts, curves, sweeps and simulations as CSV/JSON.

Commands
    check      one verdict as JSON on stdout; exit code encodes the outcome
    curve      normalized determinant curve on the unit circle as CSV
    sweep      exterior-zero-count map over a lambda (and optional sigma) grid as CSV
    simulate   final-time amplitude field of a sigma scan as CSV

Every command builds its (scheme, boundary) pairs one way: ``_descriptors``
resolves flags over the ``--config`` file into two descriptors (one boundary:
``--silw`` or ``--custom-b``, never both, else the file's ``boundary``), and
the builders ``scheme_at`` and ``boundary_at`` add the CFL number
and offset and fit the boundary rows to the scheme.

Exit codes: 0 success / strongly stable, 1 usage, config or input error,
including a pair whose reduction leaves the float range (one ``error:``
line on stderr), 2 unstable, 3 assumption violated,
4 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from .analyzer import StabilityStatus, analyze, sweep
from .boundary import BoundaryCondition, boundary_from_descriptor
from .config import DEFAULT_TOLS, Tolerances
from .errors import KLStabError
from .scheme import Scheme, scheme_from_descriptor
from .simulator import GaussianPulse, IBVPRun, sigma_scan
from .winding import curve_to_csv, sample_kl_curve
from .kl import reduce_boundary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSTABLE = 2
EXIT_ASSUMPTION = 3
EXIT_INCONCLUSIVE = 4

_STATUS_EXIT = {
    StabilityStatus.STRONGLY_STABLE: EXIT_OK,
    StabilityStatus.UNSTABLE_EXTERIOR_EIGENVALUE: EXIT_UNSTABLE,
    StabilityStatus.UNSTABLE_BOUNDARY_ZERO: EXIT_UNSTABLE,
    StabilityStatus.ASSUMPTION_VIOLATED: EXIT_ASSUMPTION,
    StabilityStatus.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


# Largest grid parse_grid builds, and the most curve samples and simulated cells; a larger size is refused before
# anything is allocated
_MAX_GRID_POINTS = 10**7

# Tolerances settable by flag (--cluster-radius, ...) and by the config's "tolerances" keys
_TOLERANCE_NAMES = ("cluster_radius", "unit_circle_tol", "origin_tol", "kernel_tol", "cauchy_tol")


class UsageError(Exception):
    pass


def parse_grid(text: str) -> np.ndarray:
    """Parse ``A:B:STEP`` into an ascending grid; B is included when it lands on the grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be A:B:STEP, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid values must be numeric: {text!r}") from exc
    if not all(map(math.isfinite, (a, b, step))):
        raise UsageError(f"grid bounds and step must be finite: {text!r}")
    if step <= 0 or b < a:
        raise UsageError(f"grid must ascend with positive step: {text!r}")
    spans = (b - a) / step
    if not spans < _MAX_GRID_POINTS:
        raise UsageError(f"grid has too many points: {text!r}")
    n = int(np.floor(spans + 1e-9)) + 1
    # round away float accumulation noise so grid values print cleanly
    return np.round(a + step * np.arange(n), 12)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klstab",
        description="Strong stability verification for totally upwind schemes on the half line.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override file values")
        p.add_argument("--preset", help="scheme preset name (beam-warming)")
        p.add_argument("--coefficients", type=float, nargs="+", metavar="A", help="stencil coefficients a_-r .. a_0")
        p.add_argument("--silw", type=int, nargs=2, metavar=("KD", "D"),
                       help="simplified inverse Lax-Wendroff orders k_d and d")
        p.add_argument("--custom-b", metavar="FILE", help="JSON file with {\"b\": [[...], ...]} extrapolation rows")
        p.add_argument("--out", help="output path (default stdout)")

    # no abbreviations: --lambda on sweep would otherwise be taken for --lambda-grid
    p_check = sub.add_parser("check", help="single stability verdict as JSON", allow_abbrev=False)
    add_common(p_check)

    p_curve = sub.add_parser("curve", help="determinant curve on the unit circle as CSV", allow_abbrev=False)
    add_common(p_curve)
    p_curve.add_argument("--no-normalize", action="store_true",
                         help="emit the raw determinant instead of dividing by z^r")

    p_sweep = sub.add_parser("sweep", help="zero-count map over parameter grids as CSV", allow_abbrev=False)
    add_common(p_sweep)
    p_sweep.add_argument("--lambda-grid", metavar="A:B:STEP", help="CFL grid")
    p_sweep.add_argument("--sigma-grid", metavar="A:B:STEP", help="grid-offset grid (default {0})")
    p_sweep.add_argument("--jobs", type=int, help="parallel workers (default 1)")

    p_sim = sub.add_parser("simulate", help="sigma-scan amplitude field as CSV", allow_abbrev=False)
    add_common(p_sim)
    p_sim.add_argument("--sigma-grid", metavar="A:B:STEP", help="grid-offset grid (default -0.5:0.48:0.02)")
    p_sim.add_argument("--grid-points", type=int, default=1000, help="interior cells J (default 1000)")
    p_sim.add_argument("--final-time", type=float, default=0.3, help="time horizon T (default 0.3)")
    p_sim.add_argument("--velocity", type=float, default=1.0, help="advection velocity a (default 1)")

    # only the commands that read them get these flags
    for p in (p_check, p_curve, p_sim):
        p.add_argument("--lambda", dest="lambda", type=float, help="CFL number")
    for p in (p_check, p_curve):
        p.add_argument("--sigma", type=float, help="grid offset in [-1/2, 1/2), default 0")
    for p in (p_check, p_curve, p_sweep):
        p.add_argument("--samples", type=int, help="curve samples on the unit circle (default 1024)")
    for p in (p_check, p_sweep):
        for name in _TOLERANCE_NAMES:
            p.add_argument(f"--{name.replace('_', '-')}", type=float, help=f"override tolerance {name}")
    return parser


# JSON types of config values, as (description, test)
_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_TEXT = ("a string", lambda v: isinstance(v, str))
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_NUMBER[1], v)))
_ORDERS = ("two integers", lambda v: isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v))
_JOBS = ("an integer of at least 1", lambda v: type(v) is int and v >= 1)

# The top-level config keys each command reads, by _merged (under its flag's name or its dest) or as a descriptor
_DESCRIBED = {"scheme", "boundary", "out", "preset", "coefficients", "silw", "custom-b", "custom_b"}
_CONFIG_READS = {
    "check": _DESCRIBED | {"tolerances", "samples", "lambda", "sigma"},
    "curve": _DESCRIBED | {"samples", "lambda", "sigma"},
    "sweep": _DESCRIBED | {"tolerances", "samples", "jobs", "lambda-grid", "lambda_grid", "sigma-grid", "sigma_grid"},
    "simulate": _DESCRIBED | {"lambda", "sigma-grid", "sigma_grid"},
}
_CONFIG_KEYS = set().union(*_CONFIG_READS.values())


def _merged(args, config: dict, key: str, default=None, kind=None):
    """The flag ``key`` if given, else its config value (or ``default``), which must be of JSON type ``kind``."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    name = key.replace("_", "-")
    value = config.get(name, config.get(key, default))
    if value is not None and kind is not None and not kind[1](value):
        raise UsageError(f'config key "{name}" must be {kind[0]}, got {json.dumps(value)}')
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def _tolerances(args, config: dict) -> Tolerances:
    overrides = {}
    file_tols = _json_object(config.get("tolerances", {}), 'config key "tolerances"')
    unknown = sorted(set(file_tols) - set(_TOLERANCE_NAMES))
    if unknown:
        raise UsageError(
            f"config tolerances {', '.join(unknown)} cannot be set; "
            f"settable: {', '.join(_TOLERANCE_NAMES)}"
        )
    for attr in _TOLERANCE_NAMES:
        value = getattr(args, attr, None)
        if value is None:
            value = file_tols.get(attr)
            if value is not None and not _NUMBER[1](value):
                raise UsageError(f"config tolerance {attr} must be a number, got {json.dumps(value)}")
        if value is not None:
            overrides[attr] = float(value)
    tols = replace(DEFAULT_TOLS, **overrides)
    tols.validate()
    return tols


def _descriptors(args, config: dict) -> Tuple[dict, dict]:
    """Scheme and boundary descriptors from flags and config, without CFL number or offset.

    Flags override the file. The boundary is ``--silw`` or ``--custom-b``
    (each also readable from the file under its flag name), never both;
    without either, the file's ``boundary`` descriptor.
    """
    from_file = _json_object(config.get("scheme", {}), 'config key "scheme"')
    coeffs = _merged(args, config, "coefficients", from_file.get("coefficients"), _NUMBERS)
    preset = _merged(args, config, "preset", from_file.get("preset"), _TEXT) or "beam-warming"
    scheme = (("preset", preset),) if coeffs is None else (("coefficients", tuple(coeffs)),)
    silw = _merged(args, config, "silw", kind=_ORDERS)
    custom_path = _merged(args, config, "custom_b", kind=_TEXT)
    if silw is not None and custom_path is not None:
        raise UsageError("give either --silw or --custom-b, not both")
    if silw is not None:
        return scheme, {"silw": {"kd": int(silw[0]), "d": int(silw[1])}}
    if custom_path is not None:
        with open(custom_path) as fh:
            return scheme, {"custom": json.load(fh)}
    if "boundary" in config:
        return scheme, config["boundary"]
    raise UsageError("a boundary condition is required (--silw KD D or --custom-b FILE)")


@functools.lru_cache(maxsize=1024)
def scheme_at(lam: float, scheme: tuple) -> Scheme:
    """The scheme of descriptor ``scheme``, given as its items, at CFL ``lam`` (a sweep's ``scheme_family``).

    Cached, so that the boundaries of a CFL value reuse the scheme built for it.
    """
    return scheme_from_descriptor({**dict(scheme), "lambda": lam})


def boundary_at(lam: float, sigma: Optional[float], scheme: tuple, boundary: dict) -> BoundaryCondition:
    """The boundary of descriptor ``boundary`` fitted to ``scheme_at(lam, scheme)``.

    A given ``sigma`` replaces the offset of a SILW descriptor; ``None``
    keeps the descriptor's own (default 0). With ``scheme`` and
    ``boundary`` bound this is a sweep's ``bc_family``.
    """
    r = scheme_at(lam, scheme).r
    try:
        if sigma is not None and "silw" in boundary:
            boundary = {"silw": {**boundary["silw"], "sigma": sigma}}
        return boundary_from_descriptor(boundary, r)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad boundary condition: {exc}") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (exit 0) itself; remap usage failures to 1
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        config = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                config = _json_object(json.load(fh), "a config file")
        unknown = sorted(set(config) - _CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys {', '.join(map(json.dumps, unknown))}")

        # the config keys of knobs a command does not have are refused, as the flags are
        idle = sorted(set(config) - _CONFIG_READS[args.command])
        if idle:
            keys = ", ".join(map(json.dumps, idle))
            raise UsageError(f"config key {keys} does not act on {args.command}" if len(idle) == 1 else
                             f"config keys {keys} do not act on {args.command}")
        tols = _tolerances(args, config)
        n0 = _merged(args, config, "samples", 1024, _NUMBER)
        if type(n0) is not int:
            raise UsageError(f'config key "samples" must be an integer, got {json.dumps(n0)}')
        for name, size in (("samples", n0), ("grid-points", getattr(args, "grid_points", 0))):
            if size > _MAX_GRID_POINTS:
                raise UsageError(f"{name} must be at most {_MAX_GRID_POINTS}, got {size}")
        out = _merged(args, config, "out", kind=_TEXT)

        scheme, boundary = _descriptors(args, config)

        if args.command == "sweep":
            lam_spec = _merged(args, config, "lambda_grid", kind=_TEXT)
            if lam_spec is None:
                raise UsageError("sweep needs --lambda-grid A:B:STEP")
            lambda_grid = parse_grid(lam_spec)
            sig_spec = _merged(args, config, "sigma_grid", kind=_TEXT)
            sigma_grid = parse_grid(sig_spec) if sig_spec else np.array([0.0])
            if np.any(lambda_grid <= 0):
                raise UsageError("all CFL grid values must be positive")
            scheme_family = functools.partial(scheme_at, scheme=scheme)
            bc_family = functools.partial(boundary_at, scheme=scheme, boundary=boundary)
            # a bad scheme or boundary fails here, once, rather than in every worker
            bc_family(float(lambda_grid[0]), float(sigma_grid[0]))
            result = sweep(scheme_family, bc_family, lambda_grid, sigma_grid, tols=tols, n0=n0,
                           jobs=_merged(args, config, "jobs", 1, _JOBS))
            _write(result.to_csv(), out)
            return EXIT_OK

        lam = _merged(args, config, "lambda", config.get("scheme", {}).get("lambda"), _NUMBER)
        if lam is None:
            raise UsageError("a CFL number is required (--lambda)")
        s = scheme_at(float(lam), scheme)

        if args.command == "simulate":
            sigma_grid = parse_grid(_merged(args, config, "sigma_grid", kind=_TEXT) or "-0.5:0.48:0.02")
            make_run = functools.partial(IBVPRun.from_cfl, s, J=int(args.grid_points), T=float(args.final_time),
                                         a=float(args.velocity), g=GaussianPulse())
            try:
                make_run()  # a bad run geometry fails here, once, naming the flags that set it
            except ValueError as exc:
                raise UsageError(f"--grid-points, --final-time or --velocity: {exc}") from None
            scan = sigma_scan(
                s,
                bc_family=functools.partial(boundary_at, s.lam, scheme=scheme, boundary=boundary),
                sigma_grid=sigma_grid,
                run_factory=lambda sg: make_run(sigma=sg),
            )
            _write(scan.to_csv(), out)
            fallbacks = sum(scan.fd_derivative_fallbacks)
            if fallbacks:
                # only SILW rows take derivatives of the boundary data
                kd, d = int(boundary["silw"]["kd"]), int(boundary["silw"]["d"])
                print(
                    f"warning: S{kd}ILW{d} needs boundary-data derivatives the Gaussian pulse has "
                    f"no closed form for; finite differences used at {fallbacks} of "
                    f"{sigma_grid.size} offsets",
                    file=sys.stderr,
                )
            return EXIT_OK

        # check and curve: one pair at the offset --sigma, else the file's
        bc = boundary_at(s.lam, _merged(args, config, "sigma", kind=_NUMBER), scheme, boundary)
        if args.command == "check":
            verdict = analyze(s, bc, tols=tols, n0=n0)
            _write(verdict.to_json() + "\n", out)
            return _STATUS_EXIT[verdict.status]
        rb = reduce_boundary(s, bc, tols)
        curve = sample_kl_curve(s, rb, n0=n0, normalize=not args.no_normalize)
        _write(curve_to_csv(curve), out)
        return EXIT_OK
    except (UsageError, OSError, ValueError, ArithmeticError, KLStabError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
