"""Command-line interface: verdicts, curves, sweeps and simulations as CSV/JSON.

Commands
    check      one verdict as JSON on stdout; exit code encodes the outcome
    curve      normalized determinant curve on the unit circle as CSV
    sweep      exterior-zero-count map over a lambda (and optional sigma) grid as CSV
    simulate   final-time amplitude field of a sigma scan as CSV

The ``--config`` file is a JSON object whose keys are the long names of
the command's own flags (``lambda``, ``silw``, ``custom-b``, ``origin-tol``,
...), each holding a value of the JSON type of its flag's values; a flag on
the command line overrides its key. The command's parser is the one list
of keys and types. Every command then builds its (scheme, boundary) pairs
one way: ``_families`` turns the flags into a cached ``scheme_at(lam)``
and a ``boundary_at(lam, sigma=None)`` that fits the boundary rows to that
scheme (one boundary: ``--silw`` or ``--custom-b``, never both).

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
import re
import sys
from dataclasses import fields, replace
from typing import List, Optional

import numpy as np

from .analyzer import StabilityStatus, analyze, sweep
from .boundary import BoundaryCondition, custom_condition, silw_condition
from .config import DEFAULT_TOLS, Tolerances
from .errors import KLStabError
from .scheme import PRESETS, Scheme
from .simulator import GaussianPulse, IBVPRun, sigma_scan
from .winding import curve_to_csv, sample_kl_curve
from .kl import check_finite, reduce_boundary

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, and those of its subcommand parsers (built of its class), are :class:`UsageError`, and
    that takes a negative number in exponent form (``-4.9e-08``) for a value, which argparse's pattern has not.

    The top-level parser's ``commands`` maps each command name to its parser.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$")

    def error(self, message):
        raise UsageError(message)


def parse_grid(text: str) -> np.ndarray:
    """Parse ``A:B:STEP`` into an ascending grid rounded to 12 decimals; B is included when it lands on the grid. A
    step so small that rounded points repeat is refused."""
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
    grid = np.round(a + step * np.arange(n), 12)
    if not np.all(np.diff(grid) > 0):
        raise UsageError(f"grid points repeat once rounded to 12 decimals; use a larger step: {text!r}")
    return grid


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="klstab",
        description="Strong stability verification for totally upwind schemes on the half line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    # no default: a flag left off takes its config key, and the defaults apply where a value is read
    p_curve.add_argument("--no-normalize", action="store_true", default=None,
                         help="emit the raw determinant instead of dividing by z^r")

    p_sweep = sub.add_parser("sweep", help="zero-count map over parameter grids as CSV", allow_abbrev=False)
    add_common(p_sweep)
    p_sweep.add_argument("--lambda-grid", metavar="A:B:STEP", help="CFL grid")
    p_sweep.add_argument("--sigma-grid", metavar="A:B:STEP", help="grid-offset grid (default {0})")
    p_sweep.add_argument("--jobs", type=int, help="parallel workers (default 1)")

    p_sim = sub.add_parser("simulate", help="sigma-scan amplitude field as CSV", allow_abbrev=False)
    add_common(p_sim)
    p_sim.add_argument("--sigma-grid", metavar="A:B:STEP", help="grid-offset grid (default -0.5:0.48:0.02)")
    p_sim.add_argument("--grid-points", type=int, help="interior cells J (default 1000)")
    p_sim.add_argument("--final-time", type=float, help="time horizon T (default 0.3)")
    p_sim.add_argument("--velocity", type=float, help="advection velocity a (default 1)")

    # only the commands that read them get these flags
    for p in (p_check, p_curve, p_sim):
        p.add_argument("--lambda", dest="lambda", type=float, help="CFL number")
    for p in (p_check, p_curve):
        p.add_argument("--sigma", type=float, help="grid offset in [-1/2, 1/2), default 0")
    for p in (p_check, p_curve, p_sweep):
        p.add_argument("--samples", type=int, help="curve samples on the unit circle (default 1024)")
    for p, skip in ((p_check, None), (p_sweep, "kernel_tol")):  # no sweep classifies a boundary zero
        for name in (f.name for f in fields(Tolerances) if f.name != skip):
            p.add_argument(f"--{name.replace('_', '-')}", type=float, help=f"override tolerance {name}")
    parser.commands = sub.choices
    return parser


# The JSON words for the values of a flag's type, one and many; a switch's values are booleans
_JSON_WORDS = {str: ("a string", "strings"), int: ("an integer", "integers"), float: ("a number", "numbers"),
               bool: ("true or false", None)}


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise UsageError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def _flag_value(key: str, action: argparse.Action, value):
    """The config ``value`` of a flag as the flag would give it; refused unless of the JSON type of its values."""
    kind = action.type or (bool if action.nargs == 0 else str)

    def fits(v) -> bool:
        return type(v) is kind or (kind is float and type(v) is int)

    one, many = _JSON_WORDS[kind]
    if action.nargs in (None, 0):
        if fits(value):
            return kind(value)
    elif isinstance(value, list) and all(map(fits, value)) and action.nargs in ("+", len(value)):
        return [kind(v) for v in value]
    else:
        one = f"a list of {many}" if action.nargs == "+" else f"a list of {action.nargs} {many}"
    raise UsageError(f'config key "{key}" must be {one}, got {json.dumps(value)}')


def _read_config(args, path: str) -> None:
    """Give each flag left off the command line the value of the config key named as the flag (``--origin-tol``
    reads ``origin-tol``). A key that names no flag, or a flag of another command only, is refused."""
    with open(path) as fh:
        config = _json_object(json.load(fh), "a config file")
    flags = {command: {action.option_strings[-1][2:]: action for action in parser._actions
                       if action.dest not in ("help", "config")}
             for command, parser in _build_parser().commands.items()}
    unknown = sorted(set(config).difference(*flags.values()))
    if unknown:
        raise UsageError(f"unknown config keys {', '.join(map(json.dumps, unknown))}")
    # the config keys of knobs a command does not have are refused, as the flags are
    idle = sorted(set(config) - set(flags[args.command]))
    if idle:
        keys = ", ".join(map(json.dumps, idle))
        raise UsageError(f"config key {keys} does not act on {args.command}" if len(idle) == 1 else
                         f"config keys {keys} do not act on {args.command}")
    for key, action in flags[args.command].items():
        if key in config and getattr(args, action.dest) is None:
            setattr(args, action.dest, _flag_value(key, action, config[key]))


def _given(args, dest: str, default):
    """The flag ``dest`` (set on the command line or by its config key), else ``default``."""
    value = getattr(args, dest, None)
    return default if value is None else value


def _families(args):
    """The scheme and boundary families of the flags.

    ``scheme_at(lam)`` is the scheme at CFL ``lam``, cached so that the boundaries of a CFL value reuse its
    scheme; ``boundary_at(lam, sigma=None)`` is the boundary fitted to it: the ``--silw`` orders at the offset
    ``sigma`` (0 when None), or the ``--custom-b`` rows, which have no offset, so ``check`` and ``curve`` refuse
    ``--sigma`` beside them. Exactly one of ``--silw`` and ``--custom-b`` is given, and not both ``--preset``
    and ``--coefficients``.
    """
    custom_path = args.custom_b
    if args.silw is not None and custom_path is not None:
        raise UsageError("give either --silw or --custom-b, not both")
    if args.silw is None and custom_path is None:
        raise UsageError("a boundary condition is required (--silw KD D or --custom-b FILE)")
    if custom_path is not None:
        if getattr(args, "sigma", None) is not None:
            raise UsageError("--sigma sets the offset of a --silw boundary; a --custom-b boundary has none")
        with open(custom_path) as fh:
            custom = _json_object(json.load(fh), "a --custom-b file")
        if list(custom) != ["b"]:
            raise UsageError(f'bad boundary condition: a --custom-b file holds exactly the key "b", '
                             f"got {json.dumps(sorted(custom))}")
    if args.preset is not None and args.coefficients is not None:
        raise UsageError("give either --preset or --coefficients, not both")
    preset = args.preset or "beam-warming"
    if args.coefficients is None and preset not in PRESETS:
        raise UsageError(f"unknown scheme preset {preset!r}; available: {sorted(PRESETS)}")
    build = PRESETS[preset] if args.coefficients is None else functools.partial(Scheme, tuple(args.coefficients))
    scheme_at = functools.lru_cache(maxsize=1024)(build)

    def boundary_at(lam: float, sigma: Optional[float] = None) -> BoundaryCondition:
        r = scheme_at(lam).r
        try:
            if custom_path is not None:
                return custom_condition(custom["b"]).restricted_to(r)
            return silw_condition(r, *args.silw, 0.0 if sigma is None else float(sigma))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad boundary condition: {exc}") from exc

    return scheme_at, boundary_at


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def run_cli(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:  # --help, which argparse prints itself
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.config:
            _read_config(args, args.config)
        tols = replace(DEFAULT_TOLS, **{f.name: getattr(args, f.name) for f in fields(Tolerances)
                                        if getattr(args, f.name, None) is not None})
        n0 = _given(args, "samples", 1024)
        for name, size in (("samples", n0), ("grid-points", _given(args, "grid_points", 0))):
            if size > _MAX_GRID_POINTS:
                raise UsageError(f"{name} must be at most {_MAX_GRID_POINTS}, got {size}")

        scheme_at, boundary_at = _families(args)

        if args.command == "sweep":
            if args.lambda_grid is None:
                raise UsageError("sweep needs --lambda-grid A:B:STEP")
            lambda_grid = parse_grid(args.lambda_grid)
            sigma_grid = parse_grid(args.sigma_grid) if args.sigma_grid else np.array([0.0])
            if np.any(lambda_grid <= 0):
                raise UsageError("all CFL grid values must be positive")
            # a bad scheme or boundary fails here, once, rather than in every worker
            boundary_at(float(lambda_grid[0]), float(sigma_grid[0]))
            result = sweep(scheme_at, boundary_at, lambda_grid, sigma_grid, tols=tols, n0=n0,
                           jobs=_given(args, "jobs", 1))
            _write(result.to_csv(), args.out)
            return EXIT_OK

        lam = getattr(args, "lambda")
        if lam is None:
            raise UsageError("a CFL number is required (--lambda)")
        s = scheme_at(float(lam))

        if args.command == "simulate":
            sigma_grid = parse_grid(args.sigma_grid or "-0.5:0.48:0.02")
            make_run = functools.partial(IBVPRun.from_cfl, s, J=_given(args, "grid_points", 1000),
                                         T=_given(args, "final_time", 0.3), a=_given(args, "velocity", 1.0),
                                         g=GaussianPulse())
            try:
                make_run()  # a bad run geometry fails here, once, naming the flags that set it
            except ValueError as exc:
                raise UsageError(f"--grid-points, --final-time or --velocity: {exc}") from None
            scan = sigma_scan(
                s,
                bc_family=functools.partial(boundary_at, s.lam),
                sigma_grid=sigma_grid,
                run_factory=lambda sg: make_run(sigma=sg),
            )
            _write(scan.to_csv(), args.out)
            fallbacks = sum(scan.fd_derivative_fallbacks)
            if fallbacks:
                # only SILW rows take derivatives of the boundary data
                kd, d = args.silw
                print(
                    f"warning: S{kd}ILW{d} needs boundary-data derivatives the Gaussian pulse has "
                    f"no closed form for; finite differences used at {fallbacks} of "
                    f"{sigma_grid.size} offsets",
                    file=sys.stderr,
                )
            return EXIT_OK

        # check and curve: one pair at the offset --sigma
        bc = boundary_at(s.lam, args.sigma)
        if args.command == "check":
            verdict = analyze(s, bc, tols=tols, n0=n0)
            _write(verdict.to_json() + "\n", args.out)
            return _STATUS_EXIT[verdict.status]
        with np.errstate(all="ignore"):  # a curve that is not finite is refused, without numpy's warnings
            params, points = sample_kl_curve(s, reduce_boundary(s, bc), n0=n0, normalize=not args.no_normalize)
        check_finite(points)
        _write(curve_to_csv(params, points), args.out)
        return EXIT_OK
    except (UsageError, OSError, ValueError, ArithmeticError, KLStabError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
