"""klstab benchmark: one workload per invocation, end-to-end or traced.

Usage, from the root of a klstab checkout::

    python3 perfbench/run.py --workload fig6-panel --seed 1 --seconds 20 --trace 0

Workloads: fig6-panel, window-edges, sigma-map, sigma-scan-sim (see
perfbench/README.md). With ``--trace 0`` the run times whole passes of the
workload until ``--seconds`` would be exceeded (at least one pass) and
reports the end-to-end metrics, with operation times scaled to a host of
fixed speed (see ``HostSpeed``); with ``--trace 1`` it runs one untraced and
one traced pass and reports the per-layer metrics. Either way it first
times several fresh-interpreter starts for ``setup_s``, checks every output
and prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it name every
metric with its unit and sample count and record the environment.

No BLAS or OpenMP thread variable is set: the benchmark measures the
threading users get. ``--toy`` runs tiny sizes without reference outputs,
for the smoke test.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# ``analyze`` samples the curve at n0 + 1 = 1025 points before any refinement.
FIRST_PASS_SAMPLES = 1025
# Host-speed probe: timed at most every PROBE_INTERVAL_S between operations;
# times are reported as on a host where one probe takes PROBE_REF_S.
PROBE_INTERVAL_S = 0.3
PROBE_REF_S = 0.03
_PROBE_COEFFS = np.random.default_rng(0).standard_normal(9)
_PROBE_Z = np.exp(2j * np.pi * np.arange(1025) / 1024)
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="klstab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, no reference outputs")
    return parser.parse_args(argv)


def environment(root: str) -> dict:
    import numpy as np
    import scipy

    sha = None
    # only this checkout's own repository: git would otherwise report an enclosing one
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "klstab", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class PeakRss:
    """Peak RSS of this process plus the peaks (VmHWM) of the children alive together.

    A thread polls the live children; a pool's workers overlap in time, so
    their peaks add up, while pools started one after another do not.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _poll(self) -> None:
        live_kb = 0
        for listing in glob.glob("/proc/self/task/*/children"):
            try:
                with open(listing) as fh:
                    pids = fh.read().split()
            except OSError:
                continue
            for pid in pids:
                try:
                    with open(f"/proc/{pid}/status") as fh:
                        live_kb += next((int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), 0)
                except (OSError, ValueError):
                    continue
        self.children_kb = max(self.children_kb, live_kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._poll()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self.children_kb) / 1024.0


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that runs no klstab code.

    It mixes interpreted arithmetic with small numpy calls (a polynomial on
    1025 unit-circle points, phase unwrapping, a companion-matrix root
    solve), the same kinds of work an ``analyze`` call does.
    """
    t0 = perf_counter()
    total = 0
    for k in range(20_000):
        total += k * k
    for _ in range(200):
        np.unwrap(np.angle(np.polyval(_PROBE_COEFFS, _PROBE_Z)))
        np.roots(_PROBE_COEFFS)
    return perf_counter() - t0


class HostSpeed:
    """Scales measured times to a host of fixed speed.

    The shared host this benchmark runs on speeds up and slows down by 20 to
    50 % for seconds to minutes at a time, for every process alike. A fixed
    probe timed between operations tracks that drift: an operation's time
    multiplied by ``PROBE_REF_S`` over the mean of the probes just before and
    just after it is its time on a host where the probe takes
    ``PROBE_REF_S``. A change to klstab moves the operation, never the probe.
    """

    def __init__(self):
        self.calls = 0
        self.marks = []  # (index of the next operation, probe seconds)
        self._last = -math.inf

    def between(self) -> None:
        if perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.marks.append((self.calls, host_probe()))
            self._last = perf_counter()
        self.calls += 1

    def factors(self) -> List[float]:
        """One factor per operation so far, in the order the operations ran."""
        marks = self.marks + [(self.calls, host_probe())]
        out, j = [], 0
        for k in range(self.calls):
            while marks[j + 1][0] <= k:
                j += 1
            out.append(PROBE_REF_S / (0.5 * (marks[j][1] + marks[j + 1][1])))
        return out


def setup_probes(root: str, workload: str, seed: int, toy: bool) -> List[dict]:
    """Time fresh interpreters from spawn to their first completed operation.

    Left unscaled: a cold start is mostly reading and compiling modules,
    which the host probe does not track.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    if toy:
        cmd.append("--toy")
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out")
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        probes.append(dict(json.loads(line), wall_s=wall))
    return probes


def timed_passes(workload, inputs, seconds: float, between):
    """Closed loop of whole passes; another pass starts only if it should end within ``seconds``."""
    results, times = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(workload.run_pass(inputs, between))
        times.append(perf_counter() - t0)
        if perf_counter() - start + times[-1] > seconds:
            return results, times


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def load_reference(name: str, seed: int) -> Optional[dict]:
    path = os.path.join(HERE, "reference", f"seed-{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(name)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def show(name: str, value: float, unit: str, n=None) -> None:
    count = "" if n is None else f"  (n={n})"
    print(f"  {name:<44} {value:>14.6g} {unit}{count}")


def check_outputs(workload, inputs, results, reference, parity):
    """Failed operations and checks, the number of whole-run checks, and notes on failures."""
    failed, checks, notes = workload.check(inputs, results, reference)
    if parity is not None:
        checks += 1
        if not parity[1]:
            failed += 1
            notes.append("jobs=1 and jobs=2 sweeps wrote different CSV bytes")
    return failed, checks, notes


def run_untraced(seconds, workload, inputs, reference, probes):
    speed = HostSpeed()
    scaled = getattr(workload, "host_scaled", True)
    with PeakRss() as rss:
        results, times = timed_passes(workload, inputs, seconds, speed.between if scaled else lambda: None)
        factors = speed.factors() if scaled else [1.0] * sum(len(r.latencies) for r in results)
        parity = workload.parity(inputs, results[0]) if hasattr(workload, "parity") else None
    failed, checks, notes = check_outputs(workload, inputs, results, reference, parity)
    ops = sum(r.ops for r in results)
    raw = [t for r in results for t in r.latencies]
    assert len(raw) == len(factors), "every timed operation follows one between() call"
    scaled_times = iter(f * t for f, t in zip(factors, raw))
    passes = [[next(scaled_times) for _ in r.latencies] for r in results]
    # a pass's time is the sum of its operations; an operation's, its median over the passes
    pass_s = [sum(p) for p in passes]
    per_op = [statistics.median(op) for op in zip(*passes)]
    setup_s = statistics.median(p["wall_s"] for p in probes)
    wall_s = statistics.median(pass_s)
    rate = (results[0].work or results[0].ops) / wall_s
    p50 = 1e3 * statistics.median(per_op)

    print(f"{workload.name}: {len(times)} pass(es) of {results[0].ops} {workload.op_unit}s; " + (
        f"operation times scaled to a {PROBE_REF_S * 1e3:g} ms host probe ({len(speed.marks) + 1} probes, "
        f"median {1e3 * PROBE_REF_S / statistics.median(factors):.2f} ms)" if scaled else "unscaled times"))
    show("setup_s", setup_s, "s", len(probes))
    show("wall_s", wall_s, "s", len(times))
    show(workload.rate_name, rate, "1/s", len(times))
    show(workload.latency_name, p50, "ms", len(per_op))
    if len(raw) >= 1000:
        show(workload.latency_name.replace("p50", "p99"),
             1e3 * percentile([t for p in passes for t in p], 0.99), "ms", len(raw))
    show("failed_frac", failed / (ops + checks), "ratio", ops + checks)
    show("peak_rss_mb", rss.mb(), "MB")
    show("unscaled wall_s", statistics.median(times), "s", len(times))
    for note in notes[:20]:
        print(f"  FAILED {note}")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "ops_per_s": metric(rate, "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "peak_rss_mb": metric(rss.mb(), "MB"),
    }
    return failed, ops + checks, metrics


def run_traced(workload, inputs, reference, probes, spans_path):
    import tracing
    import workloads

    t0 = perf_counter()
    untraced = workload.run_pass(inputs)
    untraced_wall = perf_counter() - t0
    parity = workload.parity(inputs, untraced) if hasattr(workload, "parity") else None
    tracer = tracing.Tracer().install()
    try:
        t0 = perf_counter()
        # the pool's children cannot report spans, so the traced sweep runs in-process
        traced = workload.run_pass(inputs, jobs=1) if parity is not None else workload.run_pass(inputs)
        traced_wall = perf_counter() - t0
    finally:
        tracer.close()
    tracer.write(spans_path)

    failed, checks, notes = check_outputs(workload, inputs, [untraced, traced], reference, parity)
    efficiency = 0.0
    baseline_wall = untraced_wall
    if parity is not None:
        efficiency = parity[0] / (workloads.MAP_JOBS * untraced_wall)
        baseline_wall = parity[0]

    spans = tracer.spans
    stats = tracing.layer_stats(spans)

    def self_ms(name):
        s = stats.get(name)
        return 1e3 * s.self_s / s.calls if s else 0.0

    def share(name):
        return stats[name].self_s / traced_wall if name in stats else 0.0

    windings = [s.info for s in spans if s.name == "winding.winding_number"]
    ibvps = [s.info for s in spans if s.name == "simulator.run_ibvp" and s.info]
    bisects = {i for i, s in enumerate(spans) if s.name == "analyzer.bisect_stability_edge"}
    bisect_analyze = sum(1 for s in spans if s.name == "analyzer.analyze" and s.parent in bisects)
    top_level = sum(s.end - s.start for s in spans if s.parent is None)
    self_total = sum(s.self_s for s in stats.values())
    classify = stats.get("analyzer.classify_boundary_zero")
    to_csv = stats.get("cli.to_csv")

    values = {
        "winding.winding_number.self_ms": (self_ms("winding.winding_number"), "ms"),
        "winding.winding_number.share": (share("winding.winding_number"), "ratio"),
        "winding.curve_evaluations": (sum(w.get("samples", 0) for w in windings), "count"),
        "winding.refined_frac": (
            sum(w.get("samples", 0) > FIRST_PASS_SAMPLES for w in windings) / len(windings)
            if windings else 0.0, "ratio"),
        "winding.origin_on_curve": (sum(bool(w.get("origin_on_curve")) for w in windings), "count"),
        "winding.sample_kl_curve.self_ms": (self_ms("winding.sample_kl_curve"), "ms"),
        "scheme.validate.self_ms": (self_ms("scheme.validate"), "ms"),
        "scheme.validate.share": (share("scheme.validate"), "ratio"),
        "kl.reduce_boundary.self_ms": (self_ms("kl.reduce_boundary"), "ms"),
        "kl.reduce_boundary.share": (share("kl.reduce_boundary"), "ratio"),
        "kl.exterior_zero_count_direct.self_ms": (self_ms("kl.exterior_zero_count_direct"), "ms"),
        "analyzer.analyze.self_ms": (self_ms("analyzer.analyze"), "ms"),
        "analyzer.classify_boundary_zero.calls": (classify.calls if classify else 0, "count"),
        "analyzer.classify_boundary_zero.self_ms": (self_ms("analyzer.classify_boundary_zero"), "ms"),
        "analyzer.bisect_stability_edge.analyze_calls": (
            bisect_analyze / len(bisects) if bisects else 0.0, "count"),
        "analyzer.sweep.parallel_efficiency": (efficiency, "ratio"),
        "cli.to_csv_ms": (1e3 * to_csv.total_s / to_csv.calls if to_csv else 0.0, "ms"),
        "simulator.run_ibvp.self_ms": (self_ms("simulator.run_ibvp"), "ms"),
        "simulator.cell_updates": (sum(i["cell_updates"] for i in ibvps), "count"),
        "simulator.blowup_frac": (sum(i["blowup"] for i in ibvps) / len(ibvps) if ibvps else 0.0, "ratio"),
        "simulator.fd_fallback": (sum(i["fd_fallback"] for i in ibvps), "count"),
        "setup.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "setup.first_call_s": (statistics.median(p["first_call_s"] for p in probes), "s"),
        "trace.overhead_s": (traced_wall - baseline_wall, "s"),
        "trace.coverage": (top_level / traced_wall, "ratio"),
    }

    print(f"{workload.name} traced: {len(spans)} spans written to {spans_path}")
    for name, (value, unit) in values.items():
        show(name, value, unit)
    print(f"  account: span self times {self_total:.4f} s + outside spans "
          f"{traced_wall - top_level:.4f} s = traced wall {traced_wall:.4f} s; "
          f"untraced wall {baseline_wall:.4f} s + overhead {traced_wall - baseline_wall:.4f} s")
    for name in sorted(stats, key=lambda n: -stats[n].self_s):
        s = stats[name]
        print(f"    {name:<40} calls {s.calls:>7}  self {s.self_s:9.4f} s  share {s.self_s / traced_wall:6.1%}")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    ops = untraced.ops + traced.ops
    return failed, ops + checks, {name: metric(v, unit) for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "klstab", "__init__.py")):
        print("error: src/klstab not found; run from the root of a klstab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import klstab
    import workloads

    if not os.path.abspath(klstab.__file__).startswith(os.path.join(root, "src")):
        print(f"error: klstab imported from {klstab.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.TOY if args.toy else workloads.FULL
    print("env " + json.dumps(environment(root), sort_keys=True))

    probes = setup_probes(root, workload.name, args.seed, args.toy)
    inputs = workload.inputs(args.seed, sizes)
    workload.first_op(inputs)  # in-process warm-up; set-up cost is what the probes measure
    reference = None if args.toy else load_reference(workload.name, args.seed)
    print(f"reference outputs: {'seed-%d.json' % args.seed if reference else 'none for this seed'}")
    if args.trace:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(workloads.OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
        failed, attempted, metrics = run_traced(workload, inputs, reference, probes, spans_path)
    else:
        failed, attempted, metrics = run_untraced(args.seconds, workload, inputs, reference, probes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
