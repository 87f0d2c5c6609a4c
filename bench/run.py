"""Seeded, accuracy-checked benchmark of vexmod.

    python3 bench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; vexmod is imported from ``src/``.
Every workload is a closed loop with one client on one thread: a step starts
when the previous one returns.  The timed loop runs for ``--seconds`` and
then to the end of the current stratum cycle, so each run sees the same mix
of inputs; ``--ops N`` runs exactly N steps instead.  Between steps, never
inside one, fixed calibration kernels time the machine's current speed, and
the gated times count reference seconds (see ``calibrate``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
steps twice, untraced then traced, and prints the per-layer metrics and the
tracing overhead; spans and layer totals go to ``.bench_out/``.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import time

T_INTERPRETER = time.monotonic_ns()

import argparse  # noqa: E402
from array import array  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("batch", "sweep", "oracle", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
# In-process vexmod.cli.main calls per subcommand timed in every traced run.
CLI_PROBE_CYCLES = 3
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Calls of each calibration kernel per calibration, the step time after
# which the next step boundary calibrates (every cycle boundary does), and
# what calibrate() returns on the reference machine (2-vCPU Intel Xeon VM,
# CPython 3.11.7, numpy 2.4.6, in its faster state): that machine's speed
# defines one reference second.
CALIBRATION_REPEATS = 3
CALIBRATION_INTERVAL_S = 0.05
REF_CALIBRATION_S = 1.9e-4
# Gated end-to-end metrics, the ones in the result line.  setup_s and
# ops_per_ref_s count time in reference seconds (see calibrate()), so that
# the machine's drifting speed moves them little.  ok_frac is the share of
# ops that pass every check; unlike failed_frac and wrong_frac it is never
# 0, so a bound relative to its median stays meaningful.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref_s": "1/ref_s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}
# Printed end-to-end metrics that are not gated: the wall-clock set-up time
# and rate, the median and the tail move with the machine's speed, and the
# accuracy figures can be 0 or vary by orders of magnitude between seeds.
DETAIL_UNITS = {
    "setup_wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_frac": "fraction",
    "wrong_frac": "fraction",
    "rel_err_p50": "1",
    "rel_err_max": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many steps")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        ap.error("--seconds and --ops must be positive")
    return args


def set_up(workload: str):
    """Everything a process does before its first timed step.

    Returns the workload and the monotonic times after numpy and after
    vexmod were imported.  Thread pools are pinned before numpy loads.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy  # noqa: F401

    t_numpy = time.monotonic_ns()
    sys.path.insert(0, str(SRC))
    import vexmod

    if Path(vexmod.__file__).resolve().parent != (SRC / "vexmod").resolve():
        raise RuntimeError(f"imported vexmod from {vexmod.__file__}, not from {SRC}")
    t_vexmod = time.monotonic_ns()
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.warmup()
    return wl, t_numpy, t_vexmod


def probe_setup(workload: str) -> dict:
    """Time fresh processes from launch to ready-for-the-first-step.

    Each sample is also scaled to the reference machine speed by the
    calibration measured just before and just after its process.
    """
    samples = []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        marks = json.loads(proc.stdout.strip().splitlines()[-1])
        sample = {k: (v - t0) / 1e6 for k, v in marks.items()}
        cal_before, cal = cal, calibrate()
        sample["ready_ref"] = sample["ready"] * REF_CALIBRATION_S / (0.5 * (cal_before + cal))
        samples.append(sample)
    med = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    return {
        "setup_s": med["ready_ref"] / 1e3,
        "setup_wall_s": med["ready"] / 1e3,
        "interpreter_ms": med["interpreter"],
        "startup_floor_ms": med["numpy"],
        "import_ms": med["vexmod"] - med["numpy"],
        "samples_s": [s["ready"] / 1e3 for s in samples],
    }


def calibrate() -> float:
    """Seconds per call of fixed kernels that do not use vexmod.

    On a shared VM the speed of one process drifts by up to 2x within a
    minute, and by different amounts for different kinds of work.  The
    kernels stand for the three kinds vexmod does: a Python loop of numpy
    ufuncs on 201 nodes (a bisection solve), ufuncs on 20001 nodes (a large
    sweep row) and sorts of 2000 values (the grid oracle's projection).  The
    result is the geometric mean of each kernel's median call time; scaling
    a time by it removes most of the drift but none of vexmod's own speed.
    """
    import numpy as np

    short, long = np.linspace(1.0, 2.0, 201), np.linspace(1.0, 2.0, 20001)
    unsorted = np.sin(np.arange(2000.0))  # a fixed shuffle; numpy.random would add to peak_rss_mb

    def simpson(x, passes: int) -> None:
        for k in range(passes):
            y = np.exp(-(1.0 + 0.01 * k) * np.log(x)) * x
            float(y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1])

    def sorts() -> None:
        for _ in range(20):
            np.sort(unsorted)

    kernels = (lambda: simpson(short, 30), lambda: simpson(long, 3), sorts)
    log_sum = 0.0
    for kernel in kernels:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        log_sum += math.log(statistics.median(times))
    return math.exp(log_sum / len(kernels))


class Tally:
    """What a run keeps per operation.

    Latencies and relative errors are packed doubles and everything else is a
    count or a bounded list, so that the harness's own memory, which is part
    of peak_rss_mb, barely grows with the number of operations.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.rel_errs = array("d")
        self.statuses: Counter = Counter()
        self.examples: dict = {}
        self.by_command: dict = defaultdict(lambda: [0, 0.0])  # first label word -> steps, ms
        self.cycle_rates = array("d")  # ops per second of each completed stratum cycle
        self.ref_rates = array("d")  # the same, in reference seconds
        self.cycle_ops, self.cycle_s, self.cycle_ref_s = 0, 0.0, 0.0
        self.uncalibrated_s = 0.0  # step time since the last calibration
        self.calibration_s = 0.0  # time spent calibrating, outside every step
        self.calibrations = array("d")

    def calibrate(self, cal_before: float) -> float:
        """Convert the step time since the last calibration to reference
        seconds by the calibrations on either side; returns the new one."""
        t0 = time.perf_counter()
        cal = calibrate()
        self.calibrations.append(cal)
        self.cycle_ref_s += self.uncalibrated_s * REF_CALIBRATION_S / (0.5 * (cal_before + cal))
        self.uncalibrated_s = 0.0
        self.calibration_s += time.perf_counter() - t0
        return cal

    def close_cycle(self) -> None:
        self.cycle_rates.append(self.cycle_ops / self.cycle_s)
        self.ref_rates.append(self.cycle_ops / self.cycle_ref_s)
        self.cycle_ops, self.cycle_s, self.cycle_ref_s = 0, 0.0, 0.0

    def add(self, label: str, outs: list, dt_ms: float) -> None:
        entry = self.by_command[label.split()[0]]
        entry[0] += 1
        entry[1] += dt_ms
        self.cycle_ops += len(outs)
        self.cycle_s += dt_ms / 1e3
        self.uncalibrated_s += dt_ms / 1e3
        for out in outs:
            # A step holding several operations (a sweep's rows) shares its time.
            self.latencies.append(dt_ms / len(outs))
            self.statuses[out.status] += 1
            if out.rel_err is not None:
                self.rel_errs.append(out.rel_err)
            if out.status != "ok":
                examples = self.examples.setdefault(out.status, [])
                if len(examples) < 8:
                    examples.append(f"{label}: {out.detail}"[:300])


def run_steps(wl, seed: int, seconds: float, ops: int | None, inprocess: bool, tracer=None):
    """Closed loop over the seeded stream; returns its tally, steps and time."""
    import workloads

    stream = wl.steps(seed, inprocess)
    tally = Tally()
    steps = 0
    cal = calibrate()
    t_start = time.perf_counter()
    deadline, hard_stop = t_start + seconds, t_start + 2 * seconds
    while True:
        if steps and steps % wl.cycle == 0:
            cal = tally.calibrate(cal)
            tally.close_cycle()
        elif tally.uncalibrated_s >= CALIBRATION_INTERVAL_S:
            cal = tally.calibrate(cal)
        if ops is not None:
            if steps >= ops:
                break
        else:
            now = time.perf_counter()
            if steps and ((now >= deadline and steps % wl.cycle == 0) or now >= hard_stop):
                break
        step = next(stream)
        if tracer is not None:
            tracer.step_id = steps
        t0 = time.perf_counter()
        outs = workloads.guarded(step.run)
        tally.add(step.label, outs, (time.perf_counter() - t0) * 1e3)
        steps += 1
    if not tally.cycle_rates:  # a run shorter than one cycle
        tally.calibrate(cal)
        tally.close_cycle()
    return tally, steps, time.perf_counter() - t_start - tally.calibration_s


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least 10 of n samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n - math.ceil(p / 100.0 * n) >= 10), 50.0)


def summarize(tally: Tally, elapsed: float) -> dict:
    n = len(tally.latencies)
    tail_pct = tail_percentile(n)
    rank = max(1, math.ceil(tail_pct / 100.0 * n))  # nearest rank
    rel = sorted(tally.rel_errs)
    counts = tally.statuses
    return {
        "ops": n,
        "elapsed_s": elapsed,
        # Medians over stratum cycles, so that a burst of load from outside
        # the benchmark moves them less than it moves the overall rate.
        "ops_per_ref_s": statistics.median(tally.ref_rates),
        "ops_per_s": statistics.median(tally.cycle_rates),
        "ops_per_s_overall": n / elapsed,
        "calibration_p50_s": statistics.median(tally.calibrations),
        "cycles": len(tally.cycle_rates),
        "op_p50_ms": statistics.median(tally.latencies),
        "op_tail_ms": sorted(tally.latencies)[rank - 1],
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": n - rank,
        "failed": counts["failed"],
        "wrong": counts["wrong"],
        "unexpected": counts["unexpected"],
        "ok_frac": counts["ok"] / n,
        "failed_frac": counts["failed"] / n,
        "wrong_frac": counts["wrong"] / n,
        "rel_err_p50": statistics.median(rel) if rel else None,
        "rel_err_max": rel[-1] if rel else None,
        "rel_err_count": len(rel),
    }


def machine(probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
        "cli.startup_floor_ms": probe["startup_floor_ms"],
        "interpreter_start_ms": probe["interpreter_ms"],
    }


def cli_main_times(tally: Tally) -> dict:
    from tracing import CLI_COMMANDS

    return {
        f"cli.main_ms.{c}": tally.by_command[c][1] / tally.by_command[c][0] if tally.by_command[c][0] else 0.0
        for c in CLI_COMMANDS
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vexmod" / "__init__.py").is_file():
        print(f"error: no vexmod sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    wl, t_numpy, t_vexmod = set_up(args.workload)
    if args.setup_probe:
        marks = {"interpreter": T_INTERPRETER, "numpy": t_numpy, "vexmod": t_vexmod, "ready": time.monotonic_ns()}
        print(json.dumps(marks))
        return 0

    import reference
    import workloads

    panel_problems = reference.self_check()
    inprocess = args.workload != "cli" or bool(args.trace)
    seconds = args.seconds / 2 if args.trace else args.seconds
    tally, steps, elapsed = run_steps(wl, args.seed, seconds, args.ops, inprocess)
    usage = resource.RUSAGE_SELF if inprocess else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    summary = summarize(tally, elapsed)

    extra = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced, _, _ = run_steps(wl, args.seed, seconds, steps, inprocess, tracer)
        untraced_ms = sum(tally.latencies)
        extra["trace.overhead_pct"] = 100.0 * (sum(traced.latencies) - untraced_ms) / untraced_ms
        cli = workloads.WORKLOADS["cli"]
        cli_calls, _, _ = run_steps(cli, args.seed, 0.0, CLI_PROBE_CYCLES * cli.cycle, inprocess=True)
        extra.update(cli_main_times(cli_calls))

    probe = probe_setup(args.workload)
    summary["setup_s"] = probe["setup_s"]
    summary["setup_wall_s"] = probe["setup_wall_s"]
    summary["peak_rss_mb"] = peak_rss_mb
    # The result line's "failed" counts the ops the benchmark could not run
    # or judge.  The library's documented errors and wrong answers on the
    # known defects are outcomes it measures: they stay in the draw, show in
    # failed_frac and wrong_frac, and are gated through ok_frac.
    n_failed = summary["unexpected"]
    correct = not panel_problems and n_failed == 0

    if args.trace:
        extra["cli.startup_floor_ms"] = probe["startup_floor_ms"]
        extra["cli.import_ms"] = probe["import_ms"]
        metrics = tracing.layer_values(tracer, summary["ops"], extra)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()))
        moves = {name: why for name, _, why in tracing.LAYER_METRICS}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        trace_path, moves = None, {}

    print(f"workload {wl.name}: {wl.why}")
    print(f"  seed {args.seed}, {steps} steps, {summary['ops']} ops in {elapsed:.3f} s, "
          f"closed loop, 1 client, 1 thread{', traced' if args.trace else ''}")
    for name, m in metrics.items():
        note = f"   -> {moves[name]}" if name in moves else ""
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{note}")
    for name, unit in DETAIL_UNITS.items():
        value = summary[name]
        print(f"  {name:<32} {'n/a' if value is None else f'{value:>14.6g}'} {unit}")
    print(f"  op_tail_ms is p{summary['op_tail_percentile']:g} of {summary['ops']} ops, "
          f"{summary['op_tail_beyond']} beyond it; "
          f"rel_err_* over {summary['rel_err_count']} ops with a reference")
    if panel_problems:
        print(f"  reference panel self-check FAILED: {panel_problems}")
    detail = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(probe),
        "metrics": {k: {"value": summary[k], "unit": u} for k, u in {**END_TO_END_UNITS, **DETAIL_UNITS}.items()},
        "summary": summary,
        "setup_samples_s": probe["samples_s"],
        "tolerances": {"rel_tol": workloads.REL_TOL, "oracle_agreement": workloads.ORACLE_AGREEMENT},
        "not_ok": tally.examples,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": summary["ops"], "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
