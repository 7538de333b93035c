"""Benchmark of the qiul command line: four seeded closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload edge-sim --seed 1 --seconds 20 --trace 0

One client in one process calls `qiul.cli.main([...])` in a closed
loop, each call followed by a check of its outputs, over whole cycles of
the workload's cases until `--seconds` of operation time have been
measured. With `--trace 0` the last line of standard output is the
end-to-end result; with `--trace 1` every operation is followed by a
traced run of the same case and the last line carries the per-layer
metrics. The line
before it is a report with provenance, sample counts and the per-layer
table. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import ROOT_SPAN, Instrumentation, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WALL_LIMIT_S = 150.0  # start no cycle that could end past this
SETUP_REPEATS = 5
CALIBRATION_REF_S = 4.7e-3  # the probe's median on the reference host
CALIBRATION_EVERY_S = 0.25
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qiul.cli; "
              "qiul.cli.load_config(sys.argv[2])")

BUSY_LAYERS = [
    "dpsh.synthesize_stack", "dpsh.save_stack", "dpsh.load_stack", "dpsh.demodulate",
    "dpsh.select_max_row", "dpsh.write_image_csv", "imaging.write_profile_csv",
    "imaging.read_profile_csv", "spreads.extract", "spreads.spread_g_esf_numeric",
    "spreads.theory_sweep_rows", "spreads.write_sweep_csv", "fitting.least_squares_fit",
    "fitting.fit_edge_profiles", "fitting.fit_double_slit", "core.load_config",
    "pipeline.write_json",
]
SELF_LAYERS = {
    "cli.main.self_ms": ["cli.main"],
    "pipeline.self_ms": ["pipeline.simulate_edge", "pipeline.analyze_stack"],
}
COUNTS = {
    "dpsh.save_stack.bytes": "B_computed",
    "dpsh.load_stack.bytes": "B_computed",
    "dpsh.write_image_csv.bytes": "B_computed",
    "spreads.spread_g_esf_numeric.calls": "count",
    "imaging.g_esf_derivative.points": "count",
    "core.validate_params.calls": "count",
    "fitting.least_squares_fit.calls": "count",
    "fitting.least_squares_fit.iterations": "count",
    "fitting.least_squares_fit.model_evals": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["edge-sim", "stack-reanalysis", "theory-sweep", "slit-fits"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure, rounded up to whole cycles")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--cycles", type=int, default=None,
                        help="measure exactly this many cycles instead of --seconds")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


class HostSpeed:
    """A fixed probe of interpreter, numpy and number-formatting work that
    depends on nothing in this repository, timed between operations. The
    host's speed drifts by 20-30% over tens of seconds; dividing a run's
    times by the probe's median over the same run, relative to
    CALIBRATION_REF_S, takes that drift out of the bounded metrics."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.x = numpy.linspace(0.0, 5.0, 20000)
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        y = self.np.exp(-self.x ** 2)
        self.np.sort(self.np.sin(self.x * 7.3))
        ",".join(format(v, ".17g") for v in y[:1500])
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.probe()

    def factor(self) -> float:
        """Host slowness relative to the reference: > 1 when slower."""
        return statistics.median(self.samples) / CALIBRATION_REF_S


def measure_setup(config: Path, repeats: int, host: HostSpeed) -> list[float]:
    """Wall time of fresh interpreters that import qiul.cli and load a
    config, as every CLI invocation does before any work."""
    times = []
    for _ in range(repeats):
        host.probe()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def tree_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs and checks operations; remembers each case's first output."""

    def __init__(self, workload, ops_dir: Path, instrumentation, host: HostSpeed):
        from qiul import cli

        self.main = cli.main
        self.workload = workload
        self.ops_dir = ops_dir
        self.instrumentation = instrumentation
        self.host = host
        self.tracer = instrumentation.tracer
        self.first: dict[str, tuple[str, float]] = {}  # case key -> (digest, error)
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []

    def op(self, case, traced: bool = False) -> tuple[float, bool]:
        """One timed CLI call and its check; returns (seconds, passed)."""
        out = self.ops_dir / f"{self.attempted:05d}"
        argv = [*case.args, "--out", str(out)]
        self.tracer.op = self.attempted
        self.attempted += 1
        self.host.maybe_probe()
        sink = io.StringIO()
        if traced:
            self.instrumentation.install()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                if traced:
                    rc = self.tracer.call(ROOT_SPAN, self.main, (argv,), {})
                else:
                    rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        if traced:
            self.instrumentation.remove()
        try:
            if traced:
                self.tracer.end_op()
            if rc != 0:
                raise RuntimeError(f"exit {rc!r}: {sink.getvalue().strip()[-300:]}")
            self.errors.append(self.check(case, out))
            return elapsed, True
        except Exception as exc:  # any checking error marks the operation failed
            self.failures.append(f"{case.key}: {type(exc).__name__}: {exc}")
            return elapsed, False
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, case, out: Path) -> float:
        digest = tree_digest(out)
        if case.key not in self.first:
            self.first[case.key] = (digest, self.workload.verify(case, out))
        elif digest != self.first[case.key][0]:
            raise RuntimeError("outputs differ from the first run of the same case")
        return self.first[case.key][1]

    def outputs_digest(self) -> str:
        return hashlib.sha256(
            "".join(f"{k}:{v[0]}\n" for k, v in sorted(self.first.items())).encode()
        ).hexdigest()


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: the value,
    its percentile rank and the number of samples beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def layer_metrics(tracer, n: int, overhead_ms: list[float]) -> tuple[dict, dict]:
    """Per-operation means over the n traced operations."""
    layers = tracer.layers()
    metrics = {}
    for name in BUSY_LAYERS:
        metrics[f"{name}.busy_ms"] = (layers.get(name, {}).get("busy", 0.0) * 1e3 / n, "ms")
    for metric, names in SELF_LAYERS.items():
        total = sum(layers.get(name, {}).get("self", 0.0) for name in names)
        metrics[metric] = (total * 1e3 / n, "ms")
    counts = dict(tracer.counts)
    for name in ("spreads.spread_g_esf_numeric", "fitting.least_squares_fit"):
        counts[f"{name}.calls"] = layers.get(name, {}).get("calls", 0)
    for metric, unit in COUNTS.items():
        metrics[metric] = (counts.get(metric, 0) / n, unit)
    root = layers.get("cli.main", {}).get("busy", 0.0)
    metrics["trace.op_ms"] = (root * 1e3 / n, "ms")
    metrics["trace.self_sum_ms"] = (sum(v["self"] for v in layers.values()) * 1e3 / n, "ms")
    metrics["trace.overhead_ms"] = (statistics.median(overhead_ms), "ms")
    table = {name: {"busy_ms": v["busy"] * 1e3 / n, "self_ms": v["self"] * 1e3 / n,
                    "calls": v["calls"] / n} for name, v in sorted(layers.items())}
    return metrics, table


def run(args) -> int:
    if not (SRC / "qiul" / "cli.py").is_file():
        print(f"error: no qiul sources at {SRC}; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qiul

    if Path(qiul.__file__).resolve().parent != (SRC / "qiul").resolve():
        print(f"error: imported qiul from {qiul.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        host = HostSpeed()
        setup_times = measure_setup(workload.setup_config, 2 if args.tiny else SETUP_REPEATS, host)
        workload.prepare()
        runner = Runner(workload, work / "ops", Instrumentation(Tracer()), host)
        return measure(args, workload, runner, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure(args, workload, runner, setup_times) -> int:
    started = perf_counter()
    runner.op(workload.cases[0])  # warm-up: lazy imports and caches, not measured
    untraced, traced, overhead = [], [], []
    cycle_p50_ms = []
    measured = 0.0
    cycles = 0
    while True:
        cycle_start = perf_counter()
        cycle_ms = []
        for case in workload.cases:
            elapsed, passed = runner.op(case)
            measured += elapsed
            cycle_ms.append(elapsed * 1e3)
            if passed:
                untraced.append(elapsed * 1e3)
            if args.trace:
                # the traced run of the same case follows at once, so the
                # pair's difference is the tracing overhead, not host drift
                elapsed_traced, passed_traced = runner.op(case, traced=True)
                measured += elapsed_traced
                if passed_traced:
                    traced.append(elapsed_traced * 1e3)
                    if passed:
                        overhead.append((elapsed_traced - elapsed) * 1e3)
        cycle_p50_ms.append(statistics.median(cycle_ms))
        cycles += 1
        if cycles >= args.cycles if args.cycles else measured >= args.seconds:
            break
        if perf_counter() - started + (perf_counter() - cycle_start) > WALL_LIMIT_S:
            break

    failed = len(runner.failures)
    correct = failed == 0
    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "operations": {
            "attempted": runner.attempted,
            "failed": failed,
            "failed_fraction": failed / runner.attempted,
            "warm_up": 1,
            "measured_untraced": len(untraced),
            "measured_traced": len(traced),
            "cycles": cycles,
            "cases_per_cycle": len(workload.cases),
            "measured_s": measured,
            "cycle_p50_ms": cycle_p50_ms,
        },
        "setup_runs_s": setup_times,
        "host_probe": {"median_ms": statistics.median(runner.host.samples) * 1e3,
                       "samples": len(runner.host.samples), "factor": runner.host.factor()},
        "outputs_sha256": runner.outputs_digest(),
        "failures": runner.failures[:10],
    }
    if not untraced or (args.trace and not overhead):
        metrics = {}
    elif args.trace:
        layer, table = layer_metrics(runner.tracer, len(traced), overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["layers"] = table
    else:
        tail_ms, tail_pct, beyond = tail(untraced)
        raw = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": statistics.median(untraced),
            "ops_per_s": len(untraced) / (sum(untraced) / 1e3),
        }
        report["measured"] = raw
        slow = runner.host.factor()
        metrics = {
            "setup_s": {"value": raw["setup_s"] / slow, "unit": "s"},
            "op_p50_ms": {"value": raw["op_p50_ms"] / slow, "unit": "ms"},
            "ops_per_s": {"value": raw["ops_per_s"] * slow, "unit": "1/s"},
            "result_err_max": {"value": max(runner.errors), "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        # reported, not bounded: on operations of ~15 ms this percentile
        # is set by how often the host preempts the process
        report["op_tail"] = {"value_ms": tail_ms, "percentile": tail_pct,
                             "samples": len(untraced), "samples_beyond": beyond}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
