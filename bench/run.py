"""layerfem benchmark: one closed-loop caller, three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload {large-solve,sweep,lemmas} --seed N \
        --seconds S --trace {0,1}

BENCHMARK.json declares sweep and lemmas; large-solve runs the same way by
hand (bench/README.md says why it is left out there).

The program is imported from ./src of the checkout.  With --trace 0 the run
measures the workload untraced and reports the end-to-end metrics; with
--trace 1 it measures half the time untraced and half with spans installed
and reports the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The lines before it
are a readable report: the environment, the pass times, the metrics, and
figures kept out of the JSON: fail_frac (0 when correct), op_p50_s,
op_p90_s (only where >= 10 samples lie above it) and nodes_per_s
(large-solve only).
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# numpy and layerfem are imported by setup(), which times the import.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One caller, no worker threads: BLAS is pinned before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Set-up probes before the timed passes, and as many again after them.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
MODULES = ("__init__", "problem", "calculus", "mesh", "fem", "analysis",
           "verify", "cli", "errors")

# op_p90_s is reported where >= 10 op samples lie above it.
P90_MIN_TAIL = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("large-solve", "sweep", "lemmas"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import workloads (and with it layerfem) from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "layerfem", "__init__.py")):
        raise SystemExit(f"bench: no layerfem sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    if os.path.dirname(workloads.package_dir()) != SRC:
        raise SystemExit(f"bench: imported layerfem from {workloads.package_dir()}, "
                         f"not from {SRC}")
    return workloads


def setup(workload, seed, workdir):
    """Import the program and build the workload's inputs; returns (wl, s)."""
    t0 = time.perf_counter()
    workloads = import_program()
    wl = workloads.WORKLOADS[workload](seed, workloads.load_reference(), workdir)
    return wl, time.perf_counter() - t0


def setup_probe(args):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as workdir:
        _, seconds = setup(args.workload, args.seed, workdir)
    print(json.dumps({"setup_s": seconds}))


def setup_samples(args):
    """Set-up times of fresh interpreters (imports are cached per process)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    samples = []
    for _ in range(SETUP_REPEATS):
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as probe:
            try:
                out, err = probe.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                # SIGTERM, not SIGKILL: the probe then removes its work directory.
                if probe.poll() is None:
                    probe.terminate()
                    probe.wait()
        if probe.returncode != 0:
            raise SystemExit(f"bench: set-up probe exited {probe.returncode}:\n{err}")
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


class Phase:
    """Closed-loop measurement: whole passes within `seconds`."""

    def __init__(self):
        self.op_s = []
        self.pass_s = []
        self.pass_ops = []
        self.nodes = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, wl, seconds, tracer=None, warmup=False):
        """Passes while the next one, judged by the last, ends within `seconds`.

        With `warmup`, one untimed pass comes first, inside `seconds`.  At
        least one timed pass runs.
        """
        deadline = time.perf_counter() + seconds
        last = 0.0
        if warmup:
            last = self._pass(wl, None, timed=False)
        while not self.pass_s or time.perf_counter() + last <= deadline:
            last = self._pass(wl, tracer, timed=True)
            if not self.op_s:
                raise SystemExit("bench: no op completed:\n" + "\n".join(self.errors[:3]))
        return self

    def _pass(self, wl, tracer, timed):
        """Runs and checks one pass; returns its wall time, checks included."""
        start = time.perf_counter()
        # Every pass starts from a collected heap, outside the timed region.
        gc.collect()
        pass_s = 0.0
        done = 0
        for op in wl.pass_ops(tracer):
            self.attempted += 1
            # A failed op is counted, never fatal.  An op that returns is
            # timed even if its gate then fails.
            try:
                t0 = time.perf_counter()
                result = op.run()
                dt = time.perf_counter() - t0
            except Exception:
                self._fail(op)
                continue
            pass_s += dt
            done += 1
            if timed:
                self.op_s.append(dt)
                self.nodes += op.nodes
                if tracer is not None and hasattr(result, "bytes_out"):
                    tracer.counters["cli.bytes_out"] += result.bytes_out
            try:
                op.check(result)
            except Exception:
                self._fail(op)
        if timed:
            self.pass_s.append(pass_s)
            self.pass_ops.append(done)
        return time.perf_counter() - start

    def _fail(self, op):
        self.failed += 1
        self.errors.append(f"{op.label}: {traceback.format_exc(limit=2)}")

    @property
    def wall_s(self):
        """Median timed pass time."""
        return statistics.median(self.pass_s)

    @property
    def ops_per_s(self):
        return statistics.median(n / t for n, t in zip(self.pass_ops, self.pass_s) if t > 0)


def percentile(samples, q):
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))]


def end_to_end(phase, setup_s):
    """The JSON metrics: those that mean the same on every workload.  Per-op
    percentiles swung with the machine's speed more than the per-pass
    medians did, so they go to the readable report only."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (phase.wall_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def loc_counts():
    counts = {}
    for mod in MODULES:
        with open(os.path.join(SRC, "layerfem", mod + ".py"), "rb") as fh:
            counts[f"loc.{mod}"] = fh.read().count(b"\n")
    counts["loc.total"] = sum(counts.values())
    return counts


def per_layer(tracer, untraced, traced):
    """Per-pass span statistics of the traced phase."""
    import spans

    n = len(traced.pass_s)
    m = {}
    for name in sorted(f"{owner}.{fn}" for owner, fns in spans.TARGETS.items()
                       for fn in fns):
        m[f"{name}.calls"] = tracer.calls[name] / n
        m[f"{name}.self_s"] = tracer.self_s[name] / n
    c = tracer.counters
    for key in ("cli.bytes_out", "fem.unknowns", "mesh.nodes",
                "calculus.e.calls", "calculus.e.points"):
        m[key] = c[key] / n
    m["calculus.e.points_per_call"] = (c["calculus.e.points"] / c["calculus.e.calls"]
                                       if c["calculus.e.calls"] else 0.0)
    m["fem.solve_ns_per_unknown"] = (
        1e9 * tracer.self_s["fem.solve_tridiagonal"] / c["fem.unknowns"]
        if c["fem.unknowns"] else 0.0)
    m["fem.residual_max"] = tracer.maxima["fem.residual_max"]
    m["mesh.nodes_over_predicted"] = tracer.maxima["mesh.nodes_over_predicted"]
    m.update(loc_counts())
    m["trace.passes"] = n
    m["trace.untraced_wall_s"] = untraced.wall_s
    m["trace.traced_wall_s"] = traced.wall_s
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    m["trace.top_span_coverage"] = tracer.top_level_s / sum(traced.pass_s)
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_unknown"):
        return "ns"
    if name.startswith("loc."):
        return "lines"
    if name == "cli.bytes_out":
        return "bytes"
    if name in ("fem.residual_max", "mesh.nodes_over_predicted",
                "calculus.e.points_per_call", "trace.top_span_coverage"):
        return "ratio"
    return "count"


def environment(args, wl):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
        "inputs": wl.describe(),
    }


def require_untouched(before, when):
    import spans
    if not spans.untouched(before):
        raise SystemExit(f"bench: layerfem attributes are wrapped {when}")


def untraced_run(args, wl, before):
    """End-to-end metrics; returns (phases, metrics with units, report-only rows)."""
    # Probes on both sides of the timed passes: the median then spans the
    # run instead of one moment of the host's speed.
    setup = setup_samples(args)
    phase = Phase().run(wl, args.seconds, warmup=True)
    require_untouched(before, "in an untraced run")
    setup_s = statistics.median(setup + setup_samples(args))
    metrics = end_to_end(phase, setup_s)
    extra = {"fail_frac": (phase.failed / phase.attempted, "ratio"),
             "op_p50_s": (statistics.median(phase.op_s), "s"),
             "op_samples": (len(phase.op_s), "count")}
    p90 = percentile(phase.op_s, 90)
    tail = sum(t > p90 for t in phase.op_s)
    if tail >= P90_MIN_TAIL:
        extra["op_p90_s"] = (p90, "s")
        extra["op_samples_above_p90"] = (tail, "count")
    if phase.nodes:
        extra["nodes_per_s"] = (phase.nodes / sum(phase.op_s), "1/s")
    return [phase], metrics, extra


def traced_run(args, wl, before):
    """Half the time untraced, half traced; returns per-layer metrics."""
    import spans
    untraced = Phase().run(wl, args.seconds / 2, warmup=True)
    require_untouched(before, "in the untraced phase")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = Phase().run(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    require_untouched(before, "after the traced phase")
    values = per_layer(tracer, untraced, traced)
    return [untraced, traced], {k: (v, unit_of(k)) for k, v in values.items()}, {}


def _terminate(signum, frame):
    # Unwinds like an exception, so the work directory is removed and a
    # running set-up probe is stopped and waited for.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workdir = tempfile.mkdtemp(dir=ROOT, prefix=".bench-tmp-")
    try:
        wl, _ = setup(args.workload, args.seed, workdir)
        import spans
        before = spans.snapshot()
        measure = traced_run if args.trace else untraced_run
        phases, metrics, extra = measure(args, wl, before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    for ph in phases:
        for err in ph.errors[:5]:
            sys.stderr.write(f"bench: failed op {err}\n")
    lines = [f"# env {json.dumps(environment(args, wl))}"]
    lines += [f"# pass_s {[round(t, 4) for t in ph.pass_s]}" for ph in phases]
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"{name:<44} {value:>16.6g} {unit}")
    lines.append(f"{'attempted':<44} {attempted:>16d}")
    lines.append(f"{'failed':<44} {failed:>16d}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
