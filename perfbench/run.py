"""maecodec benchmark: one workload, one closed-loop client, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload kodak_rgb --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, and
reports times at reference speed (see probe.py). ``--trace 1`` is the separate traced run: it alternates an untraced call and
a traced call on the same input, reports every layer's self time per op, and
takes the difference between the two as the tracing overhead. The metric
names and units come from BENCHMARK.json; the last line of standard output
is the JSON result, and the exit code is non-zero when any op fails a check.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the client is single-threaded and
# the machine has two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")

SETUP_REPS = 5
# A fresh interpreter's import of the package, timed in a child process so
# that it can be repeated like the rest of set-up.
IMPORT_PROBE = "import numpy, maecodec.pipeline, maecodec.sweep, maecodec.training"


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Run:
    """Calls of one workload until the deadline, with their check results."""

    def __init__(self, workload):
        self.workload = workload
        self.calls = []
        self.failures: list[str] = []
        self.attempted = 0

    def call(self, i: int, tracer=None):
        """One call, traced when a tracer is given; its check runs untraced."""
        try:
            if tracer is None:
                call = self.workload.call(i)
            else:
                with tracer, tracer.root():
                    call = self.workload.call(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            traceback.print_exc()
            self.attempted += 1
            self.failures.append(f"call {i}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += call.ops
        self.failures += self.workload.check(i, call)
        call.output = None  # the check is done; keep the run's memory flat
        return call


def run_timed(workload, seconds: float, probe) -> tuple[Run, dict]:
    """Calls until the deadline; each call's times are taken to reference speed
    with the probes run just before and just after it."""
    run = Run(workload)
    scales, raw_wall = [], 0.0
    before = probe.probe_ms()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        call = run.call(i)
        after = probe.probe_ms()
        if call is not None:
            run.calls.append(call)
            scales.append(probe.scale(before, after))
            raw_wall += call.wall_s
        before = after
        i += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [ms * k for c, k in zip(run.calls, scales) for ms in c.latencies_ms]
    wall = sum(c.wall_s * k for c, k in zip(run.calls, scales))
    figures = {
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p80": percentile(latencies, 0.8),
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(latencies),
        "raw_ops_per_s": len(latencies) / raw_wall,
        "speed": statistics.median(scales),
    }
    for part in ("compress", "decompress"):
        samples = [c.parts_ms[part] * k for c, k in zip(run.calls, scales) if part in c.parts_ms]
        if samples:
            figures[f"{part}_ms_p50"] = statistics.median(samples)
            figures[f"{part}_ms_p90"] = percentile(samples, 0.9)
    return run, figures


def run_traced(workload, seconds: float, tracing) -> tuple[Run, dict, object]:
    """An untraced and a traced call on the same input, in alternating order.

    The overhead is the median over these pairs of the traced minus the
    untraced call time per op.
    """
    run = Run(workload)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if (i // workload.INPUTS) % 2:
            wrapped, plain = run.call(i, tracer), run.call(i)
        else:
            plain, wrapped = run.call(i), run.call(i, tracer)
        if plain is not None and wrapped is not None:
            untraced.append(plain)
            traced.append(wrapped)
        i += 1
        if time.perf_counter() >= deadline:
            break
    ops = sum(c.ops for c in traced)
    overhead_ms = 1e3 * statistics.median(
        t.wall_s / t.ops - u.wall_s / u.ops for t, u in zip(traced, untraced)
    )
    self_s = tracer.self_times()
    spans = {name for _, _, name in tracing.SPAN_SITES}
    layers = {f"{name}_ms": 1e3 * self_s.get(name, 0.0) / ops for name in spans}
    layers.update({name: tracer.counts.get(name, 0) / ops for name in tracing.COUNTERS})
    layers["trace.unattributed_ms"] = 1e3 * self_s.get("bench.op", 0.0) / ops
    layers["trace.overhead_ms"] = overhead_ms
    is_sweep = workload.name == "gray256_sweep"
    cells_ms = [ms for c in untraced for ms in c.latencies_ms]
    layers["sweep.cell_ms"] = statistics.median(cells_ms) if is_sweep else 0.0
    layers["sweep.failures"] = workload.cell_failures if is_sweep else 0
    layer_sum_ms = sum(layers[f"{name}_ms"] for name in spans)
    traced_ms = layer_sum_ms + layers["trace.unattributed_ms"]
    untraced_ms = 1e3 * sum(c.wall_s for c in untraced) / ops
    accounting = {
        "layer_self_ms": layer_sum_ms,
        "unattributed_ms": layers["trace.unattributed_ms"],
        "traced_op_ms": traced_ms,
        "overhead_ms": overhead_ms,
        "untraced_op_ms": untraced_ms,
        "residual_ms": traced_ms - overhead_ms - untraced_ms,
        "traced_ops": ops,
    }
    return run, {"layers": layers, "accounting": accounting}, tracer


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value:.6g} {unit}".rstrip() + note)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import maecodec
        import probe
        import tracer
        import workloads
    except ImportError as exc:
        print(f"cannot import maecodec from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(maecodec.__file__)) != os.path.join(SRC, "maecodec"):
        print(f"maecodec imported from {maecodec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        workloads.verify_fixtures()
    except (OSError, ValueError, KeyError, workloads.FixtureError) as exc:
        print(f"fixture check failed: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    workload = workloads.WORKLOADS[args.workload]()
    setups, parts = [], []
    for _ in range(SETUP_REPS):
        before = probe.probe_ms()
        import_s = import_seconds()
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup = import_s + time.perf_counter() - t0
        setups.append(setup * probe.scale(before, probe.probe_ms()))
        parts.append(workload.setup_parts)
    setup_s = statistics.median(setups)

    if args.trace:
        run, traced, trace = run_traced(workload, args.seconds, tracer)
        layers = traced["layers"]
        layers["mae.peak_alloc_mb"] = workload.peak_alloc_mb()
        for name in ("mae.load_checkpoint", "dataset.synthetic_corpus"):
            layers[f"{name}_ms"] = 1e3 * statistics.median(p[name] for p in parts)
        finish = workload.finish()
        run.failures += finish.failures
        run.attempted += finish.attempted
        layers["error_rate"] = len(run.failures) / run.attempted
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        trace.write(trace_path, {"env": env, "accounting": traced["accounting"]})
        acc = traced["accounting"]
        print(
            f"accounting, mean ms per op over {acc['traced_ops']} traced ops: layer self "
            f"{acc['layer_self_ms']:.3f} + unattributed {acc['unattributed_ms']:.3f} = traced "
            f"{acc['traced_op_ms']:.3f}; traced - overhead {acc['overhead_ms']:.3f} = untraced "
            f"{acc['untraced_op_ms']:.3f} + residual {acc['residual_ms']:.3f} (run-to-run noise)"
        )
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
        declared = spec["per_layer"]
        values = layers
    else:
        run, figures = run_timed(workload, args.seconds, probe)
        finish = workload.finish()
        run.failures += finish.failures
        run.attempted += finish.attempted
        values = {**figures, "setup_s": setup_s}
        declared = spec["end_to_end"]
        unit = workload.op_unit
        print(
            f"ops {figures['ops']} ({unit}s); times below are at reference speed, "
            f"measured times x {figures['speed']:.4f} (median); measured ops_per_s "
            f"{figures['raw_ops_per_s']:.6g}"
        )
        for part in ("compress", "decompress"):
            for q in ("p50", "p90"):
                key = f"{part}_ms_{q}"
                if key in figures:
                    print_metric(key, figures[key], "ms", f" over {figures['ops']} samples")
        if workload.rate_name:
            print_metric(workload.rate_name, figures["ops_per_s"], "1/s")
        for name, value, unit in finish.figures:
            print_metric(name, value, unit)
        print_metric("error_rate", len(run.failures) / run.attempted, "ratio")

    for message in run.failures:
        print(f"FAILED {message}", file=sys.stderr)
    metrics_out = {}
    for entry in declared:
        value = float(values[entry["name"]])
        metrics_out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print_metric(entry["name"], value, entry["unit"])
    correct = not run.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": min(len(run.failures), run.attempted),
                "metrics": metrics_out,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
