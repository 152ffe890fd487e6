"""segkit benchmark: one workload per process, seeded, self-checking.

    python3 perfbench/run.py --workload vit-train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the run repeats fixed-size passes of the workload until
``--seconds`` are spent and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes of the same work and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (environment, named metrics, checks) goes to ``perfbench/out/``.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("vit-train", "vit-eval", "csec", "gradcheck")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PIN = 1  # at most nproc; a second thread did not speed up these shapes

# The bounded latency is the mean: on a host that flips between a fast and a
# slow state, the median and p90 jump between the two modes from run to run,
# while the mean moves only with the share of time spent in each.  Median and
# p90 are printed alongside.  Timings are scaled to nominal host speed with the
# reference loop (reference.py).
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput_per_s", "1/s"),
              ("latency_ms_mean", "ms"), ("quality", "score"))


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one segkit benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own, see README)")
    p.add_argument("--seconds", type=float, default=15.0, help="measuring budget per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from traced passes")
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_before):
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name", "unknown"), "version": dep.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "commit": git_commit(),
        "blas_env_before_pin": blas_before,
        "blas_threads_pin": BLAS_PIN,
    }


def declared_metrics():
    """Metric names BENCHMARK.json declares: (end_to_end, per_layer), or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_all(args):
    """Run every workload, each in its own process, and print a summary."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary[name] = result
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "segkit", "__init__.py")):
        print(f"error: segkit sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    blas_before = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:
        os.environ[v] = str(BLAS_PIN)  # before numpy loads its BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layer_metrics
    from reference import Reference
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    env = environment(blas_before)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{wl.name}-{os.getpid()}")
    attempted, failed, checks, errors = 0, 0, {}, []

    def check(name, ok):
        nonlocal attempted, failed
        attempted += 1
        failed += 0 if ok else 1
        checks[name] = checks.get(name, True) and bool(ok)

    setup_ref, ref = Reference(), Reference()  # sampled around set-up and passes
    # traced passes skip the reference: it would only add uncovered time
    tick = (lambda: None) if args.trace else ref.tick

    def run_pass(span=lambda name: nullcontext()):
        nonlocal attempted
        t0 = time.perf_counter()
        p = wl.run_pass(st, span, tick)
        wall = time.perf_counter() - t0
        attempted += 1 + len(p.latencies_ms)
        for name, ok in p.checks.items():
            check(name, ok)
        return p, wall

    passes, walls, traced_walls, tracer = [], [], [], None
    try:
        setup_times = []
        for _ in range(wl.setup_repeats):
            setup_ref.tick(10)
            t0 = time.perf_counter()
            st = wl.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_ref.tick(10)
        attempted += len(setup_times)

        start = time.perf_counter()
        while True:
            if not args.trace:
                ref.tick(10)
            p, wall = run_pass()
            passes.append(p)
            walls.append(wall)
            if len(walls) == 1:  # independent of how many passes fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:  # alternate with a traced pass of the same work
                tracer = Tracer()
                tracer.install()
                try:
                    with tracer.span("bench.pass"):
                        p, wall = run_pass(tracer.span)
                finally:
                    tracer.restore()
                passes.append(p)
                traced_walls.append(wall)
            elapsed = time.perf_counter() - start
            step = max(walls) + max(traced_walls, default=0.0)
            if len(walls) >= (1 if args.trace else wl.min_passes) and elapsed + step > args.seconds:
                break
        for name, ok in wl.verify(st, passes[-1]).items():
            check(name, ok)
        check("quality identical in every pass", len({p.quality for p in passes}) == 1)
    except Exception as exc:  # a segkit failure is a failed operation, not a crash
        failed += 1
        attempted += 1
        errors.append(f"{type(exc).__name__}: {exc}")
        passes = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named, metrics = {}, {}
    if passes and args.trace:
        per_layer = layer_metrics.derive(tracer, passes[-1].units, passes[-1].extra,
                                         statistics.median(walls),
                                         statistics.median(traced_walls))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
        tracer.save(os.path.join(OUT, f"spans-{wl.name}.npz"))
    elif passes:
        scale = ref.scale()
        lat = [x for p in passes for x in p.latencies_ms]
        raw = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": statistics.median(p.units / p.busy_s for p in passes),
            "latency_ms_mean": statistics.fmean(lat),
        }
        values = {
            "setup_s": setup_ref.scale() * raw["setup_s"],
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": raw["throughput_per_s"] / scale,
            "latency_ms_mean": scale * raw["latency_ms_mean"],
            "quality": statistics.median(p.quality for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END}
        (tname, tunit), (qname, qunit) = wl.throughput, wl.quality
        named = {
            tname: (values["throughput_per_s"], tunit),
            f"{wl.latency}_mean": (values["latency_ms_mean"], "ms"),
            f"{wl.latency}_p50": (scale * statistics.median(lat), "ms"),
            f"{wl.latency}_p90": (scale * p90(lat), "ms"),
            f"{wl.latency}_samples": (len(lat), "count"),
            qname: (values["quality"], qunit),
            "setup_s": (values["setup_s"], "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            "passes": (len(passes), "count"),
            "host_scale": (scale, "ratio"),
            **{f"raw_{name}": (v, dict(END_TO_END)[name]) for name, v in raw.items()},
            **wl.named(passes),
        }

    declared = declared_metrics()
    if passes and declared is not None and set(metrics) != declared[args.trace]:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    correct = bool(passes) and failed == 0

    print(f"workload {wl.name}  seed {seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    rows = named.items() if not args.trace else ((name, (m["value"], m["unit"]))
                                                  for name, m in metrics.items())
    for name, (value, unit) in rows:
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, ok in checks.items():
        print(f"  check {'PASS' if ok else 'FAIL'}  {name}")
    for err in errors:
        print(f"  error {err}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{wl.name}-seed{seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "setup_s_samples": setup_times,
                   "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   "checks": checks, "errors": errors, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
