"""gexpect benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload configs --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's inputs are generated from
``--seed``; passes over the workload repeat until ``--seconds`` would be
exceeded, and every output is checked.  One process and one caller: BLAS is
pinned to one thread and ``experiment_cli.run`` gets ``threads=1``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
pass time, the median set-up time (this process's own plus fresh processes
that only set up), the peak RSS of this process and the share of checks that
passed.  ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics; see ``layers.json`` for what each one should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
stamped with versions and thread counts, goes to ``.perfbench_out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("configs", "pde_grid", "small_calls"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def stamp():
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    import numpy
    import scipy

    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def setup_probe(args):
    """Set-up time of a fresh process that imports, generates inputs, warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def one_pass(workload, checks_cls):
    checks = checks_cls()
    start = time.perf_counter()
    workload.run_pass(checks)
    return time.perf_counter() - start, checks


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gexpect" / "__init__.py").is_file():
        print(f"error: no gexpect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("GEXPECT_SEED_OVERRIDE", None)
    for name in BLAS_VARS:
        os.environ[name] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    import workloads

    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, work)
        workloads.warm_up()
        own_setup = time.perf_counter() - START
        if args.setup_only:
            print(repr(own_setup))
            return 0
        setup = [own_setup]
        if args.trace:
            result = traced_run(args, workload, workloads)
        else:
            result = untraced_run(args, workload, workloads, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples, checks, metrics = result
    digests = {c.digest.hexdigest() for c in checks}
    # one more check: every pass gave the same records
    attempted = sum(c.attempted for c in checks) + 1
    failed = sum(len(c.failed) for c in checks) + (len(digests) != 1)
    if not args.trace:
        metrics["wall_s"] = statistics.median(samples)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["checks_passed_frac"] = (attempted - failed) / attempted
    else:
        metrics["bench.checks_failed_frac"] = failed / attempted

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if sorted(m["name"] for m in wanted) != sorted(metrics):
        missing = sorted({m["name"] for m in wanted} ^ set(metrics))
        print(f"error: metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 3

    failures = sorted({name for c in checks for name in c.failed})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp(), "pass_s": samples, "setup_s": setup,
        "records_digest": sorted(digests), "failed_checks": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=2) + "\n"
    )
    print(json.dumps(record["stamp"], sort_keys=True))
    print(f"passes: {len(samples)}  median {statistics.median(samples):.4f} s  "
          f"max {max(samples):.4f} s  (the max is the highest percentile "
          f"{len(samples)} samples allow)")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"records digest: {' '.join(sorted(digests))}")
    for name in failures:
        print(f"failed check: {name}")
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


def untraced_run(args, workload, workloads, setup):
    """Passes while the next one fits in --seconds.

    The set-up probes are spread over the window, at most one after each
    pass, so that a slow spell on a shared host moves one sample, not all.
    """
    start = time.perf_counter()
    deadline = start + args.seconds
    probe_every = args.seconds / (SETUP_PROBES + 1)
    samples, checks = [], []
    while True:
        elapsed, tally = one_pass(workload, workloads.Checks)
        samples.append(elapsed)
        checks.append(tally)
        if len(setup) <= SETUP_PROBES and time.perf_counter() - start >= len(setup) * probe_every:
            setup.append(setup_probe(args))
        if time.perf_counter() + elapsed > deadline:
            break
    while len(setup) <= SETUP_PROBES:
        setup.append(setup_probe(args))
    return samples, checks, {}


def traced_run(args, workload, workloads):
    """Untraced and traced passes in turn; per-layer medians of traced passes."""
    import layer_metrics
    import tracer as tracing

    import gexpect
    from gexpect import (control_sim, covariance_set, experiment_cli, g_normal, g_pde,
                         operator_core, stoch_integral)

    modules = {
        "operator_core": operator_core, "covariance_set": covariance_set,
        "g_normal": g_normal, "control_sim": control_sim,
        "stoch_integral": stoch_integral, "g_pde": g_pde,
        "experiment_cli": experiment_cli,
    }
    binders = [gexpect, workloads]
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    untraced, traced, per_pass, checks = [], [], [], []
    while True:
        elapsed, tally = one_pass(workload, workloads.Checks)
        untraced.append(elapsed)
        checks.append(tally)

        tracer.install(modules, binders)
        try:
            stale = tracer.unwrapped_references(list(modules.values()) + binders)
            if stale:
                raise RuntimeError(f"unwrapped references to traced functions: {stale}")
            tracer.reset()
            tally = workloads.Checks()
            tracer.span(tracing.ROOT, workload.run_pass, tally)
        finally:
            tracer.uninstall()
        checks.append(tally)
        if not traced:
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
        traced.append(tracer.totals[tracing.ROOT][1])
        per_pass.append(layer_metrics.from_tracer(tracer))
        if time.perf_counter() + elapsed + traced[-1] > deadline:
            break

    metrics = {
        name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
    }
    metrics["bench.traced_wall_s"] = statistics.median(traced)
    metrics["bench.untraced_wall_s"] = statistics.median(untraced)
    metrics["bench.trace_overhead"] = (metrics["bench.traced_wall_s"]
                                       / metrics["bench.untraced_wall_s"])
    peaks, artifact_bytes = {}, 0
    if isinstance(workload, workloads.Configs):
        checks.append(workloads.Checks())
        peaks = workload.traced_peaks_mb(checks[-1])
        artifact_bytes = workload.artifact_bytes()
    for stem in layer_metrics.CONFIGS:
        metrics[f"experiment_cli.run.{stem}.peak_mb"] = peaks.get(stem, 0.0)
    metrics["experiment_cli.artifact_bytes"] = artifact_bytes
    return traced, checks, metrics


if __name__ == "__main__":
    sys.exit(main())
