"""skewarch benchmark: cold-process passes of one workload, checked.

    python3 benchmarks/run.py --workload matrix|matrix-j2|scan|arith
        --seed N --seconds S --trace 0|1

Every pass is a fresh interpreter (``bench_pass.py``), so no module
cache survives from one pass to the next, and every time a pass reports
is rescaled by its host-speed probe (``hostprobe.py``).  With
``--trace 0`` passes repeat while the next one fits in ``--seconds`` (at
least ``MIN_PASSES``) and each end-to-end metric is its median over the
passes.  With ``--trace 1`` plain, traced and counting passes give the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
Every pass checks every output.  The last line of stdout is the JSON
result; the lines before it are a readable summary.  See README.md.
"""

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import CLI_WORKLOADS, WORKLOAD_JOBS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS = os.path.join(HERE, "bench_pass.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SOURCES = os.path.join(ROOT, "src", "skewarch")
OUT_DIR = os.path.join(ROOT, ".bench_build", "skewarch")

MIN_PASSES = 3
TRACE_ROUNDS = 2
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def metric_units(table):
    """(name, unit) of each metric in one table of BENCHMARK.json."""
    with open(SPEC, encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[table]]


def run_pass(workload, seed, mode="plain", jobs=None, spans=None,
             reference=REFERENCE):
    """Start one pass; return its result with ``cold_s`` added."""
    cmd = [sys.executable, PASS, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if reference is not None:
        cmd += ["--reference", reference]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if spans is not None:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass timed out after %d s"
                         % (workload, PASS_TIMEOUT_S))
    cold_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s pass exited %d:\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    raw = result["raw"]
    # set-up and work rescale by their own phase; the rest (interpreter
    # start, drawing inputs, checks, exit) by the whole pass
    rest = cold_s - raw["setup_s"] - raw["wall_s"]
    result["cold_s"] = (result["setup_s"] + result["wall_s"]
                        + rest * result["host_factor"])
    raw["cold_s"] = cold_s
    return result


def sources_digest():
    """sha256 over the program's sources, so that a digest left by
    another version of the program is never compared."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SOURCES)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SOURCES).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def check_digests(workload, seed, passes):
    """Failures when passes disagree, or when matrix and matrix-j2 left
    different bytes for this seed and these sources in this checkout."""
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        return ["passes at one seed gave %d different outputs"
                % len(digests)]
    if workload not in CLI_WORKLOADS:
        return []
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "matrix-seed%d-%s.sha256"
                        % (seed, sources_digest()[:16]))
    (mine,) = digests
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mine)
        return []
    with open(path, encoding="utf-8") as fh:
        other = fh.read().strip()
    if other != mine:
        return ["matrix and matrix-j2 bytes differ at seed %d" % seed]
    return []


def timed_run(workload, seed, seconds):
    """Passes while the next one fits in ``seconds`` (at least
    ``MIN_PASSES``); each end-to-end metric is its median over them."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed))
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    metrics = {name: (statistics.median(p[name] for p in passes), unit)
               for name, unit in metric_units("end_to_end")}
    return passes, metrics


def traced_run(workload, seed):
    """Per-layer metrics.  ``TRACE_ROUNDS`` rounds, each of a plain pass,
    a plain serial pass when the workload runs a pool, and a traced
    serial pass, so that each ratio compares the fastest of passes that
    alternated; then one counting pass.  Spans and counts inside pool
    workers stay in the workers, so matrix-j2's layers come from serial
    passes over the same cells; only the ``cli.*`` figures describe its
    pool."""
    jobs = WORKLOAD_JOBS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))
    plain, serial, traced = [], [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(run_pass(workload, seed))
        if jobs > 1:
            serial.append(run_pass(workload, seed, jobs=1))
        traced.append(run_pass(workload, seed, "traced", jobs=1,
                               spans=spans))
    if jobs == 1:
        serial = plain
    counted = run_pass(workload, seed, "count", jobs=1)

    def fastest(passes):
        return min(passes, key=lambda p: p["wall_s"])

    best = fastest(traced)
    layers = {name: value * best["host_factor"] if name.endswith("_s")
              else value for name, value in best["layers"].items()}
    layers.update(counted["layers"])
    # computed from the plain passes, outside the program
    layers["cli.busy_frac"] = (fastest(serial)["wall_s"]
                               / (jobs * fastest(plain)["wall_s"]))
    layers["cli.cpu_per_wall"] = statistics.median(
        p["cpu_s"] / p["wall_s"] for p in plain)
    layers["trace.overhead_frac"] = (best["wall_s"]
                                     / fastest(serial)["wall_s"] - 1.0)
    names = metric_units("per_layer")
    missing = [name for name, _ in names if name not in layers]
    if missing:
        raise BenchError("the traced run gave no %s" % ", ".join(missing))
    metrics = {name: (layers[name], unit) for name, unit in names}
    passes = plain + traced + [counted] + (serial if jobs > 1 else [])
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_JOBS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(SOURCES):
        print("benchmark: no src/skewarch beside %s; run it from a "
              "checkout of the repository" % HERE, file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    try:
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed)
        else:
            passes, metrics = timed_run(args.workload, args.seed,
                                        args.seconds)
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1

    failures = check_digests(args.workload, args.seed, passes)
    attempted = sum(p["attempted"] for p in passes)
    # outputs that disagree across passes put a whole pass in doubt
    failed = min(attempted, sum(p["failed"] for p in passes)
                 + len(failures) * max(p["attempted"] for p in passes))
    for p in passes:
        failures.extend(p["failures"])

    print("workload %s, seed %d, %d passes, %d/%d operations failed "
          "(fail_frac %.6f)" % (args.workload, args.seed, len(passes),
                                failed, attempted, failed / attempted))
    for message in failures[:10]:
        print("  FAILED: %s" % message)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6f %s" % (name, value, unit))
    if not args.trace:
        for name in ("cold_s", "setup_s", "wall_s", "cpu_s"):
            print("  %-40s %14.6f s (median, not rescaled)"
                  % (name, statistics.median(p["raw"][name] for p in passes)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
