"""One benchmark pass in a fresh interpreter.

    python3 benchmarks/bench_pass.py --workload W --seed N [--jobs J]
        [--mode plain|traced|count] [--reference FILE] [--spans FILE]

Imports skewarch from ``src/`` beside this directory, sets the workload
up, draws its inputs, times its work, checks its outputs and prints one
JSON line.  ``run.py`` starts one of these per pass, so module caches
(``_RING_CACHE``, ``_ENDO_CACHE``, every ``ring._cache``) start empty
each time.

Times are rescaled by the host-speed probe (``hostprobe.py``), phase
by phase: ``setup_s`` by the samples taken during set-up, ``wall_s``
and ``cpu_s`` by those taken during the work; ``host_factor`` is the
factor of the whole pass, for ``run.py`` to rescale the rest of
``cold_s`` and the span times with.  ``raw`` keeps the unscaled times.

Modes: ``plain`` measures; ``traced`` records spans around the calls
into each module and reports self time per span name; ``count`` counts
kernel and twisted-product calls and reads no time.  In the last two,
layer figures are taken when the work ends, before the checks run.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` times that of its largest
    child: an upper bound on the pass's combined peak, since the kernel
    reports only the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int,
                        help="override the workload's --jobs value")
    parser.add_argument("--mode", choices=("plain", "traced", "count"),
                        default="plain")
    parser.add_argument("--reference", help="recorded digests (JSON)")
    parser.add_argument("--spans", help="write the raw spans here")
    args = parser.parse_args(argv)

    import hostprobe
    probe = hostprobe.HostProbe()
    probe.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads
    from metrics import WORKLOAD_JOBS

    jobs = WORKLOAD_JOBS[args.workload] if args.jobs is None else args.jobs
    reference = {}
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)

    recorder = counter = None
    if args.mode == "traced":
        recorder = tracing.SpanRecorder()
        recorder.install()
    elif args.mode == "count":
        counter = tracing.CallCounter()
        counter.install()

    workload = workloads.WORKLOADS[args.workload](args.seed, jobs)
    workload.setup()
    setup_s = time.perf_counter() - START
    if counter is not None:
        counter.clear()     # counts cover the work, set-up has setup_s
    setup_factor = probe.factor(end=probe.mark())
    workload.prepare()
    work_start = probe.mark()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if recorder is not None:
        recorder.span(tracing.ROOT_SPAN, workload.work)
    else:
        workload.work()
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    work_factor = probe.factor(work_start, probe.mark())

    result = {"setup_s": setup_s * setup_factor,
              "wall_s": wall_s * work_factor, "cpu_s": cpu_s * work_factor,
              "peak_rss_mb": peak_rss_mb(jobs),
              "raw": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s}}
    if recorder is not None:
        result["layers"] = recorder.self_times()
        rows = recorder.rows()
    if counter is not None:
        result["layers"] = counter.metrics()

    attempted, failures, digest = workload.check(reference)
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20], digest=digest)
    if recorder is not None and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "key", "start", "end", "parent"],
                       "spans": rows}, fh)
    if hasattr(workload, "call_digests"):
        result["call_digests"] = workload.call_digests()
    probe.stop()
    result["host_factor"] = probe.factor()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
