"""Benchmark harness for tagsum.

    python3 perfbench/run.py --workload lp-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. One process, one thread, BLAS pinned to one
thread. Each run sets the workload up several times (``setup_s`` is the
median), then runs its job back to back for ``--seconds`` and reports the
slower quartile over jobs (see ``run_figures``). ``--trace 1`` instead records
spans around the package's public functions and reports per-layer figures;
see README.md next to this file.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the workloads are single-caller batch jobs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-up repeats until both limits are reached; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
# In a traced run, this share of --seconds runs untraced for the overhead figure.
UNTRACED_SHARE = 1 / 3


def import_package():
    """Import tagsum from this checkout's source tree, never from elsewhere."""
    source = ROOT / "src"
    if not (source / "tagsum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tagsum sources under {source}; run from a full checkout")
    sys.path.insert(0, str(source))
    import tagsum
    if Path(tagsum.__file__).resolve().parent != (source / "tagsum").resolve():
        sys.exit(f"perfbench: imported tagsum from {tagsum.__file__}, not {source}")
    return tagsum


def blas_facts() -> dict:
    import ctypes

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    facts = {"blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
             "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
             "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    made without .git reports 'unknown'."""
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
    return "unknown"


def machine_facts(seed: int) -> dict:
    facts = {"nproc": os.cpu_count(),
             "usable_cpus": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": np.__version__,
             "workload_seed": seed,
             "git_commit": git_commit()}
    facts.update(blas_facts())
    return facts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_jobs(workload, state, seconds, untraced) -> list:
    """Run jobs back to back until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    jobs = []
    while not jobs or time.perf_counter() < deadline:
        try:
            jobs.append(workload.job(state, untraced))
        except Exception as exc:  # noqa: BLE001 - a crashed job is a failed operation
            jobs.append(exc)
    return jobs


def check_repeats(workload, jobs) -> None:
    """Figures named in EXACT must be identical in every job of the run."""
    done = [job for job in jobs if not isinstance(job, Exception)]
    for name in workload.EXACT:
        reference = done[0].figures[name] if done else None
        for job in done[1:]:
            if job.figures[name] != reference:
                job.check(False, f"{name} {job.figures[name]!r} differs from the "
                                 f"first job's {reference!r} on the same inputs")


def quartile(values, which: int) -> float:
    """First (1) or third (3) quartile; the value itself for a single job."""
    values = list(values)
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4)[which - 1]


def run_figures(jobs) -> dict:
    """Per-job figures reduced over the run at the slower quartile: the first
    quartile of throughputs and the third of job times. On a shared host, bursts
    of spare CPU speed some jobs up by up to ~80% at random; the slower jobs
    are the steady baseline. Result figures repeat exactly; they take the median."""
    done = [job for job in jobs if not isinstance(job, Exception)]
    if not done:
        return {}
    figures = {}
    for name in done[0].rates:
        figures[name] = quartile((job.rates[name][0] / job.rates[name][1] for job in done), 1)
    for name in done[0].figures:
        figures[name] = statistics.median(job.figures[name] for job in done)
    figures["job_s"] = quartile((job.job_s for job in done), 3)
    return figures


def failures_of(jobs) -> list:
    out = []
    for job in jobs:
        if isinstance(job, Exception):
            out.append(f"job raised {type(job).__name__}: {job}")
        else:
            out.extend(job.failed_checks)
    return out


def run_untraced(workload, seed, seconds):
    setup_times = []
    started = time.perf_counter()
    while (len(setup_times) < SETUP_MIN_REPEATS
           or time.perf_counter() - started < SETUP_MIN_SECONDS):
        begin = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - begin)
    jobs = run_jobs(workload, state, seconds, contextlib.nullcontext)
    check_repeats(workload, jobs)
    figures = run_figures(jobs)
    metrics = {}
    if figures:
        metrics = {"items_per_s": {"value": figures[workload.HEADLINE], "unit": "1/s"},
                   "job_s": {"value": figures["job_s"], "unit": "s"}}
    metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    lines = [f"{name} {figures[name]!r} {unit}"
             for name, unit in workload.FIGURES.items() if name in figures]
    lines.append(f"setup repeats {len(setup_times)}, jobs {len(jobs)}")
    return jobs, metrics, lines, {"setup_s": setup_times}


def run_traced(workload, seed, seconds, trace_path):
    from workloads import FlakyClient

    tracer = Tracer(extra_methods=[("corpus.client", FlakyClient, "complete")])
    with tracer.installed():
        state = workload.setup(seed)
    plain = run_jobs(workload, state, seconds * UNTRACED_SHARE, contextlib.nullcontext)
    tracer.mark("jobs")
    with tracer.installed():
        traced = run_jobs(workload, state, seconds * (1 - UNTRACED_SHARE), tracer.suspended)
    jobs = plain + traced
    check_repeats(workload, jobs)
    done_plain = [j.job_s for j in plain if not isinstance(j, Exception)]
    done_traced = [j for j in traced if not isinstance(j, Exception)]
    overhead = 0.0
    if done_plain and done_traced:
        untraced_s = statistics.median(done_plain)
        overhead = statistics.median(j.job_s for j in done_traced) / untraced_s - 1.0
    extra = {}
    for job in done_traced:
        for name, value in job.counts.items():
            extra[name] = extra.get(name, 0) + value
    per_layer, self_time = tracer.summarize(
        len(done_traced), sum(j.job_s for j in done_traced), extra, overhead)
    tracer.write(trace_path)

    metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit, _ in PER_LAYER}
    total = sum(self_time.values()) or 1.0
    lines = [f"self time per set-up plus one job (traced jobs: {len(done_traced)}, "
             f"untraced: {len(done_plain)}):"]
    for name, value in sorted(self_time.items(), key=lambda kv: -kv[1])[:12]:
        lines.append(f"  {name:44s} {value:9.4f} s  {100 * value / total:5.1f}%")
    lines.append(f"coverage {per_layer['trace.coverage']!r} ratio; "
                 f"tracing overhead {overhead!r} ratio; spans written to {trace_path}")
    return jobs, metrics, lines, {}


def run_workload(name, seed, seconds, trace, size):
    from workloads import SIZES, WORKLOADS
    work_dir = OUT_DIR / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](SIZES[size], work_dir)
    try:
        if trace:
            trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
            jobs, metrics, lines, extra = run_traced(workload, seed, seconds, trace_path)
        else:
            jobs, metrics, lines, extra = run_untraced(workload, seed, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures = failures_of(jobs)
    failed = sum(1 for job in jobs if isinstance(job, Exception) or job.failed_checks)
    result = {"correct": not failures, "attempted": len(jobs), "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "failures": failures, "result": result,
              "jobs": [{"job_s": j.job_s, "rates": j.rates, "figures": j.figures,
                       "checks": j.failed_checks}
                       for j in jobs if not isinstance(j, Exception)], **extra}
    (OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same paths on toy inputs (smoke test)")
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    OUT_DIR.mkdir(exist_ok=True)

    print("machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    results = {}
    for name in names:
        result, lines, failures = run_workload(name, args.seed, args.seconds,
                                               args.trace, args.size)
        results[name] = result
        print(f"== {name}")
        for line in lines:
            print("  " + line)
        for key, metric in result["metrics"].items():
            print(f"  {key} {metric['value']!r} {metric['unit']}")
        for failure in failures:
            print(f"  CHECK FAILED: {failure}")
        sys.stdout.flush()

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": metric for name, r in results.items()
                             for key, metric in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
