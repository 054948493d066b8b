"""tflab benchmark: one workload per process, closed loop, serial.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tflab is imported from its ``src``.
Set-up (``setup_s``) is timed in fresh child processes, from spawn to the
moment the inputs are ready, and reported as their median.  The workload
then runs in passes for ``--seconds`` (at least MIN_PASSES passes); ``wall_s``
and ``cpu_s`` sum each tflab call's median over the passes, ``peak_rss_mb``
is the peak after the first pass.  Every pass's outputs are checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (medians over traced passes), alternating traced and untraced passes
so the tracing overhead can be reported.  The last line of standard output
is the JSON result; the environment, per-pass samples and the spans of the
last traced pass go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_seed0.json"
SETUP_REPEATS = 5
MIN_PASSES = 3  # per-call medians need three samples to drop an outlier
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this seed-0 run's item digests as the reference")
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: prepare inputs, print readiness time, exit")
    return ap.parse_args(argv)


def import_workloads():
    """The benchmark's workloads, with tflab imported from this checkout's src."""
    src = ROOT / "src"
    if not (src / "tflab" / "__init__.py").is_file():
        raise SystemExit(f"error: no tflab sources under {src}")
    sys.path.insert(0, str(src))
    import tflab
    if Path(tflab.__file__).resolve().parent != src / "tflab":
        raise SystemExit(f"error: imported tflab from {tflab.__file__}, not {src}")
    import workloads
    return workloads


def time_setup(args) -> list[float]:
    """Spawn-to-ready seconds of SETUP_REPEATS fresh set-up processes.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def blas_info() -> dict:
    """BLAS library, version and thread count as numpy's OpenBLAS reports them."""
    import numpy as np
    info = {"library": None, "config": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None:
                continue
            info["threads"] = int(get_threads())
            if get_config is not None:
                get_config.restype = ctypes.c_char_p
                info["config"] = get_config().decode()
            return info
    return info


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(tflab_threads: str | None, samples: int) -> dict:
    import numpy as np
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "TFLAB_THREADS": tflab_threads,
        "samples": samples,
    }


def dump_reference(ref: dict) -> str:
    """JSON with one line per item digest."""
    body = ",\n".join(f"{json.dumps(w)}: [\n" + ",\n".join(map(json.dumps, items))
                      + "\n]" for w, items in sorted(ref.items()))
    return "{\n" + body + "\n}\n"


def run_once(wl, inputs) -> tuple[list[float], list[float], list]:
    """Per-call wall and process-CPU seconds, and the checked items, of one pass.

    Only the tflab calls are timed; each output is checked, then dropped.
    """
    walls, cpus, items = [], [], []
    for call, check in wl.jobs(inputs):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = call()
        except (Exception, SystemExit) as exc:  # a failed item, not a crash
            out = exc
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        items += check(out)
        del out
    return walls, cpus, items


def per_call_median(passes: list[list[float]]) -> float:
    """Sum over calls of each call's median over passes.

    A slow spell on a shared machine hits a call in one pass, not in most.
    """
    return sum(statistics.median(call) for call in zip(*passes))


def main(argv=None) -> int:
    args = parse_args(argv)
    tflab_threads = os.environ.pop("TFLAB_THREADS", None)  # serial, closed loop
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        wl.prepare(args.seed, OUT)
        print(repr(time.perf_counter()))
        return 0
    if args.record_reference and args.seed != 0:
        print("error: the reference is recorded at seed 0", file=sys.stderr)
        return 2

    setup_times = time_setup(args)
    inputs = wl.prepare(args.seed, OUT)
    reference = None
    if args.seed == 0 and not args.record_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]

    plain, traced, notes = [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            with tracer.Tracer() as tr:
                walls, cpus, items = run_once(wl, inputs)
            traced.append((walls, tr))
        else:
            walls, cpus, items = run_once(wl, inputs)
            plain.append((walls, cpus))
        if peak_rss_mb is None:  # one pass, so the figure does not grow with repeats
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        items = workloads.against_reference(items, reference)
        attempted += len(items)
        bad = [it for it in items if not it.ok]
        failed += len(bad)
        notes += [f"{it.name}: {it.note}" for it in bad]
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_PASSES and (not args.trace or traced)
        if enough and elapsed + sum(walls) > args.seconds:
            break

    if args.record_reference:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = [it.digest for it in items]
        REFERENCE.write_text(dump_reference(ref))
        print(f"reference for {args.workload} -> {REFERENCE}")

    env = environment(tflab_threads, len(traced) if args.trace else len(plain))
    units = dict(END_TO_END)
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.METRICS}
        per_run = [tracer.layer_metrics(tr.spans, tr.counters, tr.absent, sum(w))
                   for w, tr in traced]
        metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
        metrics["trace.overhead_s"] = (per_call_median([w for w, _ in traced])
                                       - per_call_median([w for w, _ in plain]))
        absent = sorted({n for _, tr in traced for n in tr.absent})
        traced[-1][1].write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": per_call_median([w for w, _ in plain]),
            "cpu_s": per_call_median([c for _, c in plain]),
            "peak_rss_mb": peak_rss_mb,
        }
        absent = []

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_samples_s": setup_times,
              "call_wall_s": [w for w, _ in plain],
              "call_cpu_s": [c for _, c in plain],
              "traced_pass_wall_s": [sum(w) for w, _ in traced],
              "failed_items": notes[:50], "absent": absent}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for note in notes[:20]:
        print(f"FAILED {note}")
    for name in absent:
        print(f"absent: {name} (no longer in tflab)")
    print(f"{args.workload} seed {args.seed}: {env['samples']} samples, "
          f"{attempted} items, {failed} failed")
    print(f"failed_frac = {failed / attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
