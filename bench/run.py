"""Benchmark of the bloodbank pipeline: end-to-end metrics and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload paper_pipeline --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

The launcher pins BLAS and OpenMP to one thread and runs each workload in a
fresh worker process of its own, so peak memory is per workload.  The worker
imports ``bloodbank`` from this checkout's ``src/`` and refuses to run
without it.  It times ``setup_s`` in fresh probe processes.  It measures
whole repeats of the workload's unit until ``--seconds`` have passed, always
at least one, with both times calibrated for machine speed (``speed.py``).
It checks the outputs outside the timed section and prints one JSON object
as the last line of standard output.  With ``--trace 1`` it reports the
per-layer metrics of BENCHMARK.json instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from speed import Speedometer, calibrated

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT = 170  # seconds; a run must end within 180
TRACE_BUDGET = 140  # seconds of a traced worker after which no untraced repeat starts
PROBE_TIMEOUT = 60
PROBES = 3


def _run_group(cmd: list[str], timeout: float) -> tuple[int, str, str]:
    """Run ``cmd`` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **PINNED), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, out, err + f"\ntimed out after {timeout} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _import_package():
    """Import ``bloodbank`` from this checkout only; exit non-zero if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bloodbank
    except ImportError as exc:
        sys.exit(f"bench: cannot import bloodbank from {src}: {exc}")
    if Path(bloodbank.__file__).resolve().parent != (src / "bloodbank").resolve():
        sys.exit(f"bench: bloodbank was imported from {bloodbank.__file__}, not {src}")


def _environment(seed: int) -> dict:
    import numpy

    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "commit": commit, "dirty": dirty, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas, "seed": seed,
        "threads": {key: os.environ.get(key) for key in PINNED},
    }


def _report(label: str, values: list[float]) -> None:
    """One ``#`` line: sample count, median, quartiles and every sample."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    print(f"# {label}: n={len(values)} median {statistics.median(values):.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} [" + ", ".join(f"{v:.4f}" for v in values) + "]")


def _measure(workload, work: Path, seconds: float, traced=False, first_index=0):
    """Whole repeats until ``seconds`` have passed, at least one; optionally traced."""
    repeats, layer = [], []
    start = time.perf_counter()
    while not repeats or time.perf_counter() - start < seconds:
        rep_dir = work / f"rep{first_index + len(repeats)}"
        tracer = spans.Tracer()
        patches = spans.instrument(tracer) if traced else []
        try:
            rep = workload.run(rep_dir, time.perf_counter)
        finally:
            spans.restore(patches)
        repeats.append(rep)
        if traced:
            metrics = spans.layer_metrics(tracer, rep.wall)
            metrics["cli.bytes_written"] = sum(
                f.stat().st_size for f in rep_dir.rglob("*") if f.is_file())
            layer.append((metrics, tracer))
    return repeats, layer


def _probe_setup(workload: str, seed: int) -> list[tuple[float, dict]]:
    """(wall, speed sample) of fresh processes that import, make inputs and warm up."""
    samples = []
    for _ in range(PROBES):
        start = time.perf_counter()
        code, out, err = _run_group([sys.executable, str(BENCH / "run.py"), "--probe",
                                     "--workload", workload, "--seed", str(seed)],
                                    PROBE_TIMEOUT)
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{err}")
        samples.append((wall, json.loads(out.strip().splitlines()[-1])))
    return samples


def _finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def _per_layer(layer, setup_tracer, plain, traced) -> dict:
    values = {name: statistics.median(m[name] for m, _ in layer) for name in layer[0][0]}
    # inputs are made during set-up, so the generator's time is counted there
    values["datagen.generate_full.s"] += setup_tracer.self_times()["datagen.generate_full"]
    values["datagen.days"] += setup_tracer.counters["datagen.days"]
    values["trace.overhead_ratio"] = (statistics.median(r.wall for r in traced)
                                      / statistics.median(r.wall for r in plain)
                                      if plain else 0.0)
    return values


def worker(args) -> int:
    started = time.perf_counter()
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work = OUT / f"{args.workload}-{os.getpid()}"
    if args.probe:
        try:
            with Speedometer() as speed:
                workload.setup(args.seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        # the launching worker calibrates this probe's wall with these
        print(json.dumps({"factor": speed.factor(), "kernel_s": speed.kernel_seconds(),
                          "samples": len(speed.samples)}))
        return 0

    env = _environment(args.seed)
    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        setup_samples = [] if args.trace else _probe_setup(args.workload, args.seed)
        setup_tracer = spans.Tracer()
        patches = spans.instrument(setup_tracer, layers=("datagen",)) if args.trace else []
        try:
            workload.setup(args.seed, work / "setup")
        finally:
            spans.restore(patches)

        if args.trace:
            traced, layer = _measure(workload, work, args.seconds / 2, traced=True)
            # untraced repeats only for the overhead ratio, and only if one fits
            left = TRACE_BUDGET - (time.perf_counter() - started)
            plain = []
            if left > statistics.median(r.wall for r in traced):
                plain, _ = _measure(workload, work, args.seconds / 2, first_index=len(traced))
        else:
            with Speedometer() as speed:
                plain, _ = _measure(workload, work, args.seconds)
            traced, layer = [], []
        # the high-water mark of set-up and the timed repeats, before the checks add theirs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = workload.check(traced + plain, work / "check")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        _report("wall_s traced", [r.wall for r in traced])
    walls = [r.wall for r in plain]
    if walls:
        _report("wall_s raw", walls)
    if not args.trace:
        walls = [speed.seconds(r.start, r.start + r.wall) for r in plain]
        _report("wall_s calibrated", walls)
        _report("setup_s raw", [wall for wall, _ in setup_samples])
        result.info["speed"] = {
            "timed_factor": speed.factor(), "timed_samples": len(speed.samples),
            "setup_factors": [probe["factor"] for _, probe in setup_samples],
            "setup_samples": [probe["samples"] for _, probe in setup_samples],
        }
        setup_samples = [calibrated(wall, probe["kernel_s"], probe["factor"])
                         for wall, probe in setup_samples]
        _report("setup_s calibrated", setup_samples)
    print("# info " + json.dumps(result.info, sort_keys=True, default=str))

    if args.trace:
        values = _per_layer(layer, setup_tracer, plain, traced)
        OUT.mkdir(exist_ok=True)
        layer[0][1].dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "env": env, "metrics": values})
        wanted = SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "success_ratio": (result.attempted - result.failed) / result.attempted,
            "forecast_rmse": result.forecast_rmse,
            "policy_gap_per_day": result.policy_gap_per_day,
        }
        wanted = SPEC["end_to_end"]
    correct = (result.failed == 0 and math.isfinite(result.forecast_rmse)
               and math.isfinite(result.policy_gap_per_day))
    metrics = {m["name"]: {"value": _finite(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# launcher side
# ---------------------------------------------------------------------------

def launch(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    code, out, err = _run_group(cmd, CHILD_TIMEOUT)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err)
        return None, out
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(err)
        return None, out
    return result, "\n".join(lines[:-1])


def print_table(results: dict) -> None:
    rows = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    names = list(results)
    header = ["metric", "unit"] + names
    body = []
    for name, unit in rows:
        body.append([name, unit] + [repr(results[w]["metrics"][name]["value"]) for w in names])
    body.append(["fail_ratio", "ratio"] + [
        repr(results[w]["failed"] / results[w]["attempted"]) for w in names])
    body.append(["correct", "-"] + [str(results[w]["correct"]) for w in names])
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    for row in [header] + body:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child or args.probe:
        return worker(args)

    # turn a termination request into an exception, so the worker group is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, report = launch(name, args.seed, args.seconds, args.trace)
        if report:
            print(report)
        if result is None:
            print(f"bench: workload {name} did not produce a result", file=sys.stderr)
            return 1
        results[name] = result
        if args.workload != "all":
            print(json.dumps(result))
    if args.workload == "all":
        if not args.trace:
            print_table(results)
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
