"""Does the speed factor depend on the code it runs between?

Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 bench/calibration.py --seconds 90

Under one ``Speedometer``, this script runs units of three different code
mixes in turn: a ``scenario_replay`` repeat (pure-Python inventory loop), a
``model_selection`` repeat (numpy-heavy boosting) and the six CLI commands on
a small dataset (``paper_pipeline``'s warm-up: argument parsing and artifact
I/O).  The machine's speed changes the same way for all three, because they
alternate.  For each mix it prints the speed factor over its units and the
interquartile spread of its raw and calibrated times.  If the kernel's timing
depended on the code around it, the factors of the three mixes would differ.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=90)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    work = ROOT / ".bench_out" / "calibration"
    replay, selection = workloads.ScenarioReplay(), workloads.ModelSelection()
    replay.setup(args.seed, work)
    selection.setup(args.seed, work)
    pipeline = workloads.PaperPipeline()
    units = {
        "scenario_replay": lambda: replay.run(work, time.perf_counter),
        "model_selection": lambda: selection.run(work, time.perf_counter),
        "small_pipeline": lambda: pipeline.setup(args.seed, work / "pipeline"),
    }
    spans = {name: [] for name in units}
    try:
        with Speedometer() as speed:
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                for name, unit in units.items():
                    begin = time.perf_counter()
                    unit()
                    spans[name].append((begin, time.perf_counter()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{'mix':16} {'n':>3} {'factor':>7} {'f_q1':>6} {'f_q3':>6} "
          f"{'raw_med':>8} {'raw_iqr':>7} {'cal_med':>8} {'cal_iqr':>7}")
    for name, intervals in spans.items():
        factors = [speed.factor(a, b) for a, b in intervals]
        factors = [f for f in factors if f is not None]
        raw = [b - a for a, b in intervals]
        cal = [speed.seconds(a, b) for a, b in intervals]
        q1, _, q3 = statistics.quantiles(factors, n=4)
        print(f"{name:16} {len(raw):3d} {statistics.median(factors):7.3f} {q1:6.3f} {q3:6.3f} "
              f"{statistics.median(raw):8.3f} {spread(raw):7.3f} "
              f"{statistics.median(cal):8.3f} {spread(cal):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
