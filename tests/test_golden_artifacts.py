"""Golden digests: the generator, model, inventory and policy artifacts of a small fixed run.

The run is ACCEPT-10's configuration (455 generated days, 365 of them for
training, 40 boosting rounds) followed by ``optimize`` at the default shelf
life and at a six-day one, where stock expires, and by ``simulate`` on fixed
order and demand streams that provoke both shortages and expiry.  Each file's
SHA-256 was recorded before the cumulative-arrival kernel replaced the
age-bucket simulators, so a change to the inventory arithmetic, a sweep's
summation order or a writer's formatting fails here.  The ``train`` digests
were recorded when boosting first summed its gradients in per-bin histograms,
with one stated tie and missing-value rule; STL's loess and the linear
reference already summed in a fixed order with no BLAS or LAPACK call, so a
change to a split's, a leaf's or a loess fit's arithmetic fails here too, on
any x86 SIMD level and OpenBLAS kernel.  The ``generate`` digests
were recorded while the generator still built its records one day at a time,
so its column-wise construction and both writers must keep every byte.  The run
ends with ``compare`` under the six-day policy, where every strategy wastes
units and the semiweekly one runs short, and ``decompose``; their digests were
recorded while each strategy still chose its orders through a per-period
callback and the decomposition was written a row at a time.  The ``model.json``
digest alone was recorded again when that document moved to version 2 (the
projection in place of the training decomposition, written compact); the
other ``train`` artifacts kept theirs.
"""

import hashlib

import numpy as np
import pytest

from bloodbank.cli import main as cli_main

from conftest import write_stream

GOLDEN = {
    ("compare", "comparison.csv"):
        "012d400bdf7892cfc7416c6f06f5e6b66338c444238cd7fabac07165dbfb40df",
    ("compare", "comparison.txt"):
        "7f30841027a1ca8134cd92d24ff5f0ae089a6c3fedfcb243ad42fd4607336bb0",
    ("decompose", "decomposition.csv"):
        "75b59a20d4ca75b53ed138a7c5cce8a28a073fadb4d4bffafc376b57a0aa698e",
    ("generate", "dataset.csv"):
        "dea7766bcfca632b98c4e04201b84c5a24ac78b465ff413e25306203cc858de9",
    ("generate", "dataset_truth.csv"):
        "640bdf185fa6d8e30a2b7e5b4d22c0c0b97cb2540b3ad363c7dc9225c74afd04",
    ("optimize", "policy.json"):
        "23373883d962dc48d25b75b44a1d91a08736df6204b49eecf2c16b91364412a8",
    ("optimize", "target_sweep.csv"):
        "944258671f5468de4cf6fac0206b9137093874d16b8e06455c4f062603d006fa",
    ("optimize", "reorder_sweep_daily.csv"):
        "96684b2374f77ae726c3fb434395e7783c52a436a1331506f4d43c9283eedf6c",
    ("optimize", "reorder_sweep_semiweekly.csv"):
        "8d6ef2757eba076a01402db97ef71bd33380ce2ef4b861176bc492fb04613be6",
    ("optimize_short", "policy.json"):
        "2b0f8714ebf8c52b4c8deb8bb37abdce0496d62e491e69dfa3b47d2100f15f68",
    ("optimize_short", "target_sweep.csv"):
        "eb5646c87256602714255f3fa65677df57bd872cba5dc2357dc6f092aeef52cd",
    ("optimize_short", "reorder_sweep_daily.csv"):
        "7b68a5413913860bac6b9e03410a960db614ee13d1a2e2010a6e75408dce0854",
    ("optimize_short", "reorder_sweep_semiweekly.csv"):
        "fe989cbec569b976bbdbdee9c434196cfd1d09272892be204a9d3d9602666f92",
    ("simulate", "trajectory.csv"):
        "b403c2b9b51b13f02caebdd6c2968430972195c35f0ea4270a5c35c245014e77",
    ("train", "model.json"):
        "55e6a1d5e5e64e5c308d1b75788eb16ff2dc61c25078eba42831e22b8b222a30",
    ("train", "train_report.csv"):
        "d475467331a1bf1968455223ee184fb85d1c11e44fe92561a48b40b40554461b",
    ("train", "holdout_report.csv"):
        "051384bccc470f7de0fee4b951d0e6be559b6d6f46b03c9138eaef4b94aa4a5c",
}


@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(2024)
    write_stream(root / "orders.csv", rng.integers(0, 60, size=200).tolist())
    write_stream(root / "demands.csv", rng.integers(0, 50, size=200).tolist())
    report = root / "train" / "train_report.csv"
    commands = [
        ["generate", "--days", "455", "--seed", "31", "--out-dir", root / "generate"],
        ["train", "--data", root / "generate" / "dataset.csv", "--train-days", "365",
         "--rounds", "40", "--seed", "4", "--out-dir", root / "train"],
        ["optimize", "--report", report, "--initial", "780", "--target-grid", "780:1200:60",
         "--reorder-grid", "0:1200:60", "--out-dir", root / "optimize"],
        ["optimize", "--report", report, "--initial", "300", "--shelf-life", "6",
         "--target-grid", "0:900:30", "--out-dir", root / "optimize_short"],
        ["simulate", "--orders", root / "orders.csv", "--demands", root / "demands.csv",
         "--initial", "150", "--shelf-life", "6", "--out-dir", root / "simulate"],
        ["compare", "--report", report, "--policy", root / "optimize_short" / "policy.json",
         "--initial", "300", "--shelf-life", "6", "--out-dir", root / "compare"],
        ["decompose", "--data", root / "generate" / "dataset.csv", "--out-dir",
         root / "decompose"],
    ]
    for command in commands:
        assert cli_main([str(part) for part in command]) == 0
    return root


@pytest.mark.parametrize("stage,artifact", sorted(GOLDEN))
def test_artifact_digest_is_pinned(run_root, stage, artifact):
    digest = hashlib.sha256((run_root / stage / artifact).read_bytes()).hexdigest()
    assert digest == GOLDEN[stage, artifact]
