"""Golden digests: the model, inventory and policy artifacts of a small fixed run.

The run is ACCEPT-10's configuration (455 generated days, 365 of them for
training, 40 boosting rounds) followed by ``optimize`` at the default shelf
life and at a six-day one, where stock expires, and by ``simulate`` on fixed
order and demand streams that provoke both shortages and expiry.  Each file's
SHA-256 was recorded before the cumulative-arrival kernel replaced the
age-bucket simulators, so a change to the inventory arithmetic, a sweep's
summation order or a writer's formatting fails here.  The ``train`` digests
were recorded before boosting stopped summing its unit hessian, so a change to
a split's or a leaf's arithmetic fails here too.
"""

import hashlib

import numpy as np
import pytest

from bloodbank.cli import main as cli_main

from conftest import write_stream

GOLDEN = {
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
        "598bfe0ba940c70ebff1805b336e743a97fc907aee96c2cffcdc6b46087746ee",
    ("train", "train_report.csv"):
        "25cf909c6e5a66c03908abb7e66394ce36560b5bbf963fb89246db0282d716f6",
    ("train", "holdout_report.csv"):
        "e354cb46d63d95b364d3e6f04c532a1cff502b60d3e2e1eae2b4170a25c72635",
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
    ]
    for command in commands:
        assert cli_main([str(part) for part in command]) == 0
    return root


@pytest.mark.parametrize("stage,artifact", sorted(GOLDEN))
def test_artifact_digest_is_pinned(run_root, stage, artifact):
    digest = hashlib.sha256((run_root / stage / artifact).read_bytes()).hexdigest()
    assert digest == GOLDEN[stage, artifact]
