"""The run directory every command writes: atomic outputs, manifest last."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bloodbank.cli import build_parser, main
from conftest import write_stream

COMMANDS = ("generate", "decompose", "train", "forecast", "simulate", "optimize", "compare")


def run(args):
    return main([str(a) for a in args])


def manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


def command_flags(command):
    """The dests of a subcommand's flags, read from the parser."""
    (subparsers,) = build_parser()._subparsers._group_actions
    actions = subparsers.choices[command]._actions
    return {a.dest for a in actions if a.option_strings and a.dest != "help"}


def command_lines(root):
    """Each subcommand's arguments for a small run whose inputs are the earlier runs'
    outputs under ``root``, one directory per command."""
    d = {command: root / command for command in COMMANDS}
    data = d["generate"] / "dataset.csv"
    return [
        ["generate", "--days", 150, "--seed", 3],
        ["decompose", "--data", data],
        ["train", "--data", data, "--train-days", 120, "--rounds", 3],
        ["forecast", "--model", d["train"] / "model.json", "--data", data, "--horizon", 10],
        ["simulate", "--orders", root / "orders.csv", "--demands", root / "demands.csv",
         "--initial", 200],
        ["optimize", "--report", d["train"] / "train_report.csv", "--initial", 150,
         "--target-grid", "150:300:50", "--reorder-grid", "0:300:50"],
        ["compare", "--report", d["train"] / "holdout_report.csv",
         "--policy", d["optimize"] / "policy.json", "--initial", 150],
    ]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small successful run of every subcommand; command -> run directory."""
    root = tmp_path_factory.mktemp("runs")
    write_stream(root / "orders.csv", [30] * 20)
    write_stream(root / "demands.csv", [28] * 20)
    for command in command_lines(root):
        assert run([*command, "--out-dir", root / command[0]]) == 0
    return {command: root / command for command in COMMANDS}


@pytest.mark.parametrize("command", COMMANDS)
def test_closed_stdout_fails_no_finished_run(runs, tmp_path, command):
    """Under ``| head -0`` the progress line meets a pipe nobody reads.  The run's
    outputs are committed by then: it exits 0 and writes what a normal run writes."""
    (line,) = [c for c in command_lines(runs["generate"].parent) if c[0] == command]
    read, write = os.pipe()
    os.close(read)  # every write to the pipe fails with EPIPE
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    try:
        child = subprocess.run([sys.executable, "-m", "bloodbank.cli", *map(str, line),
                                "--out-dir", str(tmp_path)], stdout=write,
                               stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (0, b"")
    assert manifest(tmp_path)["status"] == "ok"
    names = sorted(path.name for path in runs[command].iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (runs[command] / name).read_bytes(), name


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_config_is_the_parsed_flags(runs, command):
    doc = manifest(runs[command])
    assert doc["command"] == command
    assert doc["status"] == "ok" and "error" not in doc
    assert set(doc["config"]) == command_flags(command) - {"out_dir", "config"}
    assert doc["outputs"] and all((runs[command] / name).is_file() for name in doc["outputs"])
    assert not list(runs[command].glob(".*.tmp"))


def test_inputs_are_the_given_file_flags(runs):
    assert manifest(runs["generate"])["inputs"] == {}
    assert set(manifest(runs["forecast"])["inputs"]) == {
        str(runs["train"] / "model.json"), str(runs["generate"] / "dataset.csv")}
    assert set(manifest(runs["compare"])["inputs"]) == {
        str(runs["train"] / "holdout_report.csv"), str(runs["optimize"] / "policy.json")}


def test_output_path_that_is_a_directory_fails_cleanly(runs, tmp_path, capsys):
    out = tmp_path / "train"
    (out / "train_report.csv").mkdir(parents=True)
    code = run(["train", "--data", runs["generate"] / "dataset.csv", "--train-days", 120,
                "--rounds", 3, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and str(out / "train_report.csv") in err
    doc = manifest(out)
    assert doc["status"] == "failed" and doc["error"] == "IsADirectoryError"
    assert doc["outputs"] == ["model.json"]
    assert all((out / name).is_file() for name in doc["outputs"])
    assert json.loads((out / "model.json").read_text())["format"] == "bloodbank.hybrid"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "model.json",
                                                     "train_report.csv"]


@pytest.mark.parametrize("args", [
    ["decompose", "--data", "missing.csv"],
    ["train", "--data", "{data}", "--train-days", 9999],
    ["generate", "--days", 30, "--start-date", "2008-13-01"],
], ids=["missing-file", "bad-parameter", "bad-date"])
def test_failure_before_first_write_leaves_nothing(runs, tmp_path, monkeypatch, args):
    monkeypatch.setenv("BLOODBANK_RUNS", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    data = runs["generate"] / "dataset.csv"
    assert run([str(a).format(data=data) for a in args]) == 2
    assert list(tmp_path.iterdir()) == []


def test_rerun_removes_the_earlier_outputs(runs, tmp_path):
    data = runs["generate"] / "dataset.csv"  # 150 days
    out = tmp_path / "train"
    assert run(["train", "--data", data, "--train-days", 120, "--rounds", 3,
                "--out-dir", out]) == 0
    assert "holdout_report.csv" in manifest(out)["outputs"]
    (out / "notes.txt").write_text("not an output")
    # no holdout is left after 150 training days, so no holdout report is written
    assert run(["train", "--data", data, "--train-days", 150, "--rounds", 3,
                "--out-dir", out]) == 0
    assert manifest(out)["outputs"] == ["model.json", "train_report.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "model.json",
                                                     "notes.txt", "train_report.csv"]


def test_earlier_output_read_as_input_is_kept(runs, tmp_path):
    out = tmp_path / "train"
    shutil.copytree(runs["train"], out)
    assert run(["compare", "--report", out / "holdout_report.csv",
                "--policy", runs["optimize"] / "policy.json", "--initial", 150,
                "--out-dir", out]) == 0
    assert manifest(out)["outputs"] == ["comparison.csv", "comparison.txt"]
    assert sorted(p.name for p in out.iterdir()) == ["comparison.csv", "comparison.txt",
                                                     "holdout_report.csv", "manifest.json"]


@pytest.mark.parametrize("doc", [{"outputs": ["../outside.txt"]}, {"outputs": "model.json"},
                                 ["model.json"], b'{"outputs": ["\xff"]}'],
                         ids=["parent-path", "not-a-list", "not-object", "not-utf8"])
def test_damaged_earlier_manifest_fails_cleanly(runs, tmp_path, capsys, doc):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.json").write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    (tmp_path / "outside.txt").write_text("kept")
    assert run(["decompose", "--data", runs["generate"] / "dataset.csv", "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(out / "manifest.json") in err
    assert (tmp_path / "outside.txt").read_text() == "kept"
    assert manifest(out)["status"] == "failed" and manifest(out)["outputs"] == []
