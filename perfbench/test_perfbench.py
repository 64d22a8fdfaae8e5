"""The benchmark's own tests, at toy size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload driver runs once at toy size (traced and untraced) and
must emit every metric ``BENCHMARK.json`` names, with its unit; the
correctness gate must trip on a deliberately wrong ground truth.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import run
import workloads
from tracing import Recorder

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, directory: pathlib.Path, seed: int = 3):
    subprocess.run(
        [
            sys.executable,
            str(run.HERE / "generate.py"),
            str(directory),
            json.dumps(workload.shape.fixture_kwargs(seed)),
        ],
        check=True,
    )
    return str(directory / "network.json"), workloads.load_truth(
        directory / "truth.json"
    )


def _wrong_truth(network_path: str) -> frozenset:
    """A ground truth that approves every candidate, conflicts included."""
    return frozenset(workloads.load_network(network_path).correspondences)


def test_benchmark_json_names_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        run.PER_LAYER
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    workload = workloads.toy(workloads.WORKLOADS[name])
    report, recorder = run.run(workload, 3, 0, trace, tmp_path)
    assert report["failed"] == 0, report["errors"]
    assert report["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(key, m["unit"]) for key, m in report["metrics"].items()] == list(
        expected
    )
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert recorder.spans
        assert report["metrics"]["select.calls"]["value"] > 0
        assert report["metrics"]["integrate.calls"]["value"] > 0
    else:
        for key in ("setup_s", "ops_per_s", "op_p50_ms", "restore_s", "total_s"):
            assert report["metrics"][key]["value"] > 0, key


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_trips_on_a_wrong_ground_truth(name, tmp_path):
    workload = workloads.toy(workloads.WORKLOADS[name])
    network_path, truth = _inputs(workload, tmp_path)
    pass_fn = (
        workloads.fleet_pass if workload.kind == "fleet" else workloads.expert_pass
    )
    good = pass_fn(workload, network_path, truth, 3, tmp_path)
    assert good.failed == 0, good.errors
    bad = pass_fn(workload, network_path, _wrong_truth(network_path), 3, tmp_path)
    assert bad.failed > 0
    assert bad.errors


def test_expert_gate_compares_against_the_truth(tmp_path):
    workload = workloads.toy(workloads.WORKLOADS["ig-reference"])
    network_path, truth = _inputs(workload, tmp_path)
    network = workloads.load_network(network_path)
    pnet = workloads.build_pnet(network, False, workload.samples, 3)
    session = workloads.build_expert(pnet, truth, "information-gain", 3)
    session.run()
    total = len(network.correspondences)
    passed = workloads.PassResult()
    workloads.verify_expert(session, truth, total, passed)
    assert passed.failed == 0, passed.errors
    failed = workloads.PassResult()
    workloads.verify_expert(session, truth - {next(iter(truth))}, total, failed)
    assert failed.failed == 1


def test_cli_exits_nonzero_when_the_gate_fails(tmp_path, monkeypatch, capsys):
    toys = {name: workloads.toy(w) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", toys)
    monkeypatch.setattr(run, "OUT", tmp_path)

    def wrong(path):
        return _wrong_truth(str(pathlib.Path(path).with_name("network.json")))

    monkeypatch.setattr(workloads, "load_truth", wrong)
    code = run.main(
        ["--workload", "ig-reference", "--seed", "3", "--seconds", "0"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] > 0


def test_self_time_and_coverage():
    recorder = Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner.parent == 0
    selfs = recorder.self_times()
    assert selfs["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    window = (outer.start - 1.0, outer.end)
    assert recorder.covered([window]) == pytest.approx(outer.end - outer.start)


def test_patch_and_restore_leave_the_original():
    class Thing:
        def value(self):
            return 7

    thing = Thing()
    recorder = Recorder()
    with recorder.patched():
        recorder.patch(thing, "value", "thing.value")
        assert thing.value() == 7
    assert "value" not in vars(thing)
    assert [span.name for span in recorder.spans] == ["thing.value"]
    with recorder.suspended():
        with recorder.span("hidden"):
            pass
    assert len(recorder.spans) == 1
