"""End-to-end reconciliation benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload ig-reference --seed 1 --seconds 55 --trace 0

Generates the workload's network file and ground truth from ``--seed``
(in a child process, outside every timed region), then repeats whole
passes — load → build → reconcile → checkpoint → restore → continue →
verify — for ``--seconds`` seconds.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn, each in its own process,
and exits non-zero if any of them failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, the loop time no span covers and the tracing overhead; it
also prints a self-time table and writes every span to
``.perfbench/spans/``.  Every run writes its fingerprinted result to
``.perfbench/results/``.  A failed correctness check exits with code 1.
See ``perfbench/NOTES.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("restore_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER = (
    ("io.parse_s", "s"),
    ("network.compile_s", "s"),
    ("network.violations", "count"),
    ("estimator.build_s", "s"),
    ("shard.shards", "count"),
    ("select.s", "s"),
    ("select.calls", "count"),
    ("integrate.s", "s"),
    ("integrate.calls", "count"),
    ("estimator.integrate_s", "s"),
    ("uncertainty.s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.parse_s", "s"),
    ("checkpoint.rebuild_s", "s"),
    ("journal.append_s", "s"),
    ("journal.appends", "count"),
    ("recover.s", "s"),
    ("recover.post_delta_ok", "count"),
    ("delta.network_s", "s"),
    ("delta.session_s", "s"),
    ("crowd.round_s", "s"),
    ("crowd.rounds", "count"),
    ("service.wait_s", "s"),
    ("service.serve_s", "s"),
    ("service.max_queue_depth", "count"),
    ("catalog.hit_ratio", "ratio"),
    ("select.ig_sharded_ok", "count"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Per-layer metric → the span whose *total* time it reports.
SPAN_TOTALS = {
    "network.compile_s": "network.compile",
    "estimator.build_s": "estimator.build",
    "select.s": "select",
    "integrate.s": "integrate",
    "estimator.integrate_s": "estimator.integrate",
    "uncertainty.s": "uncertainty",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.rebuild_s": "checkpoint.rebuild",
    "journal.append_s": "journal.append",
    "recover.s": "recover",
    "delta.network_s": "delta.network",
    "delta.session_s": "delta.session",
    "crowd.round_s": "crowd.round",
}
#: Per-layer metric → the span whose *self* time it reports (the part
#: of the call its instrumented children do not cover).
SPAN_SELF = {
    "io.parse_s": "io.load",
    "checkpoint.parse_s": "checkpoint.restore",
}
#: Per-layer metric → the span whose call count it reports.
SPAN_CALLS = {
    "select.calls": "select",
    "integrate.calls": "integrate",
    "journal.appends": "journal.append",
    "crowd.rounds": "crowd.round",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def fingerprint(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def layer_metrics(recorder, since: int, result) -> dict:
    """The per-layer numbers of one traced pass."""
    totals = recorder.totals(since)
    selfs = recorder.self_times(since)
    calls = recorder.calls(since)
    values = {name: totals.get(span, 0.0) for name, span in SPAN_TOTALS.items()}
    values.update({name: selfs.get(span, 0.0) for name, span in SPAN_SELF.items()})
    values.update({name: calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    values.update(result.layers)
    loop = sum(end - start for start, end in result.windows)
    values["unattributed_s"] = loop - recorder.covered(result.windows, since)
    return values


def fastest(columns: list) -> list:
    """Per operation, its fastest time over the passes that repeated it."""
    return [min(times) for times in zip(*columns)]


def end_to_end(passes: list, inputs: int, kind: str) -> dict:
    """Reduce untraced passes to the end-to-end metrics (except RSS).

    Passes over one input repeat identical work, so set-up, restore and
    total time are the fastest pass, and each expert operation's latency
    is its fastest over the passes: other tenants of a shared machine
    slow the CPU in episodes, and the fastest repeat is the program's
    own cost (NOTES.md, "Steadiness").  Fleet latencies are pooled over
    the passes instead, because a command's queue wait changes with the
    interleaving of each pass.  Expert throughput is operations per
    second of operation time (the sum of the fastest latencies); the
    fleet's is the best pass's commands per second of wall-clock,
    because its latencies overlap.  With several inputs the per-input
    values are averaged.
    """
    per_input = []
    for i in range(inputs):
        group = [result for index, result in passes if index == i]
        if kind == "expert":
            ops = fastest([result.ops for result in group])
            reads = fastest([result.reads for result in group])
        else:
            ops = [op for result in group for op in result.ops]
            reads = [read for result in group for read in result.reads]
        per_input.append(
            {
                "setup_s": min(result.setup_s for result in group),
                "ops_per_s": (
                    len(ops) / sum(ops)
                    if kind == "expert"
                    else max(result.ops_per_s for result in group)
                ),
                "op_p50_ms": percentile(ops, 50) * 1e3,
                "op_p99_ms": percentile(ops, 99) * 1e3,
                "read_p50_ms": percentile(reads, 50) * 1e3,
                "restore_s": min(result.restore_s for result in group),
                "total_s": min(result.total_s for result in group),
            }
        )
    return {
        name: statistics.fmean(values[name] for values in per_input)
        for name in per_input[0]
    }


def run(workload, seed: int, seconds: float, trace: bool, workdir: pathlib.Path):
    """Generate inputs, run passes, reduce; returns (report, recorder).

    Input ``i`` of ``workload.inputs`` is generated from seed
    ``seed * inputs + i`` (so one seed's inputs never overlap another's),
    and its sessions are seeded the same way.  Untraced passes cycle
    through the inputs; traced runs pair an untraced and a traced pass
    on each input, so ``trace.overhead_ratio`` compares like with like.
    """
    import workloads
    from tracing import Recorder

    inputs = []
    for i in range(workload.inputs):
        input_seed = seed * workload.inputs + i
        directory = workdir / f"input{i}"
        directory.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [
                sys.executable,
                str(HERE / "generate.py"),
                str(directory),
                json.dumps(workload.shape.fixture_kwargs(input_seed)),
            ],
            check=True,
            timeout=170,
        )
        truth = workloads.load_truth(directory / "truth.json")
        inputs.append((str(directory / "network.json"), truth, input_seed, directory))
    run_pass = (
        workloads.fleet_pass if workload.kind == "fleet" else workloads.expert_pass
    )

    recorder = Recorder() if trace else None
    plain, traced = [], []  # (input index, PassResult[, layer values])
    digests = {}
    # A cycle visits every input once (traced: an untraced and a traced
    # pass each).  Runs end on a cycle boundary, and a cycle starts only
    # if it fits in ``seconds`` at the pace of the previous one, so every
    # input gets the same number of passes and the run does not overshoot.
    cycle = workload.inputs * (2 if trace else 1)
    start = time.perf_counter()
    cycle_start = start
    count = 0
    while True:
        tracing = trace and count % 2 == 1
        index = (count // 2 if trace else count) % workload.inputs
        network_path, truth, input_seed, directory = inputs[index]
        since = len(recorder.spans) if tracing else 0
        # Start every pass from the same heap: the previous pass's cyclic
        # garbage would otherwise be collected at a different point of
        # each pass, as if by chance.
        gc.collect()
        try:
            with recorder.patched() if tracing else nullcontext():
                if tracing:
                    workloads.instrument_modules(recorder)
                result = run_pass(
                    workload,
                    network_path,
                    truth,
                    input_seed,
                    directory,
                    recorder if tracing else None,
                )
        except Exception as error:  # noqa: BLE001 - a failed pass is reported
            result = workloads.PassResult(attempted=1, failed=1)
            result.errors.append(f"pass raised {error!r}")
        digests.setdefault(index, result.digest)
        result.check(
            result.failed or result.digest == digests[index],
            f"pass {count + 1} ended in another state than pass 1 on input {index}",
        )
        if tracing:
            traced.append((index, result, layer_metrics(recorder, since, result)))
        else:
            plain.append((index, result))
        count += 1
        if result.failed:
            break
        if count % cycle == 0:
            now = time.perf_counter()
            if now + (now - cycle_start) - start > seconds:
                break
            cycle_start = now

    results = [result for _, result in plain] + [result for _, result, _ in traced]
    report = {
        "workload": workload.name,
        "fingerprint": fingerprint(seed),
        "inputs": [input_seed for _, _, input_seed, _ in inputs],
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "errors": [error for result in results for error in result.errors][:20],
        "per_pass": [
            {
                "input": index,
                "setup_s": result.setup_s,
                "ops_per_s": result.ops_per_s,
                "op_p50_ms": percentile(result.ops, 50) * 1e3,
                "restore_s": result.restore_s,
                "total_s": result.total_s,
            }
            for index, result in plain
        ],
    }
    if report["failed"]:
        report["metrics"] = {
            name: {"value": 0.0, "unit": unit}
            for name, unit in (PER_LAYER if trace else END_TO_END)
        }
        return report, recorder
    if trace:
        medians = {
            name: statistics.median(values.get(name, 0) for _, _, values in traced)
            for name, _ in PER_LAYER
            if name != "trace.overhead_ratio"
        }
        medians["trace.overhead_ratio"] = statistics.median(
            result.ops_per_s / plain[position][1].ops_per_s
            for position, (_, result, _) in enumerate(traced)
        )
        report["metrics"] = {
            name: {"value": medians[name], "unit": unit} for name, unit in PER_LAYER
        }
        report["samples"] = {"traced_passes": len(traced)}
    else:
        values = end_to_end(plain, workload.inputs, workload.kind)
        values["peak_rss_mb"] = workloads.peak_rss_mb()
        report["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
        }
        report["samples"] = {
            "inputs": workload.inputs,
            "passes": len(plain),
            "ops_per_pass": [len(result.ops) for _, result in plain],
            "reads_per_pass": [len(result.reads) for _, result in plain],
        }
    return report, recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all'"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        # Each workload in a fresh process, so each peak RSS is its own.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name]
                + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
                + ["--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        report, recorder = run(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as handle:
        json.dump(report, handle, indent=2)
    if recorder is not None:
        from tracing import self_time_table

        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        recorder.dump(OUT / "spans" / f"{tag}.jsonl")
        print(self_time_table(recorder, f"self time, {workload.name} (all traced passes)"))
    for name, metric in report["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"samples: {json.dumps(report.get('samples'))}")
    for error in report["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    correct = report["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
