"""The benchmark workloads, each one pass from network file to verdict.

A *pass* is the user's whole path once: ``repro.io.load_network`` → build
the session(s) → reconcile → checkpoint → restore → continue → verify.
``run.py`` repeats passes for the requested number of seconds and reduces
them to the reported metrics.  All load is closed loop: a client sends
its next operation only after the previous one returned.

With a :class:`~tracing.Recorder` a pass also records spans around the
calls it makes into each layer (see ``instrument_*``); without one it
patches nothing, so the end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pathlib
import random
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

import repro.durability.checkpoint as checkpoint_module
import repro.io as io_module
import repro.service.service as service_module
from repro.core.correspondence import correspondence
from repro.core.feedback import Oracle
from repro.core.probability import ProbabilisticNetwork
from repro.core.reconciliation import ReconciliationSession
from repro.core.schema import Attribute
from repro.core.selection import InformationGainSelection
from repro.crowd import (
    BudgetLedger,
    CrowdSession,
    WorkerPool,
    make_aggregator,
    make_assignment,
)
from repro.durability import recover, restore_session, save_checkpoint
from repro.experiments.churn import make_churn_delta
from repro.experiments.scenarios import make_strategy
from repro.io import load_network
from repro.service import ReconciliationService
from repro.shard import ShardedEstimator
from tracing import Recorder

#: Expert clients issue a status read every this many steps; fleet
#: experts submit a ``query`` command as often.
QUERY_EVERY = 10
#: Fraction of the schemas the fleet's shared churn delta replaces.
CHURN_FRACTION = 0.1


@dataclass(frozen=True)
class Shape:
    """``synthetic_fixture`` keyword arguments, minus the seed."""

    n_correspondences: int
    n_schemas: int
    attributes_per_schema: int = 150
    conflict_bias: float = 0.35

    def fixture_kwargs(self, seed: int) -> dict:
        return {
            "n_correspondences": self.n_correspondences,
            "n_schemas": self.n_schemas,
            "attributes_per_schema": self.attributes_per_schema,
            "conflict_bias": self.conflict_bias,
            "seed": seed,
        }


@dataclass(frozen=True)
class Tenant:
    """One tenant of the fleet: an expert or a crowd over one estimator."""

    strategy: str
    sharded: bool
    crowd: bool = False
    durable: bool = False


#: The fleet's tenant mix: 2 unsharded IG experts, 4 sharded experts
#: (2 likelihood, 1 random, 1 entropy), 2 crowds (sharded likelihood,
#: unsharded IG); 3 durable.
FLEET = (
    Tenant("information-gain", sharded=False, durable=True),
    Tenant("information-gain", sharded=False),
    Tenant("likelihood", sharded=True, durable=True),
    Tenant("likelihood", sharded=True),
    Tenant("random", sharded=True),
    Tenant("entropy", sharded=True),
    Tenant("likelihood", sharded=True, crowd=True, durable=True),
    Tenant("information-gain", sharded=False, crowd=True),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "expert" | "fleet"
    shape: Shape
    samples: int = 250
    #: Networks generated per run; each run reports the mean over them,
    #: which evens out how much harder one seed's network is than another.
    inputs: int = 1
    # Fleet program length per tenant.
    expert_steps: int = 160
    crowd_rounds: int = 20


REFERENCE = Shape(n_correspondences=1500, n_schemas=24)

WORKLOADS = {
    "ig-reference": Workload("ig-reference", "expert", REFERENCE, inputs=3),
    "service-fleet": Workload("service-fleet", "fleet", REFERENCE),
}


def toy(workload: Workload) -> Workload:
    """The same workload at a size that runs in well under a second."""
    return replace(
        workload,
        shape=Shape(n_correspondences=120, n_schemas=8, attributes_per_schema=30),
        samples=40,
        expert_steps=24,
        crowd_rounds=4,
    )


@dataclass
class PassResult:
    """What one pass measured; times in seconds."""

    setup_s: float = 0.0
    loop_s: float = 0.0
    restore_s: float = 0.0
    total_s: float = 0.0
    ops: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Loop wall-clock windows (perf_counter pairs), for unattributed time.
    windows: list = field(default_factory=list)
    #: Per-layer counts and figures the pass read off the program.
    layers: dict = field(default_factory=dict)
    #: Digest of the final session states; passes over the same input
    #: must agree (the program is deterministic given its seeds).
    digest: str = ""

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / self.loop_s if self.loop_s else 0.0

    def check(self, condition: bool, message: str) -> None:
        """A correctness gate: a failure counts as one failed operation."""
        if not condition:
            self.failed += 1
            self.errors.append(message)


def state_digest(sessions) -> str:
    """SHA-256 of each session's feedback, uncertainty and question order."""
    digest = hashlib.sha256()
    for session in sessions:
        feedback = session.pnet.feedback
        steps = getattr(session.trace, "steps", ())
        state = (
            sorted(map(str, feedback.approved)),
            sorted(map(str, feedback.disapproved)),
            repr(session.uncertainty()),
            [str(step.correspondence) for step in steps],
        )
        digest.update(repr(state).encode())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_truth(path) -> frozenset:
    """The oracle's ground truth, as value-equal detached correspondences."""
    with open(path) as handle:
        document = json.load(handle)
    return frozenset(
        correspondence(
            Attribute(schema=entry["source"]["schema"], name=entry["source"]["name"]),
            Attribute(schema=entry["target"]["schema"], name=entry["target"]["name"]),
        )
        for entry in document["correspondences"]
    )


def _span(recorder: Optional[Recorder], name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


# ---------------------------------------------------------------------------
# Instrumentation (traced passes only)
# ---------------------------------------------------------------------------


def instrument_modules(recorder: Recorder) -> None:
    """Spans around module-level functions the program calls internally."""
    recorder.patch(io_module, "network_from_dict", "network.compile")
    recorder.patch(checkpoint_module, "network_from_dict", "network.compile")
    recorder.patch(checkpoint_module, "session_from_dict", "checkpoint.rebuild")
    recorder.patch(service_module, "save_checkpoint", "checkpoint.save")


def instrument_session(recorder: Recorder, session, tag: str = "") -> None:
    """Spans around one live session's layer entry points.

    ``tag`` (fleet tenants) additionally stamps every span a mutating
    command opens with an operation id ``tag#n``: the tenant's n-th
    step, round or delta.
    """
    pnet = session.pnet
    recorder.patch(pnet, "record_assertion", "integrate")
    recorder.patch(pnet.estimator, "record_assertion", "estimator.integrate")
    recorder.patch(pnet, "uncertainty", "uncertainty")
    recorder.patch(session, "apply_delta", "delta.session")
    if hasattr(session, "strategy"):
        recorder.patch(session.strategy, "select", "select")
    else:
        recorder.patch(session, "round", "crowd.round")
    if session.journal is not None:
        recorder.patch(session.journal, "append", "journal.append")
    if tag:
        recorder.tag(session, ("step", "round", "apply_delta"), tag)


def probe_post_delta_restore(session, path: pathlib.Path) -> int:
    """1 if a checkpoint of ``session`` (past a delta) restores, else 0.

    Writes the checkpoint to ``path`` and reads it back; the session
    itself is not touched and the probe is not a workload operation.
    """
    save_checkpoint(session, path)
    try:
        restore_session(path)
    except io_module.FormatError:
        return 0
    finally:
        path.unlink()
    return 1


def probe_ig_sharded(pnet) -> int:
    """1 if information-gain selection works on a sharded estimator, else 0.

    Selection only reads the network, with its own RNG, so the probe
    leaves the session exactly as it was; it is not a workload operation.
    """
    try:
        InformationGainSelection(rng=random.Random(0)).select(pnet)
    except ValueError:
        return 0
    return 1


# ---------------------------------------------------------------------------
# Session construction
# ---------------------------------------------------------------------------


def build_pnet(network, sharded: bool, samples: int, seed: int, catalog=None):
    if sharded:
        return ProbabilisticNetwork(
            network,
            estimator=ShardedEstimator(
                network,
                target_samples=samples,
                rng=random.Random(seed),
                catalog=catalog,
            ),
        )
    return ProbabilisticNetwork(
        network, target_samples=samples, rng=random.Random(seed)
    )


def build_expert(pnet, truth, strategy: str, seed: int):
    return ReconciliationSession(
        pnet, Oracle(truth), make_strategy(strategy, random.Random(seed + 1))
    )


def build_crowd(pnet, truth, criterion: str, seed: int):
    return CrowdSession(
        pnet,
        WorkerPool.from_distribution(truth, 12, distribution="mixed", seed=seed + 2),
        k=4,
        redundancy=3,
        criterion=criterion,
        assignment=make_assignment("reliability", rng=random.Random(seed + 1)),
        aggregator=make_aggregator("weighted"),
        ledger=BudgetLedger(cost_per_answer=1.0),
        on_conflict="disapprove",
    )


def _status(session) -> tuple:
    """The read a client issues between questions (the service ``query``)."""
    return (len(session.trace.steps), session.uncertainty(), session.effort())


# ---------------------------------------------------------------------------
# The expert workload: ig-reference
# ---------------------------------------------------------------------------


def _expert_loop(session, until: int, result: PassResult, recorder):
    clock = time.perf_counter
    window_start = clock()
    while len(session.trace.steps) < until:
        step = len(session.trace.steps) + 1
        result.attempted += 1
        with recorder.operation(str(step)) if recorder else nullcontext():
            start = clock()
            try:
                record = session.step()
            except Exception as error:  # noqa: BLE001 - counted, reported
                result.failed += 1
                result.errors.append(f"step {step}: {error!r}")
                break
            result.ops.append(clock() - start)
        if record is None:
            result.check(False, f"session finished early at step {step}")
            break
        if step % QUERY_EVERY == 0:
            start = clock()
            _status(session)
            result.reads.append(clock() - start)
    end = clock()
    result.windows.append((window_start, end))
    result.loop_s += end - window_start


def expert_pass(
    workload: Workload,
    network_path: str,
    truth: frozenset,
    seed: int,
    workdir: pathlib.Path,
    recorder: Optional[Recorder] = None,
) -> PassResult:
    """Load, reconcile half, checkpoint, restore, finish, verify."""
    result = PassResult()
    clock = time.perf_counter
    begin = clock()
    with _span(recorder, "io.load"):
        network = load_network(network_path)
    with _span(recorder, "estimator.build"):
        pnet = build_pnet(network, False, workload.samples, seed)
    session = build_expert(pnet, truth, "information-gain", seed)
    result.setup_s = clock() - begin

    total = len(network.correspondences)
    result.layers["network.violations"] = network.violation_count()
    if recorder is not None:
        # The IG probe runs on a sharded estimator built for it alone,
        # outside every timed region.
        paused = clock()
        with recorder.suspended():
            sharded = build_pnet(network, True, workload.samples, seed)
            result.layers["shard.shards"] = sharded.estimator.n_shards
            result.layers["select.ig_sharded_ok"] = probe_ig_sharded(sharded)
        del sharded
        begin += clock() - paused
        instrument_session(recorder, session)

    _expert_loop(session, total // 2, result, recorder)

    checkpoint = workdir / "checkpoint.json"
    if not result.failed:
        with _span(recorder, "checkpoint.save"):
            save_checkpoint(session, checkpoint)
        result.layers["checkpoint.bytes"] = checkpoint.stat().st_size
        start = clock()
        with _span(recorder, "checkpoint.restore"):
            restored = restore_session(checkpoint)
        result.restore_s = clock() - start
        result.check(
            restored.uncertainty() == session.uncertainty(),
            "restored uncertainty differs from the saved session's",
        )
        result.check(
            restored.pnet.probability_vector().tobytes()
            == session.pnet.probability_vector().tobytes(),
            "restored probability vector differs from the saved session's",
        )
        session = restored
        if recorder is not None:
            instrument_session(recorder, session)
        _expert_loop(session, total, result, recorder)

    if not result.failed:
        verify_expert(session, truth, total, result)
    result.total_s = clock() - begin
    result.digest = state_digest([session])
    checkpoint.unlink(missing_ok=True)
    return result


def verify_expert(session, truth: frozenset, total: int, result: PassResult) -> None:
    """The expert gate: F⁺ is the truth, |trace| = |C|, no uncertainty left."""
    result.check(
        session.pnet.feedback.approved == truth,
        "approved correspondences differ from the ground truth",
    )
    result.check(
        len(session.trace.steps) == total,
        f"trace has {len(session.trace.steps)} steps, expected {total}",
    )
    result.check(
        session.uncertainty() == 0.0,
        f"final uncertainty {session.uncertainty()!r}, expected 0",
    )


# ---------------------------------------------------------------------------
# The service fleet
# ---------------------------------------------------------------------------


def fleet_programs(workload: Workload, names: list, delta) -> dict:
    """Per-tenant command lists; every tenant applies ``delta`` mid-way."""
    programs = {}
    for name, tenant in zip(names, FLEET):
        if tenant.crowd:
            program = [{"op": "round"}] * workload.crowd_rounds
        else:
            program = []
            for step in range(1, workload.expert_steps + 1):
                program.append({"op": "step"})
                if step % QUERY_EVERY == 0:
                    program.append({"op": "query"})
        program.insert(len(program) // 2, {"op": "apply_delta", "delta": delta})
        programs[name] = program
    return programs


async def _drive(service, programs: dict, result: PassResult, threads: int):
    """One closed-loop client per tenant; returns loop wall-clock seconds."""
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=threads)
    )
    clock = time.perf_counter

    async def client(name, program):
        for command in program:
            result.attempted += 1
            start = clock()
            try:
                await service.submit(name, command)
            except Exception as error:  # noqa: BLE001 - counted, reported
                result.failed += 1
                result.errors.append(f"{name} {command['op']}: {error!r}")
                return
            elapsed = clock() - start
            result.ops.append(elapsed)
            if command["op"] == "query":
                result.reads.append(elapsed)

    start = clock()
    await asyncio.gather(*(client(name, p) for name, p in programs.items()))
    await service.drain()
    end = clock()
    result.windows.append((start, end))
    return end - start


def fleet_pass(
    workload: Workload,
    network_path: str,
    truth: frozenset,
    seed: int,
    workdir: pathlib.Path,
    recorder: Optional[Recorder] = None,
) -> PassResult:
    """8 tenants through one service; durable tenants recovered after."""
    result = PassResult()
    clock = time.perf_counter
    begin = clock()
    with _span(recorder, "io.load"):
        network = load_network(network_path)
    paused = clock()
    # The churn delta is client input, built outside the timed set-up.
    delta = make_churn_delta(
        network, CHURN_FRACTION, random.Random(seed + 3)
    )
    begin += clock() - paused
    if recorder is not None:
        recorder.patch(network, "apply_delta", "delta.network")

    service = ReconciliationService(concurrency=2)
    names, sessions, durable = [], {}, {}
    for index, tenant in enumerate(FLEET):
        tenant_seed = seed + 100 * index
        name = f"t{index}-{'crowd' if tenant.crowd else 'expert'}-{tenant.strategy}"
        with _span(recorder, "estimator.build"):
            pnet = build_pnet(
                network,
                tenant.sharded,
                workload.samples,
                tenant_seed,
                catalog=service.catalog,
            )
        build = build_crowd if tenant.crowd else build_expert
        session = build(pnet, truth, tenant.strategy, tenant_seed)
        directory = None
        if tenant.durable:
            directory = durable[name] = workdir / name
        service.add_tenant(
            name,
            session,
            checkpoint_dir=directory,
            # Only the admission checkpoint: one written after a
            # schema-removing delta cannot be restored today (NOTES.md,
            # known gaps), so recovery replays the whole journal.
            checkpoint_every=0,
        )
        if recorder is not None:
            instrument_session(recorder, session, tag=name)
        names.append(name)
        sessions[name] = session
    result.setup_s = clock() - begin

    sharded = next(
        session.pnet
        for session, tenant in zip(sessions.values(), FLEET)
        if tenant.sharded
    )
    result.layers["network.violations"] = network.violation_count()
    result.layers["shard.shards"] = sharded.estimator.n_shards
    if recorder is not None:
        result.layers["select.ig_sharded_ok"] = probe_ig_sharded(sharded)

    programs = fleet_programs(workload, names, delta)
    threads = min(2, len(os.sched_getaffinity(0)))
    result.loop_s = asyncio.run(_drive(service, programs, result, threads))

    stats = service.stats()
    tenants = stats["tenants"].values()
    result.layers["service.wait_s"] = sum(t["wait_seconds"] for t in tenants)
    result.layers["service.serve_s"] = sum(t["serve_seconds"] for t in tenants)
    result.layers["service.max_queue_depth"] = max(
        t["max_queue_depth"] for t in tenants
    )
    catalog = stats["catalog"]
    hits = catalog["subnet_hits"] + catalog["fill_hits"] + catalog["delta_hits"]
    attempts = hits + (
        catalog["subnet_misses"] + catalog["fill_misses"] + catalog["delta_misses"]
    )
    result.layers["catalog.hit_ratio"] = hits / attempts if attempts else 0.0
    result.check(
        catalog["delta_hits"] == len(names) - 1,
        f"catalog delta hits {catalog['delta_hits']}, expected {len(names) - 1}",
    )

    # Bring the durable tenants back from their journals: evicted without
    # a closing checkpoint, as after a crash, so recovery restores the
    # admission checkpoint and replays every journaled transaction.
    for name in durable:
        service.remove_tenant(name, checkpoint=False)
    service.close()
    live = {name: sessions[name].uncertainty() for name in durable}
    result.digest = state_digest(sessions.values())
    if recorder is not None:
        paused = clock()
        with recorder.suspended():
            result.layers["recover.post_delta_ok"] = probe_post_delta_restore(
                sessions[next(iter(durable))], workdir / "probe.json"
            )
        begin += clock() - paused
    result.layers["checkpoint.bytes"] = sum(
        (directory / "checkpoint.json").stat().st_size
        for directory in durable.values()
    )
    start = clock()
    recovered = {}
    for name, directory in durable.items():
        with _span(recorder, "recover"):
            recovered[name], _ = recover(directory)
    result.restore_s = clock() - start
    for name, session in recovered.items():
        result.check(
            session.uncertainty() == live[name],
            f"recovered {name} uncertainty differs from the live session's",
        )
    result.total_s = clock() - begin
    for directory in durable.values():
        for path in directory.iterdir():
            path.unlink()
        directory.rmdir()
    return result
