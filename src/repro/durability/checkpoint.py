"""Versioned checkpoints of live reconciliation sessions.

A checkpoint is one JSON document (``kind: "session-checkpoint"``, versioned
through the :mod:`repro.io` conventions) that captures *everything* a
session's future behaviour depends on:

* the matching network itself (embedded ``matching-network`` document, so a
  checkpoint is self-contained),
* the sample store — Ω* masks (hex strings), feedback F±, the exhaustion
  flag and version counter — plus both sampler RNG streams
  (``random.Random`` Mersenne state and the numpy generator's
  bit-generator state, both of which JSON round-trips exactly),
* the oracle / worker pool: per-worker memoised verdicts and answer-stream
  RNG positions,
* the session shell: strategy or assignment/aggregator state (by registry
  name), budget ledger, worker statistics, conflict counters, the
  assertion order the repair tie-break consults, the fault-injection
  re-queue, the full trace, and the fault plan (including its private RNG
  stream) when one is attached.

``save_checkpoint`` writes atomically (temp file + ``os.replace``);
``restore_session`` rebuilds a live session that continues the *same*
random streams — a restored run is bit-identical to one that never stopped,
which is the property :mod:`repro.durability.recovery` builds on.

Sessions backed by a :class:`~repro.core.probability.SampledEstimator` are
checkpointable, over either store: that is the production path (sharded
checkpoints capture every shard's Ω* masks and both of its RNG streams,
plus the master stream), and the exact estimator's state is a pure function
of feedback anyway.
"""

from __future__ import annotations

import json
import os
import pathlib
import random

from ..core.correspondence import Correspondence
from ..core.correspondence import correspondence as corr_factory
from ..core.feedback import NoisyOracle, Oracle
from ..core.schema import Attribute
from ..core.probability import ProbabilisticNetwork, SampledEstimator
from ..core.reconciliation import (
    ReconciliationSession,
    ReconciliationStep,
    ReconciliationTrace,
)
from ..core.sampling import SampleStore
from ..core.selection import (
    ConfidenceSelection,
    EntropySelection,
    InformationGainSelection,
    LikelihoodSelection,
    RandomSelection,
    SelectionStrategy,
)
from ..crowd.assignment import ASSIGNMENTS, AssignmentPolicy
from ..crowd.aggregation import make_aggregator
from ..crowd.budget import BudgetLedger
from ..crowd.session import CrowdRound, CrowdSession, CrowdTrace
from ..crowd.workers import Worker, WorkerPool
from ..shard import ShardedEstimator, ShardedSampleStore
from ..io import (
    FORMAT_VERSION,
    FormatError,
    _check_version,
    correspondence_from_dict,
    correspondence_to_dict,
    network_from_dict,
    network_to_dict,
)
from .faults import FaultPlan, RetryPolicy

CHECKPOINT_KIND = "session-checkpoint"

#: Selection strategies restorable by name (mirrors the scenario registry;
#: kept local so durability never imports the experiments layer).
_STRATEGIES: dict[str, type[SelectionStrategy]] = {
    cls.name: cls
    for cls in (
        RandomSelection,
        InformationGainSelection,
        EntropySelection,
        LikelihoodSelection,
        ConfidenceSelection,
    )
}


def _json_default(value):
    """Coerce numpy scalars (bit-generator state fields) to Python ints."""
    try:
        return int(value)
    except (TypeError, ValueError):  # pragma: no cover - defensive
        raise TypeError(f"not JSON serialisable: {value!r}") from None


def _rng_from_json(state) -> tuple:
    """A ``random.Random`` state round-tripped through JSON, re-tupled."""
    version, internal, gauss = state
    return (version, tuple(internal), gauss)


# ---------------------------------------------------------------------------
# Leaf codecs
# ---------------------------------------------------------------------------


def _corrs_to_list(corrs) -> list[dict]:
    return [correspondence_to_dict(corr) for corr in sorted(corrs)]


def _corrs_from_list(entries, schemas) -> list[Correspondence]:
    return [correspondence_from_dict(entry, schemas) for entry in entries]


def _detached_corr(entry: dict) -> Correspondence:
    """A correspondence resolved without consulting the network's schemas.

    Ground truths and memoised oracle verdicts may reference schemas a
    later network delta removed; attribute identity is the ``(schema,
    name)`` pair, so detached attributes compare equal to live ones
    wherever both exist.
    """
    return corr_factory(
        Attribute(schema=entry["source"]["schema"], name=entry["source"]["name"]),
        Attribute(schema=entry["target"]["schema"], name=entry["target"]["name"]),
    )


def _recorded_corr(entry: dict, schemas) -> Correspondence:
    """A correspondence named by a history record (a trace step or a
    crowd round's questions).

    History outlives network deltas: a record may name a candidate whose
    schema a later delta removed (or replaced under the same name), and
    that record must still restore — as a detached, value-equal
    correspondence.  Live state (F±, store
    masks, pending questions) is filtered on every delta and keeps
    resolving strictly.
    """
    try:
        return correspondence_from_dict(entry, schemas)
    except FormatError:
        return _detached_corr(entry)


def _truth_from_list(entries) -> frozenset[Correspondence]:
    return frozenset(_detached_corr(entry) for entry in entries)


def _oracle_state_to_dict(oracle: NoisyOracle) -> dict:
    state = oracle.get_state()
    return {
        "rng": state["rng"],
        "verdicts": [
            [correspondence_to_dict(corr), verdict]
            for corr, verdict in state["verdicts"]
        ],
        "assertions_made": state["assertions_made"],
    }


def _oracle_state_from_dict(document: dict) -> dict:
    # Verdict memos are resolved detached: a network delta may have
    # removed the schemas of candidates the oracle already answered.
    return {
        "rng": _rng_from_json(document["rng"]),
        "verdicts": [
            [_detached_corr(entry), bool(verdict)]
            for entry, verdict in document["verdicts"]
        ],
        "assertions_made": document["assertions_made"],
    }


def _store_state_to_dict(state: dict) -> dict:
    """A store ``get_state`` dict made JSON-shaped, for either store.

    Ω* masks become hex strings and F± lists of correspondence dicts; a
    sharded state nests one unsharded store state per shard.  Every other
    field (settings, counters, RNG states) is plain data already.
    """
    document = dict(state)
    if "sample_masks" in state:
        document["sample_masks"] = [
            format(mask, "x") for mask in state["sample_masks"]
        ]
    document["approved"] = _corrs_to_list(state["approved"])
    document["disapproved"] = _corrs_to_list(state["disapproved"])
    if "shards" in state:
        document["shards"] = [
            {**shard, "store": _store_state_to_dict(shard["store"])}
            for shard in state["shards"]
        ]
    return document


def _store_state_from_dict(document: dict, schemas) -> dict:
    """Inverse of :func:`_store_state_to_dict`."""
    state = dict(document)
    if "sample_masks" in document:
        state["sample_masks"] = [
            int(mask, 16) for mask in document["sample_masks"]
        ]
    state["approved"] = _corrs_from_list(document["approved"], schemas)
    state["disapproved"] = _corrs_from_list(document["disapproved"], schemas)
    if "shards" in document:
        state["shards"] = [
            {**shard, "store": _store_state_from_dict(shard["store"], schemas)}
            for shard in document["shards"]
        ]
    return state


def _pnet_to_dict(pnet: ProbabilisticNetwork) -> dict:
    """The ``"sampled"`` or ``"sharded"`` layout of the estimator's store.

    A sharded store's state carries its sampling configuration and every
    shard's sampler streams; an unsharded store's sampler travels beside
    it.
    """
    estimator = pnet.estimator
    if not isinstance(estimator, SampledEstimator):
        raise FormatError(
            "only SampledEstimator-backed sessions are checkpointable"
        )
    store = estimator.store
    if isinstance(store, ShardedSampleStore):
        state = store.get_state()
        # Refill fan-out is not sampling state (a pooled store's state
        # equals its sequential twin's), but a restored session keeps it.
        state["config"]["parallel"] = store.parallel
        return {"estimator": "sharded", **_store_state_to_dict(state)}
    return {
        "estimator": "sampled",
        "store": _store_state_to_dict(store.get_state()),
        "sampler": {
            **store.sampler.settings(),
            "state": store.sampler.get_state(),
        },
    }


def _pnet_from_dict(document: dict, network) -> ProbabilisticNetwork:
    kind = document.get("estimator")
    schemas = {schema.name: schema for schema in network.schemas}
    if kind == "sharded":
        state = _store_state_from_dict(document, schemas)
        estimator = ShardedEstimator.from_store(
            ShardedSampleStore.from_state(network, state)
        )
    elif kind == "sampled":
        # Checkpoints written before multi-chain sampling carry no chain
        # count; the sampler's single-chain default restores them.
        estimator = SampledEstimator.from_store(
            SampleStore.from_state(
                network,
                _store_state_from_dict(document["store"], schemas),
                document["sampler"],
            )
        )
    else:
        raise FormatError(f"unknown estimator kind {kind!r}")
    return ProbabilisticNetwork(network, estimator=estimator)


def faultplan_to_dict(plan: FaultPlan) -> dict:
    """Serialise a fault plan *including* its private RNG stream position."""
    return {
        "seed": plan.seed,
        "timeout_probability": plan.timeout_probability,
        "dropout_probability": plan.dropout_probability,
        "latency_mean": plan.latency_mean,
        "question_timeout": plan.question_timeout,
        "crash_at_round": plan.crash_at_round,
        "budget_shocks": [
            [round_index, delta]
            for round_index, delta in sorted(plan.budget_shocks.items())
        ],
        "retry": (
            None
            if plan.retry is None
            else {
                "max_retries": plan.retry.max_retries,
                "backoff_base": plan.retry.backoff_base,
                "backoff_factor": plan.retry.backoff_factor,
            }
        ),
        "requeue": plan.requeue,
        "rng": plan.rng.getstate(),
    }


def faultplan_from_dict(document: dict) -> FaultPlan:
    """Restore a fault plan mid-stream.

    ``crash_at_round`` is deliberately dropped: the crash already happened;
    re-arming it would kill the recovered session at the same boundary
    forever.
    """
    retry_doc = document.get("retry")
    plan = FaultPlan(
        seed=document["seed"],
        timeout_probability=document["timeout_probability"],
        dropout_probability=document["dropout_probability"],
        latency_mean=document["latency_mean"],
        question_timeout=document["question_timeout"],
        crash_at_round=None,
        budget_shocks={
            int(round_index): delta
            for round_index, delta in document["budget_shocks"]
        },
        retry=None if retry_doc is None else RetryPolicy(**retry_doc),
        requeue=document["requeue"],
    )
    plan.rng.setstate(_rng_from_json(document["rng"]))
    return plan


# ---------------------------------------------------------------------------
# Crowd sessions
# ---------------------------------------------------------------------------


def _crowd_round_to_dict(record: CrowdRound) -> dict:
    return {
        "index": record.index,
        "questions": [correspondence_to_dict(c) for c in record.questions],
        "verdicts": list(record.verdicts),
        "votes": [
            [[worker_id, verdict] for worker_id, verdict in votes]
            for votes in record.votes
        ],
        "conflicts_resolved": record.conflicts_resolved,
        "approvals_retracted": record.approvals_retracted,
        "truncated": record.truncated,
        "spent": record.spent,
        "answers": record.answers,
        "uncertainty": record.uncertainty,
        "effort": record.effort,
        "timeouts": record.timeouts,
        "dropouts": record.dropouts,
        "unanswered": [
            correspondence_to_dict(c) for c in record.unanswered
        ],
        "degraded": record.degraded,
        "latency": record.latency,
        "shock": record.shock,
    }


def _crowd_round_from_dict(document: dict, schemas) -> CrowdRound:
    return CrowdRound(
        index=document["index"],
        questions=tuple(
            _recorded_corr(entry, schemas) for entry in document["questions"]
        ),
        verdicts=tuple(bool(v) for v in document["verdicts"]),
        votes=tuple(
            tuple((worker_id, bool(verdict)) for worker_id, verdict in votes)
            for votes in document["votes"]
        ),
        conflicts_resolved=document["conflicts_resolved"],
        approvals_retracted=document["approvals_retracted"],
        truncated=document["truncated"],
        spent=document["spent"],
        answers=document["answers"],
        uncertainty=document["uncertainty"],
        effort=document["effort"],
        timeouts=document["timeouts"],
        dropouts=document["dropouts"],
        unanswered=tuple(
            _recorded_corr(entry, schemas) for entry in document["unanswered"]
        ),
        degraded=document["degraded"],
        latency=document["latency"],
        shock=document["shock"],
    )


def _crowd_session_to_dict(session: CrowdSession) -> dict:
    pool = session.pool
    truths = {worker.selective_matching for worker in pool}
    if len(truths) != 1:
        raise FormatError(
            "checkpointing expects one shared ground truth across the pool"
        )
    return {
        "kind": CHECKPOINT_KIND,
        "version": FORMAT_VERSION,
        "session": "crowd",
        "network": network_to_dict(session.pnet.network),
        "pnet": _pnet_to_dict(session.pnet),
        "k": session.k,
        "redundancy": session.redundancy,
        "criterion": session.criterion,
        "on_conflict": session.on_conflict,
        "diversify": session.diversify,
        "assignment": {
            "name": session.assignment.name,
            "state": session.assignment.get_state(),
        },
        "aggregator": {"name": session.aggregator.name},
        "ledger": session.ledger.get_state(),
        "stats": session.stats.get_state(),
        "conflicts_resolved": session.conflicts_resolved,
        "approvals_retracted": session.approvals_retracted,
        "deltas_applied": session.deltas_applied,
        "assertion_order": [
            [correspondence_to_dict(corr), position]
            for corr, position in session._assertion_order.items()
        ],
        "requeued": [
            correspondence_to_dict(corr) for corr in session._requeued
        ],
        "pool": {
            "truth": _corrs_to_list(next(iter(truths))),
            "workers": [
                {
                    "worker_id": worker.worker_id,
                    "error_rate": worker.error_rate,
                    "state": _oracle_state_to_dict(worker),
                }
                for worker in pool
            ],
        },
        "trace": {
            "initial_uncertainty": session.trace.initial_uncertainty,
            "rounds": [
                _crowd_round_to_dict(record)
                for record in session.trace.rounds
            ],
        },
        "faults": (
            None if session.faults is None else faultplan_to_dict(session.faults)
        ),
        "journal_seq": (
            None if session.journal is None else session.journal.seq
        ),
    }


def _crowd_session_from_dict(document: dict) -> CrowdSession:
    network = network_from_dict(document["network"])
    schemas = {schema.name: schema for schema in network.schemas}
    pnet = _pnet_from_dict(document["pnet"], network)
    pool_doc = document["pool"]
    truth = _truth_from_list(pool_doc["truth"])
    workers = []
    for entry in pool_doc["workers"]:
        worker = Worker(
            entry["worker_id"],
            truth,
            entry["error_rate"],
            rng=random.Random(),
        )
        worker.set_state(_oracle_state_from_dict(entry["state"]))
        workers.append(worker)
    assignment_doc = document["assignment"]
    try:
        assignment_cls = ASSIGNMENTS[assignment_doc["name"]]
    except KeyError:
        raise FormatError(
            f"unknown assignment policy {assignment_doc['name']!r}"
        ) from None
    assignment: AssignmentPolicy = assignment_cls()
    assignment.set_state(assignment_doc["state"])
    faults_doc = document.get("faults")
    session = CrowdSession(
        pnet,
        WorkerPool(workers),
        k=document["k"],
        redundancy=document["redundancy"],
        criterion=document["criterion"],
        assignment=assignment,
        aggregator=make_aggregator(document["aggregator"]["name"]),
        ledger=BudgetLedger.from_state(document["ledger"]),
        on_conflict=document["on_conflict"],
        diversify=document["diversify"],
        faults=None if faults_doc is None else faultplan_from_dict(faults_doc),
    )
    session.stats.set_state(document["stats"])
    session.conflicts_resolved = document["conflicts_resolved"]
    session.approvals_retracted = document["approvals_retracted"]
    # Version-1 checkpoints predate network deltas.
    session.deltas_applied = document.get("deltas_applied", 0)
    session._assertion_order = {
        correspondence_from_dict(entry, schemas): position
        for entry, position in document["assertion_order"]
    }
    session._requeued = _corrs_from_list(document["requeued"], schemas)
    trace_doc = document["trace"]
    session.trace = CrowdTrace(
        initial_uncertainty=trace_doc["initial_uncertainty"],
        rounds=[
            _crowd_round_from_dict(entry, schemas)
            for entry in trace_doc["rounds"]
        ],
    )
    return session


# ---------------------------------------------------------------------------
# Expert sessions
# ---------------------------------------------------------------------------


def _expert_session_to_dict(session: ReconciliationSession) -> dict:
    strategy = session.strategy
    if strategy.name not in _STRATEGIES:
        raise FormatError(
            f"selection strategy {strategy.name!r} is not checkpointable"
        )
    oracle = session.oracle
    if isinstance(oracle, NoisyOracle):
        oracle_doc = {
            "kind": "noisy",
            "truth": _corrs_to_list(oracle.selective_matching),
            "error_rate": oracle.error_rate,
            "state": _oracle_state_to_dict(oracle),
        }
    elif type(oracle) is Oracle:
        oracle_doc = {
            "kind": "perfect",
            "truth": _corrs_to_list(oracle.selective_matching),
            "assertions_made": oracle.assertions_made,
        }
    else:
        raise FormatError(
            f"oracle {type(oracle).__name__} is not checkpointable"
        )
    return {
        "kind": CHECKPOINT_KIND,
        "version": FORMAT_VERSION,
        "session": "expert",
        "network": network_to_dict(session.pnet.network),
        "pnet": _pnet_to_dict(session.pnet),
        "on_conflict": session.on_conflict,
        "strategy": {
            "name": strategy.name,
            "rng": strategy.rng.getstate(),
            "max_candidates": getattr(strategy, "max_candidates", None),
        },
        "oracle": oracle_doc,
        "conflicts_resolved": session.conflicts_resolved,
        "approvals_retracted": session.approvals_retracted,
        "deltas_applied": session.deltas_applied,
        "trace": {
            "initial_uncertainty": session.trace.initial_uncertainty,
            "steps": [
                {
                    "index": step.index,
                    "corr": correspondence_to_dict(step.correspondence),
                    "approved": step.approved,
                    "uncertainty": step.uncertainty,
                    "effort": step.effort,
                }
                for step in session.trace.steps
            ],
        },
        "journal_seq": (
            None if session.journal is None else session.journal.seq
        ),
    }


def _expert_session_from_dict(document: dict) -> ReconciliationSession:
    network = network_from_dict(document["network"])
    schemas = {schema.name: schema for schema in network.schemas}
    pnet = _pnet_from_dict(document["pnet"], network)
    strategy_doc = document["strategy"]
    strategy_cls = _STRATEGIES[strategy_doc["name"]]
    if strategy_cls is InformationGainSelection:
        strategy = strategy_cls(
            rng=random.Random(),
            max_candidates=strategy_doc.get("max_candidates"),
        )
    else:
        strategy = strategy_cls(rng=random.Random())
    strategy.rng.setstate(_rng_from_json(strategy_doc["rng"]))
    oracle_doc = document["oracle"]
    truth = _truth_from_list(oracle_doc["truth"])
    if oracle_doc["kind"] == "noisy":
        oracle: Oracle = NoisyOracle(
            truth, oracle_doc["error_rate"], rng=random.Random()
        )
        oracle.set_state(_oracle_state_from_dict(oracle_doc["state"]))
    elif oracle_doc["kind"] == "perfect":
        oracle = Oracle(truth)
        oracle.assertions_made = oracle_doc["assertions_made"]
    else:
        raise FormatError(f"unknown oracle kind {oracle_doc['kind']!r}")
    session = ReconciliationSession(
        pnet,
        oracle,
        strategy,
        on_conflict=document["on_conflict"],
    )
    session.conflicts_resolved = document["conflicts_resolved"]
    session.approvals_retracted = document["approvals_retracted"]
    # Version-1 checkpoints predate network deltas.
    session.deltas_applied = document.get("deltas_applied", 0)
    trace_doc = document["trace"]
    session.trace = ReconciliationTrace(
        initial_uncertainty=trace_doc["initial_uncertainty"],
        steps=[
            ReconciliationStep(
                index=entry["index"],
                correspondence=_recorded_corr(entry["corr"], schemas),
                approved=entry["approved"],
                uncertainty=entry["uncertainty"],
                effort=entry["effort"],
            )
            for entry in trace_doc["steps"]
        ],
    )
    return session


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def checkpoint_to_dict(
    session: "CrowdSession | ReconciliationSession",
) -> dict:
    """The checkpoint document of a live session."""
    if isinstance(session, CrowdSession):
        return _crowd_session_to_dict(session)
    if isinstance(session, ReconciliationSession):
        return _expert_session_to_dict(session)
    raise TypeError(f"cannot checkpoint {type(session).__name__}")


def session_from_dict(
    document: dict,
) -> "CrowdSession | ReconciliationSession":
    """Rebuild a live session from a checkpoint document."""
    _check_version(document, CHECKPOINT_KIND)
    kind = document.get("session")
    if kind == "crowd":
        return _crowd_session_from_dict(document)
    if kind == "expert":
        return _expert_session_from_dict(document)
    raise FormatError(f"unknown session kind {kind!r}")


def save_checkpoint(
    session: "CrowdSession | ReconciliationSession",
    path: "str | pathlib.Path",
) -> pathlib.Path:
    """Atomically write a session checkpoint (temp file + ``os.replace``).

    A crash mid-save therefore leaves either the previous checkpoint or the
    new one — never a torn file.  The document is encoded in one
    ``json.dumps`` call (CPython's C encoder; ``json.dump`` streams through
    the pure-Python one, same bytes) *before* the temp file is opened, so
    a document that cannot be encoded leaves no stray temp file either.
    """
    path = pathlib.Path(path)
    text = json.dumps(
        checkpoint_to_dict(session), sort_keys=True, default=_json_default
    )
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def restore_session(
    source: "str | pathlib.Path | dict",
    journal=None,
) -> "CrowdSession | ReconciliationSession":
    """Rebuild a live session from a checkpoint file (or parsed document).

    ``journal`` optionally re-attaches a
    :class:`~repro.durability.journal.FeedbackJournal` to the restored
    session (recovery does this after arming replay verification).
    """
    if isinstance(source, dict):
        document = source
    else:
        with open(source) as handle:
            document = json.load(handle)
    session = session_from_dict(document)
    session.journal = journal
    return session


__all__ = [
    "CHECKPOINT_KIND",
    "checkpoint_to_dict",
    "session_from_dict",
    "save_checkpoint",
    "restore_session",
    "faultplan_to_dict",
    "faultplan_from_dict",
]
