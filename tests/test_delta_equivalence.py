"""Delta-equivalence suite: evolving a live session ≡ starting over.

The delta pipeline's load-bearing claim mirrors the shard layer's: it is
an *optimisation, not an approximation*.  A session that applies a
:class:`~repro.core.NetworkDelta` mid-run and keeps going must be
bit-identical — selections, verdicts, uncertainties, probability
vectors, final F± — to a fresh session built from scratch on the
post-delta network with the surviving feedback replayed.  That is pinned
here across random / information-gain / likelihood strategies × seeds
0–4 over sharded sessions on the enumerable reference fixture (both
sides hold complete conditioned instance sets, so equality is exact,
not sampled).

The durability half of the claim rides the same harness: a crash at the
delta boundary recovers bit-identically (the journaled write-ahead delta
is re-executed under replay verification), and a *torn* delta — the
crash landed between the write-ahead record and its commit — is
discarded entirely, leaving the pre-delta session.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest
from test_durability import crowd_trace_tuple

from repro.core import MatchingNetwork
from repro.core.feedback import Oracle
from repro.core.probability import ProbabilisticNetwork
from repro.core.reconciliation import ReconciliationSession
from repro.durability import (
    recover,
    restore_session,
    run_durable,
    save_checkpoint,
)
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_fixture
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
    make_strategy,
)
from repro.io import FormatError, correspondence_to_dict, delta_to_dict
from repro.shard import ShardedEstimator

#: Same enumerable reference fixture as test_shard_equivalence: |Ω| = 180,
#: so every shard store is complete and bit-identity is provable.
FIXTURE_KWARGS = dict(
    n_correspondences=24, n_schemas=5, attributes_per_schema=8, seed=1
)
TARGET_SAMPLES = 512
STRATEGIES = ("random", "information-gain", "likelihood")
SEEDS = (0, 1, 2, 3, 4)
#: Steps asserted before the network evolves under the session.
PREFIX_STEPS = 6
#: Steps compared after the delta.
TAIL_STEPS = 12


@pytest.fixture(scope="module")
def fixture():
    return synthetic_fixture(**FIXTURE_KWARGS)


@pytest.fixture(scope="module")
def delta(fixture):
    """One shared churn delta: drops a schema, adds a fresh one with
    new candidates (deterministic — ``apply_delta`` never mutates the
    original network, so every test can reuse it)."""
    return make_churn_delta(fixture.network, 0.2, random.Random(97))


def _spec(strategy: str, seed: int, **overrides) -> ScenarioSpec:
    fields = dict(
        strategy=strategy,
        seed=seed,
        target_samples=TARGET_SAMPLES,
        on_conflict="disapprove",
        sharded=True,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def _run_traced(session, pnet, max_steps):
    """Drive a session, recording everything the equivalence claim covers."""
    trace = []
    for _ in range(max_steps):
        step = session.step()
        if step is None:
            break
        trace.append(
            (
                step.correspondence,
                step.approved,
                pnet.uncertainty(),
                pnet.probability_vector().tobytes(),
            )
        )
    return trace


def _expert_trace_tuple(trace):
    return (
        trace.initial_uncertainty,
        tuple((s.correspondence, s.approved, s.uncertainty) for s in trace.steps),
    )


def _fresh_network(result) -> MatchingNetwork:
    """The post-delta network built from scratch (full rediscovery)."""
    return MatchingNetwork(
        list(result.network.schemas),
        result.network.candidates,
        graph=result.network.graph,
        constraints=list(result.network.constraints),
    )


class TestDeltaContinuationEquivalence:
    """apply_delta + continue ≡ fresh post-delta session + replayed feedback."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_continuation_bit_identical(self, fixture, delta, strategy, seed):
        evolved = build_session(fixture, _spec(strategy, seed))
        for _ in range(PREFIX_STEPS):
            assert evolved.step() is not None
        # The strategy's tie-break stream at the delta point, to hand the
        # replayed session the very same future draws.
        rng_state = evolved.strategy.rng.getstate()
        prefix = [
            (step.correspondence, step.approved)
            for step in evolved.trace.steps
        ]
        result = evolved.apply_delta(delta)
        assert evolved.deltas_applied == 1

        fresh_net = _fresh_network(result)
        pnet = ProbabilisticNetwork(
            fresh_net,
            estimator=ShardedEstimator(
                fresh_net,
                target_samples=TARGET_SAMPLES,
                rng=random.Random(seed),
            ),
        )
        strategy_obj = make_strategy(strategy, random.Random(seed + 1))
        strategy_obj.rng.setstate(rng_state)
        fresh = ReconciliationSession(
            pnet,
            Oracle(fixture.ground_truth),
            strategy_obj,
            on_conflict="disapprove",
        )
        # Replay the surviving feedback in assertion order; verdicts on
        # delta-removed candidates were retracted by apply_delta and must
        # not be replayed.
        for corr, approved in prefix:
            if corr in result.removed_correspondences:
                continue
            pnet.record_assertion(corr, approved)

        assert pnet.feedback.approved == evolved.pnet.feedback.approved
        assert pnet.feedback.disapproved == evolved.pnet.feedback.disapproved
        # Already bit-identical at the delta point, before any new step.
        assert (
            pnet.probability_vector().tobytes()
            == evolved.pnet.probability_vector().tobytes()
        )
        assert pnet.uncertainty() == evolved.pnet.uncertainty()

        evolved_tail = _run_traced(evolved, evolved.pnet, TAIL_STEPS)
        fresh_tail = _run_traced(fresh, pnet, TAIL_STEPS)
        assert evolved_tail == fresh_tail
        assert evolved_tail  # the session really kept going post-delta
        assert pnet.feedback.approved == evolved.pnet.feedback.approved
        assert pnet.feedback.disapproved == evolved.pnet.feedback.disapproved

    def test_feedback_on_removed_candidates_is_retracted(
        self, fixture, delta
    ):
        session = build_session(fixture, _spec("random", 2))
        for _ in range(PREFIX_STEPS):
            session.step()
        result = session.apply_delta(delta)
        removed = result.removed_correspondences
        assert removed  # the churn delta really dropped candidates
        assert not (session.pnet.feedback.approved & removed)
        assert not (session.pnet.feedback.disapproved & removed)
        survivors = set(session.pnet.network.correspondences)
        assert session.pnet.feedback.approved <= survivors
        assert session.pnet.feedback.disapproved <= survivors


class TestCrowdDeltaContinuation:
    """CrowdSession.apply_delta: same semantics one layer up."""

    def test_session_state_filtered_and_running(self, fixture, delta):
        spec = _spec(
            "likelihood",
            11,
            oracle="crowd",
            crowd_workers=6,
            crowd_redundancy=3,
            crowd_k=3,
        )
        session = build_crowd_session(fixture, spec)
        session.run(rounds=2)
        result = session.apply_delta(delta)
        assert session.deltas_applied == 1
        removed = result.removed_correspondences
        assert not (session.pnet.feedback.approved & removed)
        assert not (session.pnet.feedback.disapproved & removed)
        assert not (set(session._assertion_order) & removed)
        assert not (set(session._requeued) & removed)
        # Compact rank-preserving renumbering: the next assertion's order
        # (len + 1) must not collide with a surviving rank.
        ranks = sorted(session._assertion_order.values())
        assert ranks == list(range(1, len(ranks) + 1))
        record = session.round()
        assert record is not None and record.questions


class TestGoldenPostDeltaFixture:
    """The committed post-delta checkpoint (format version 2).

    Written by ``scripts/make_golden_checkpoint.py``: a likelihood-driven
    sharded session over this module's fixture, 4 prefix steps, then the
    shared churn delta.  Restoring it and continuing must match a live
    re-run bit for bit — the evolved-network state (successor schemas,
    carried shard stores, ``deltas_applied``) survives the on-disk format.
    """

    FIXTURE = (
        pathlib.Path(__file__).resolve().parent
        / "data"
        / "golden_expert_checkpoint_postdelta.json"
    )
    PREFIX_STEPS = 4  # must match scripts/make_golden_checkpoint.py

    def test_document_is_version_2_with_delta_count(self):
        document = json.loads(self.FIXTURE.read_text())
        assert document["version"] == 2
        assert document["deltas_applied"] == 1

    def test_restores_to_post_delta_state(self, fixture, delta):
        restored = restore_session(self.FIXTURE)
        assert restored.deltas_applied == 1
        assert len(restored.trace.steps) == self.PREFIX_STEPS
        result = fixture.network.apply_delta(delta)
        survivors = (
            set(fixture.network.correspondences)
            - result.removed_correspondences
        )
        assert survivors <= set(restored.pnet.network.correspondences)

    def test_resumed_tail_matches_live_rerun(self, fixture, delta):
        live = build_session(fixture, _spec("likelihood", 3))
        for _ in range(self.PREFIX_STEPS):
            live.step()
        live.apply_delta(delta)
        restored = restore_session(self.FIXTURE)
        live_tail = _run_traced(live, live.pnet, 8)
        restored_tail = _run_traced(restored, restored.pnet, 8)
        assert live_tail == restored_tail
        assert live_tail


class TestCrashAtDeltaRecovery:
    """A crash at the delta boundary recovers bit-identically."""

    def test_expert_crash_after_delta_commit(self, tmp_path, fixture, delta):
        spec = _spec("likelihood", 3)

        golden = build_session(fixture, spec)
        golden_dir = tmp_path / "golden"
        run_durable(golden, golden_dir, budget=4)
        golden.apply_delta(delta)
        run_durable(golden, golden_dir, budget=12)

        crashed = build_session(fixture, spec)
        crash_dir = tmp_path / "crashed"
        run_durable(crashed, crash_dir, budget=4)
        crashed.apply_delta(delta)
        # Crash: the live object is lost, only checkpoint + journal
        # survive.  The journaled delta is committed, so recovery must
        # re-execute it from the write-ahead payload.
        recovered, report = recover(crash_dir)
        assert report.transactions_redone == 1
        assert recovered.deltas_applied == 1
        run_durable(recovered, crash_dir, budget=12)

        assert _expert_trace_tuple(recovered.trace) == _expert_trace_tuple(
            golden.trace
        )
        assert len(recovered.trace.steps) == 12
        assert (
            recovered.pnet.feedback.approved == golden.pnet.feedback.approved
        )
        assert (
            recovered.pnet.feedback.disapproved
            == golden.pnet.feedback.disapproved
        )
        assert (
            recovered.pnet.probability_vector().tobytes()
            == golden.pnet.probability_vector().tobytes()
        )
        assert recovered.uncertainty() == golden.uncertainty()

    def test_torn_delta_is_discarded(self, tmp_path, fixture, delta):
        spec = _spec("likelihood", 3)
        session = build_session(fixture, spec)
        directory = tmp_path / "torn"
        run_durable(session, directory, budget=4)
        pre_candidates = set(session.pnet.network.correspondences)
        pre_trace = _expert_trace_tuple(session.trace)
        # The write-ahead record lands, then the crash hits before the
        # commit: the delta never durably happened.
        session.journal.append({"type": "delta", "delta": delta_to_dict(delta)})

        recovered, report = recover(directory)
        assert report.records_discarded == 1
        assert report.transactions_redone == 0
        assert recovered.deltas_applied == 0
        assert set(recovered.pnet.network.correspondences) == pre_candidates
        assert _expert_trace_tuple(recovered.trace) == pre_trace
        # The recovered pre-delta session is fully live.
        run_durable(recovered, directory, budget=6)
        assert len(recovered.trace.steps) == 6

    def test_crowd_crash_after_delta_commit(self, tmp_path, fixture, delta):
        spec = _spec(
            "likelihood",
            11,
            oracle="crowd",
            crowd_workers=6,
            crowd_redundancy=3,
            crowd_k=3,
        )

        golden = build_crowd_session(fixture, spec)
        golden_dir = tmp_path / "golden"
        run_durable(golden, golden_dir, rounds=2)
        golden.apply_delta(delta)
        run_durable(golden, golden_dir, rounds=5)

        crashed = build_crowd_session(fixture, spec)
        crash_dir = tmp_path / "crashed"
        run_durable(crashed, crash_dir, rounds=2)
        crashed.apply_delta(delta)
        recovered, report = recover(crash_dir)
        assert report.transactions_redone == 1
        assert recovered.deltas_applied == 1
        run_durable(recovered, crash_dir, rounds=5)

        assert crowd_trace_tuple(recovered.trace) == crowd_trace_tuple(
            golden.trace
        )
        assert (
            recovered.pnet.feedback.approved == golden.pnet.feedback.approved
        )
        assert (
            recovered.pnet.feedback.disapproved
            == golden.pnet.feedback.disapproved
        )
        assert recovered.uncertainty() == golden.uncertainty()


class TestCheckpointAfterSchemaRemoval:
    """A checkpoint written after a schema-removing delta restores.

    The trace (or crowd-round history) names candidates of the removed
    schema; those records restore as detached, value-equal
    correspondences, and the restored session continues bit-identically.
    Live state keeps resolving strictly against the post-delta schemas.
    """

    @pytest.mark.parametrize("sharded", (True, False))
    def test_expert_restores_and_continues(self, tmp_path, fixture, delta, sharded):
        live = build_session(fixture, _spec("likelihood", 3, sharded=sharded))
        for _ in range(PREFIX_STEPS):
            live.step()
        result = live.apply_delta(delta)
        asked = {step.correspondence for step in live.trace.steps}
        assert asked & result.removed_correspondences  # the bug's trigger

        restored = restore_session(save_checkpoint(live, tmp_path / "ck.json"))
        assert restored.deltas_applied == 1
        assert _expert_trace_tuple(restored.trace) == _expert_trace_tuple(
            live.trace
        )
        restored_tail = _run_traced(restored, restored.pnet, TAIL_STEPS)
        live_tail = _run_traced(live, live.pnet, TAIL_STEPS)
        assert restored_tail == live_tail
        assert live_tail
        assert restored.pnet.feedback.approved == live.pnet.feedback.approved
        assert (
            restored.pnet.feedback.disapproved == live.pnet.feedback.disapproved
        )

    def test_crowd_restores_and_continues(self, tmp_path, fixture, delta):
        spec = _spec(
            "likelihood",
            11,
            oracle="crowd",
            crowd_workers=6,
            crowd_redundancy=3,
            crowd_k=3,
        )
        live = build_crowd_session(fixture, spec)
        live.run(rounds=2)
        result = live.apply_delta(delta)
        asked = {corr for record in live.trace.rounds for corr in record.questions}
        assert asked & result.removed_correspondences

        restored = restore_session(save_checkpoint(live, tmp_path / "ck.json"))
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(live.trace)
        live.run(rounds=5)
        restored.run(rounds=5)
        assert len(live.trace.rounds) == 5
        assert crowd_trace_tuple(restored.trace) == crowd_trace_tuple(live.trace)
        assert restored.pnet.feedback.approved == live.pnet.feedback.approved
        assert (
            restored.pnet.feedback.disapproved == live.pnet.feedback.disapproved
        )
        assert restored.uncertainty() == live.uncertainty()

    def test_recover_from_post_delta_checkpoint(self, tmp_path, fixture, delta):
        spec = _spec("likelihood", 3)
        golden = build_session(fixture, spec)
        golden_dir = tmp_path / "golden"
        run_durable(golden, golden_dir, budget=PREFIX_STEPS)
        golden.apply_delta(delta)
        run_durable(golden, golden_dir, budget=12)

        crashed = build_session(fixture, spec)
        crash_dir = tmp_path / "crashed"
        run_durable(crashed, crash_dir, budget=PREFIX_STEPS)
        result = crashed.apply_delta(delta)
        asked = {step.correspondence for step in crashed.trace.steps}
        assert asked & result.removed_correspondences
        # Post-delta checkpoints land after every step of this leg.
        run_durable(crashed, crash_dir, budget=9)
        recovered, report = recover(crash_dir)
        assert report.transactions_redone == 0  # restored, not replayed
        run_durable(recovered, crash_dir, budget=12)
        assert _expert_trace_tuple(recovered.trace) == _expert_trace_tuple(
            golden.trace
        )
        assert recovered.uncertainty() == golden.uncertainty()

    def test_live_state_still_resolves_strictly(self, tmp_path, fixture, delta):
        live = build_session(fixture, _spec("likelihood", 3, sharded=False))
        for _ in range(PREFIX_STEPS):
            live.step()
        result = live.apply_delta(delta)
        document = json.loads(
            save_checkpoint(live, tmp_path / "ck.json").read_text()
        )
        removed = min(result.removed_correspondences)
        document["pnet"]["store"]["approved"].append(
            correspondence_to_dict(removed)
        )
        with pytest.raises(FormatError, match="unknown schema"):
            restore_session(document)
