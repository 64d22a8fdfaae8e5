"""Sharded-store benchmarks: component-local refills and the 10× session.

Two acceptance bars from the sharding tentpole:

* **Refill ≥3×** — re-conditioning Ω* after feedback on the reference
  network (24 schemas / 1500 candidates / ~124 violation components).
  The unsharded ``SampleStore`` re-walks the whole network through the
  ``wave_maximalize_rows`` emission path on every top-up; the sharded
  store re-enumerates only the one component the assertion touched, so
  the recurring refill is orders of magnitude cheaper (measured ~100×+;
  gated conservatively at 3×).
* **10× wall-clock** — a 10×-larger network (240 schemas / 15000
  candidates) runs a complete likelihood session in the same wall-clock
  envelope as today's unsharded reference session (measured ~2× the
  reference run for 10× the elicitations; gated at 3× for CI headroom).

Differential exactness (bit-identical traces, merged vectors, product
matrices) is enforced separately in ``tests/test_shard_equivalence.py`` —
these benches only re-assert the cheap structural invariants so the
configuration being timed is also being verified.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.core.sampling import SampleStore
from repro.experiments import ScenarioSpec, build_session, synthetic_fixture
from repro.shard import ShardedSampleStore, shard_plan
from test_bench_reconciliation import (
    REFERENCE_KWARGS,
    REFERENCE_SAMPLES,
    reference_fixture,
    small_fixture,
)

_CACHE: dict[str, object] = {}

#: The 10×-scale network of the wall-clock acceptance bar.
TENX_KWARGS = dict(
    n_correspondences=15000,
    n_schemas=240,
    attributes_per_schema=150,
    conflict_bias=0.35,
    seed=7,
)

#: Feedback probe width for the refill benches: one batch of expert
#: verdicts on conflicted candidates, each of which dirties (and
#: re-fills) the owning store.
PROBE = 20


def tenx_fixture():
    if "tenx" not in _CACHE:
        _CACHE["tenx"] = synthetic_fixture(**TENX_KWARGS)
    return _CACHE["tenx"]


def _conflicted(fixture):
    engine = fixture.network.engine
    return [
        corr
        for corr in fixture.network.correspondences
        if engine.violations_involving(corr)
    ]


def _feedback_round(store, fixture, probe):
    for corr in probe:
        store.record_assertion(corr, corr in fixture.ground_truth)


def test_bench_shard_refill_small(benchmark):
    """Fast-profile presence: build-and-fill a sharded store (small net)."""
    fixture = small_fixture()
    store = benchmark(
        ShardedSampleStore,
        fixture.network,
        rng=random.Random(3),
        target_samples=120,
    )
    plan = store.plan
    covered = set(store.plan.free)
    for indices in plan.shards:
        covered.update(indices)
    assert covered == set(range(fixture.network.engine.n))


@pytest.mark.slow
def test_bench_shard_feedback_refill_reference(benchmark):
    """The sharded side of the gate, tracked in BENCH_kernels.json."""
    fixture = reference_fixture()
    store = ShardedSampleStore(
        fixture.network, rng=random.Random(3), target_samples=REFERENCE_SAMPLES
    )
    conflicted = iter(_conflicted(fixture))

    def round_trip():
        _feedback_round(
            store, fixture, [next(conflicted) for _ in range(PROBE)]
        )

    benchmark.pedantic(round_trip, iterations=1, rounds=5)


@pytest.mark.slow
def test_bench_unsharded_feedback_refill_reference(benchmark):
    """The baseline side of the gate, tracked in BENCH_kernels.json."""
    fixture = reference_fixture()
    store = SampleStore(
        fixture.network, rng=random.Random(3), target_samples=REFERENCE_SAMPLES
    )
    conflicted = iter(_conflicted(fixture))

    def round_trip():
        _feedback_round(
            store, fixture, [next(conflicted) for _ in range(PROBE)]
        )

    benchmark.pedantic(round_trip, iterations=1, rounds=5)


@pytest.mark.slow
def test_shard_refill_speedup_gate(capsys):
    """The acceptance bar: feedback refills ≥3× over the unsharded store.

    Both stores absorb the identical sequence of expert verdicts on
    conflicted candidates.  Every verdict makes the unsharded store
    re-walk the whole 1500-candidate network through the wave emission
    path, while the sharded store re-enumerates only the touched
    component — that asymmetry, not a faster kernel, is the gate.
    """
    fixture = reference_fixture()
    conflicted = _conflicted(fixture)
    rounds = 5
    probes = [
        conflicted[start : start + PROBE]
        for start in range(0, rounds * PROBE, PROBE)
    ]
    assert all(len(p) == PROBE for p in probes)

    def timed(store):
        samples = []
        for probe in probes:
            start = time.perf_counter()
            _feedback_round(store, fixture, probe)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    unsharded = timed(
        SampleStore(
            fixture.network,
            rng=random.Random(3),
            target_samples=REFERENCE_SAMPLES,
        )
    )
    sharded_store = ShardedSampleStore(
        fixture.network, rng=random.Random(3), target_samples=REFERENCE_SAMPLES
    )
    sharded = timed(sharded_store)
    # Both sides saw the same verdicts and neither store starved.
    assert len(sharded_store.feedback) == rounds * PROBE
    assert all(len(shard.store) > 0 for shard in sharded_store.shards)

    ratio = unsharded / sharded
    with capsys.disabled():
        print(
            f"\nfeedback refill ({PROBE} verdicts, reference network): "
            f"unsharded {unsharded * 1e3:.2f}ms → sharded "
            f"{sharded * 1e3:.3f}ms ({ratio:.1f}×)"
        )
    assert ratio >= 3.0


@pytest.mark.slow
def test_bench_session_10x_sharded(benchmark):
    """Median full-session wall-clock on the 10× network (sharded)."""
    fixture = tenx_fixture()

    def run():
        session = build_session(
            fixture,
            ScenarioSpec(
                strategy="likelihood",
                target_samples=REFERENCE_SAMPLES,
                seed=3,
                sharded=True,
            ),
        )
        session.run()
        return session

    session = benchmark.pedantic(run, iterations=1, rounds=2)
    assert session.is_done()
    assert session.pnet.feedback.approved == fixture.ground_truth


@pytest.mark.slow
def test_session_10x_wallclock_gate(capsys):
    """The acceptance bar: 10× candidates in the reference session's envelope.

    The 10× network asks 10× the questions, so staying inside a small
    constant of the unsharded reference session's wall-clock means the
    per-question cost fell by roughly the sharding factor.  Measured
    ~2× the reference run; gated at 3× for CI headroom.
    """

    def run(fixture, sharded):
        session = build_session(
            fixture,
            ScenarioSpec(
                strategy="likelihood",
                target_samples=REFERENCE_SAMPLES,
                seed=3,
                sharded=sharded,
            ),
        )
        start = time.perf_counter()
        session.run()
        elapsed = time.perf_counter() - start
        assert session.pnet.feedback.approved == fixture.ground_truth
        return elapsed, len(session.trace.steps)

    reference = statistics.median(
        run(reference_fixture(), sharded=False)[0] for _ in range(3)
    )
    big, steps = run(tenx_fixture(), sharded=True)
    scale = TENX_KWARGS["n_correspondences"] / REFERENCE_KWARGS["n_correspondences"]
    assert steps == TENX_KWARGS["n_correspondences"]

    with capsys.disabled():
        print(
            f"\n10× session: reference (unsharded) {reference:.2f}s → "
            f"{scale:.0f}× network (sharded) {big:.2f}s "
            f"({big / reference:.2f}× the reference wall-clock for "
            f"{scale:.0f}× the elicitations)"
        )
    assert big <= 3.0 * reference


@pytest.mark.slow
def test_shard_plan_reference_shape():
    """Pin the reference decomposition the refill gate relies on.

    The ≥3× bar is only meaningful while the reference network actually
    decomposes into many small components; if a generator change ever
    fuses them into one giant shard, fail loudly here rather than
    mysteriously in the timing gate.
    """
    fixture = reference_fixture()
    plan = shard_plan(fixture.network)
    assert plan.n_shards >= 50
    assert max(plan.sizes()) <= 32
    assert len(plan.free) >= fixture.network.engine.n // 2
