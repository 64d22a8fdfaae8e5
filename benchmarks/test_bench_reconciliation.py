"""Full-session reconciliation benchmarks (the Algorithm 1 product surface).

The reference synthetic network is a 24-schema, 1500-candidate network
with matcher-realistic conflict density (~190 minimal violations touching
~340 candidates).  The speedup test drives complete select→elicit→
integrate sessions with both the incremental loop and the pinned pre-PR
baseline (``_legacy_loop``) and enforces the ≥5× acceptance bar for the
paper's information-gain heuristic; bit-for-bit trace parity with the
shared-kernel reference loop is enforced separately in
``tests/test_loop_equivalence.py`` and ``tests/test_golden_traces.py``.
"""

from __future__ import annotations

import time

import pytest

from _legacy_loop import LegacyInstanceSampler, build_legacy_session
from repro.experiments import ScenarioSpec, build_session, synthetic_fixture

_CACHE: dict[str, object] = {}

#: The reference synthetic network of the acceptance criterion.
REFERENCE_KWARGS = dict(
    n_correspondences=1500,
    n_schemas=24,
    attributes_per_schema=150,
    conflict_bias=0.35,
    seed=7,
)
REFERENCE_SAMPLES = 250


def reference_fixture():
    if "reference" not in _CACHE:
        _CACHE["reference"] = synthetic_fixture(**REFERENCE_KWARGS)
    return _CACHE["reference"]


def small_fixture():
    if "small" not in _CACHE:
        _CACHE["small"] = synthetic_fixture(
            260, n_schemas=12, attributes_per_schema=40, conflict_bias=0.5, seed=7
        )
    return _CACHE["small"]


def _run_incremental(fixture, strategy: str, seed: int, target_samples: int):
    session = build_session(
        fixture,
        ScenarioSpec(strategy=strategy, target_samples=target_samples, seed=seed),
    )
    session.run()
    return session


def test_legacy_store_fills_through_legacy_walk(monkeypatch):
    """The pinned baseline must refill Ω* with its own walk: a store that
    reaches the sampler through a method the legacy class does not
    override would silently time today's walk instead."""
    calls = []
    walk = LegacyInstanceSampler.sample_masks

    def counted(self, *args, **kwargs):
        calls.append(args)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(LegacyInstanceSampler, "sample_masks", counted)
    session = build_legacy_session(
        small_fixture(), "random", seed=3, target_samples=40
    )
    assert len(session.pnet.estimator.store) > 0
    assert calls


def test_bench_session_small_information_gain(benchmark):
    """Fast-profile presence: a complete IG session on a small network."""
    fixture = small_fixture()
    session = benchmark.pedantic(
        _run_incremental,
        args=(fixture, "information-gain", 3, 120),
        iterations=1,
        rounds=3,
    )
    assert session.is_done()
    assert session.pnet.feedback.approved == fixture.ground_truth


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["random", "information-gain", "likelihood"])
def test_bench_session_reference(benchmark, strategy):
    """Median full-session wall-clock on the reference network (new loop)."""
    fixture = reference_fixture()
    session = benchmark.pedantic(
        _run_incremental,
        args=(fixture, strategy, 3, REFERENCE_SAMPLES),
        iterations=1,
        rounds=2,
    )
    assert session.is_done()
    assert session.pnet.feedback.approved == fixture.ground_truth


@pytest.mark.slow
def test_reconciliation_speedup_vs_legacy(capsys):
    """The acceptance bar: ≥5× on the heuristic session vs the pre-PR loop.

    Both sides run the complete session on the reference network.  The
    legacy side is the pinned pre-PR composition (full-range shuffles,
    teardown store, dict bookkeeping, log2-matrix gains); random streams
    differ between the two, so agreement is asserted at the semantic level
    (everything asserted, fully reconciled, ground truth recovered) while
    the bit-level parity lives in the equivalence/golden tests.
    """
    fixture = reference_fixture()
    rows = []
    ratios = {}
    for strategy in ("random", "information-gain"):
        t0 = time.perf_counter()
        new_session = _run_incremental(fixture, strategy, 3, REFERENCE_SAMPLES)
        new_elapsed = time.perf_counter() - t0

        legacy = build_legacy_session(
            fixture, strategy, seed=3, target_samples=REFERENCE_SAMPLES
        )
        t0 = time.perf_counter()
        legacy.run()
        legacy_elapsed = time.perf_counter() - t0

        # Semantic agreement of both full sessions.
        total = len(fixture.network.correspondences)
        assert len(new_session.trace.steps) == total
        assert len(legacy.trace.steps) == total
        assert new_session.uncertainty() == pytest.approx(0.0)
        assert legacy.uncertainty() == pytest.approx(0.0)
        assert new_session.pnet.feedback.approved == fixture.ground_truth
        assert legacy.pnet.feedback.approved == fixture.ground_truth

        ratios[strategy] = legacy_elapsed / new_elapsed
        rows.append(
            f"{strategy:>18}: legacy {legacy_elapsed:6.2f}s → "
            f"incremental {new_elapsed:6.2f}s  ({ratios[strategy]:.1f}x)"
        )

    with capsys.disabled():
        print("\nreconciliation full-session wall-clock (reference network):")
        for row in rows:
            print("  " + row)

    # The paper's heuristic is the headline workload of the acceptance
    # criterion; the random baseline has a larger irreducible sampling
    # share, so its bar is lower.
    assert ratios["information-gain"] >= 5.0
    assert ratios["random"] >= 3.0
