"""Micro-benchmarks of the system's hot kernels.

These complement the per-figure benches: they time the individual
components (sampling, information-gain ranking, repair, instantiation,
matching) so regressions are attributable.

The repair and maximalisation benches time the bitmask kernels
(:func:`repair_mask`, :func:`greedy_maximalize_mask`) on pre-converted mask
inputs — that is exactly what the sampler's walk pays per step, the
frozenset wrappers being boundary conversions that the hot path never
crosses.  Each bench still asserts agreement with the frozenset API so the
kernel being timed is also the kernel being verified.

The information-gain kernel benches replay the gain calls of a seeded
information-gain session on the reference network (24 schemas / 1500
candidates, 250 samples) through the one-gather kernel and through the
frozen per-denominator kernel it replaced (``tests/_legacy_ig.py``); the
gate asserts ``tobytes()``-identical gains on every call and ≥2× speed.
"""

import importlib.util
import pathlib
import random
import statistics
import time

import numpy as np
import pytest

import repro.core.selection as selection_module
from repro.core import (
    InstanceSampler,
    ProbabilisticNetwork,
    greedy_maximalize,
    information_gain_array,
    information_gains,
    instantiate,
    repair,
)
from repro.core.repair import greedy_maximalize_mask, repair_mask
from repro.experiments import ScenarioSpec, build_session
from repro.matchers import coma_like
from test_bench_reconciliation import REFERENCE_SAMPLES, reference_fixture

_LEGACY_IG_PATH = pathlib.Path(__file__).parents[1] / "tests" / "_legacy_ig.py"
_spec = importlib.util.spec_from_file_location("_legacy_ig", _LEGACY_IG_PATH)
_legacy_ig = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_legacy_ig)
legacy_information_gain_array = _legacy_ig.legacy_information_gain_array

#: Keep every n-th recorded gain call: the whole session's membership
#: matrices would hold ~60 MB, and the kept calls still span its sizes.
RECORD_EVERY = 8

_IG_CALLS: list = []


def test_bench_sampler(benchmark, bp_fixture_bench):
    network = bp_fixture_bench.network
    sampler = InstanceSampler(network, rng=random.Random(1))
    samples = benchmark(sampler.sample, 20)
    assert len(samples) >= 1


def test_bench_information_gain_ranking(benchmark, bp_fixture_bench):
    network = bp_fixture_bench.network
    pnet = ProbabilisticNetwork(network, target_samples=150, rng=random.Random(2))
    samples = pnet.samples()
    # The production selection loop feeds the store's cached membership
    # matrix; ranking from raw frozensets (matrix=None) is the fallback.
    matrix = pnet.estimator.membership_matrix()

    gains = benchmark(
        information_gains, samples, network.correspondences, matrix=matrix
    )
    assert len(gains) == len(network.correspondences)
    assert gains == information_gains(samples, network.correspondences)


def test_bench_repair(benchmark, bp_fixture_bench):
    network = bp_fixture_bench.network
    engine = network.engine
    # A consistent instance plus the most conflicted correspondence.
    conflicted = max(
        network.correspondences,
        key=lambda c: len(engine.violations_involving(c)),
    )
    base = greedy_maximalize(set(), network.correspondences, [conflicted], engine)
    base.discard(conflicted)
    base_mask = engine.mask_of(base)
    index = engine.index_of[conflicted]

    repaired_mask = benchmark(repair_mask, engine, base_mask, index)
    assert engine.mask_is_consistent(repaired_mask)
    # The kernel agrees with the frozenset boundary API.
    assert engine.corrs_of(repaired_mask) == frozenset(
        repair(base, conflicted, [], engine)
    )


def test_bench_greedy_maximalize(benchmark, bp_fixture_bench):
    network = bp_fixture_bench.network
    engine = network.engine
    # Maximalise from a typical walk state: a consistent but non-maximal
    # instance several removals away from the frontier.
    seed = greedy_maximalize(set(), network.correspondences, [], engine)
    partial = sorted(seed)[: max(1, len(seed) // 2)]
    partial_mask = engine.mask_of(partial)

    maximal_mask = benchmark(
        greedy_maximalize_mask, engine, partial_mask, engine.full_mask
    )
    assert engine.mask_is_maximal(maximal_mask)
    assert engine.corrs_of(maximal_mask) == frozenset(
        greedy_maximalize(partial, network.correspondences, [], engine)
    )


def test_bench_instantiation(benchmark, bp_fixture_bench):
    network = bp_fixture_bench.network
    pnet = ProbabilisticNetwork(network, target_samples=150, rng=random.Random(4))

    matching = benchmark.pedantic(
        instantiate,
        args=(pnet,),
        kwargs={"iterations": 100, "rng": random.Random(5)},
        iterations=1,
        rounds=3,
    )
    assert network.engine.is_consistent(matching)


def test_bench_matcher_pair(benchmark, bp_fixture_bench):
    schemas = bp_fixture_bench.corpus.schemas[:2]
    pipeline = coma_like()

    candidates = benchmark.pedantic(
        pipeline.match_pair,
        args=(schemas[0], schemas[1]),
        iterations=1,
        rounds=3,
    )
    assert len(candidates) > 0


def test_bench_exact_enumeration(benchmark, bp_fixture_bench):
    from repro.core import enumerate_instances
    from repro.experiments.harness import conflicted_subnetwork

    subnetwork = conflicted_subnetwork(bp_fixture_bench.network, 16, seed=2)
    instances = benchmark(enumerate_instances, subnetwork)
    assert len(instances) >= 1


def _recorded_ig_calls() -> list:
    """(bool matrix, target columns) of every gain call a seeded reference
    information-gain session makes, thinned.

    The store's matrices are frozen and *replaced* on mutation, so holding
    references records each call's inputs exactly.
    """
    if not _IG_CALLS:
        session = build_session(
            reference_fixture(),
            ScenarioSpec(
                strategy="information-gain",
                target_samples=REFERENCE_SAMPLES,
                seed=3,
            ),
        )
        calls = []
        kernel = selection_module.information_gain_array

        def record(matrix, columns):
            calls.append((matrix, np.array(columns)))
            return kernel(matrix, columns)

        selection_module.information_gain_array = record
        try:
            session.run()
        finally:
            selection_module.information_gain_array = kernel
        _IG_CALLS.extend(calls[::RECORD_EVERY])
    return _IG_CALLS


def _one_gather_gains(calls):
    return [information_gain_array(m, c) for m, c in calls]


def _legacy_gains(float_calls):
    return [legacy_information_gain_array(m, c) for m, c in float_calls]


def _float_calls(calls):
    """The legacy kernel's input: the float64 twin the store used to cache."""
    return [(m.astype(np.float64), c) for m, c in calls]


@pytest.mark.slow
def test_bench_information_gain_kernel_reference(benchmark):
    """The one-gather side of the gate, tracked in BENCH_kernels.json."""
    calls = _recorded_ig_calls()
    gains = benchmark(_one_gather_gains, calls)
    assert len(gains) == len(calls)


@pytest.mark.slow
def test_bench_information_gain_kernel_legacy(benchmark):
    """The frozen per-denominator side of the gate."""
    float_calls = _float_calls(_recorded_ig_calls())
    gains = benchmark(_legacy_gains, float_calls)
    assert len(gains) == len(float_calls)


@pytest.mark.slow
def test_information_gain_kernel_speedup_gate(capsys):
    """The acceptance bar: ≥2× over the legacy kernel, identical gains."""
    calls = _recorded_ig_calls()
    float_calls = _float_calls(calls)
    for new, old in zip(_one_gather_gains(calls), _legacy_gains(float_calls)):
        assert new.tobytes() == old.tobytes()

    # Alternate the two sides so a slow episode of a shared machine lands
    # on both medians rather than on one side's whole block of repeats.
    samples = {"legacy": [], "one_gather": []}
    for _ in range(9):
        for side, fn in (
            ("legacy", lambda: _legacy_gains(float_calls)),
            ("one_gather", lambda: _one_gather_gains(calls)),
        ):
            start = time.perf_counter()
            fn()
            samples[side].append(time.perf_counter() - start)
    legacy = statistics.median(samples["legacy"])
    one_gather = statistics.median(samples["one_gather"])
    ratio = legacy / one_gather
    with capsys.disabled():
        print(
            f"\ninformation-gain kernel ({len(calls)} recorded calls, "
            f"reference network): legacy {legacy * 1e3:.1f}ms → one-gather "
            f"{one_gather * 1e3:.1f}ms  ({ratio:.1f}x)"
        )
    assert ratio >= 2.0
