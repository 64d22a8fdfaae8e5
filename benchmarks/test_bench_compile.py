"""Constraint-compile benchmarks: a network document to a compiled engine.

Every path that builds a network compiles Γ: ``repro.io.load_network``,
every checkpoint restore and ``recover()``, shard sub-networks and the
service catalog.  These benches time that compile from the user's input —
a ``matching-network`` document — through ``network_from_dict``:

* the reference network (24 schemas / 1500 candidates), fast profile;
* the 10× network (240 schemas / 15000 candidates), slow, with a gate:
  cycle discovery is triangle enumeration plus a hash join on junction
  attributes, so the compile stays within a few seconds (measured
  ~1.5 s on a 2-core Xeon, against ~20 s for the earlier per-node DFS
  with nested-loop chain joins);
* a 10× checkpoint restore (slow), which recompiles the embedded network
  and rebuilds every shard store from its state.

Violation *order* equality with the earlier enumerators is pinned in
``tests/test_cycle_order_pin.py``; these benches re-assert only the
violation count of the configuration being timed.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.durability import restore_session, save_checkpoint
from repro.experiments import ScenarioSpec, build_session
from repro.io import network_from_dict, network_to_dict
from test_bench_reconciliation import REFERENCE_SAMPLES, reference_fixture
from test_bench_shard import tenx_fixture

#: Median 10× ``network_from_dict`` bound, seconds (~2× the measured time).
TENX_COMPILE_BUDGET_SECONDS = 3.0


def test_bench_compile_reference(benchmark):
    """``network_from_dict`` on the reference network's document."""
    network = reference_fixture().network
    document = network_to_dict(network)
    compiled = benchmark.pedantic(
        network_from_dict, args=(document,), iterations=1, rounds=10
    )
    assert compiled.violation_count() == network.violation_count()


@pytest.mark.slow
def test_bench_compile_10x(benchmark):
    """``network_from_dict`` on the 10× network's document."""
    network = tenx_fixture().network
    document = network_to_dict(network)
    compiled = benchmark.pedantic(
        network_from_dict, args=(document,), iterations=1, rounds=3
    )
    assert compiled.violation_count() == network.violation_count()


@pytest.mark.slow
def test_compile_10x_budget_gate(capsys):
    """The acceptance bar: the 10× network compiles in a few seconds."""
    network = tenx_fixture().network
    document = network_to_dict(network)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        compiled = network_from_dict(document)
        timings.append(time.perf_counter() - start)
    assert compiled.engine.violations == network.engine.violations
    median = statistics.median(timings)
    with capsys.disabled():
        print(
            f"\n10× network_from_dict: median {median:.2f}s over "
            f"{len(timings)} runs ({network.violation_count()} violations)"
        )
    assert median <= TENX_COMPILE_BUDGET_SECONDS


@pytest.mark.slow
def test_bench_checkpoint_restore_10x(benchmark, tmp_path):
    """Restore of a mid-run sharded expert session on the 10× network."""
    session = build_session(
        tenx_fixture(),
        ScenarioSpec(
            strategy="likelihood",
            target_samples=REFERENCE_SAMPLES,
            seed=3,
            sharded=True,
        ),
    )
    for _ in range(50):
        session.step()
    path = save_checkpoint(session, tmp_path / "ck.json")
    restored = benchmark.pedantic(
        restore_session, args=(path,), iterations=1, rounds=3
    )
    assert len(restored.trace.steps) == 50
    assert (
        restored.pnet.probability_vector().tobytes()
        == session.pnet.probability_vector().tobytes()
    )
