"""Seeded golden regressions for the reconciliation loop and Figs. 9–11.

The constants below were produced by the scalar reference loop (the
non-incremental baseline) on frozen seeds; the incremental engine must
keep reproducing them.  Each session golden is checked twice over: the
incremental trace must equal the reference trace **bit-for-bit** (both run
live), and both must match the pinned arrays (up to a 1e-9 relative
guard for cross-platform BLAS reductions in the figure runners).

If an intentional semantic change to the sampler or the loop shifts these
values, regenerate them with the snippet in each class docstring — but
only after the equivalence harness (test_loop_equivalence.py) passes, so
the new goldens are still baseline-identical.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ScenarioSpec,
    build_session,
    fig9_uncertainty_reduction,
    fig10_ordering_instantiation,
    fig11_likelihood,
    synthetic_fixture,
)

approx = pytest.approx

_CACHE: dict[str, object] = {}


def golden_fixture():
    if "fixture" not in _CACHE:
        _CACHE["fixture"] = synthetic_fixture(
            110, n_schemas=8, attributes_per_schema=30, seed=5
        )
    return _CACHE["fixture"]


#: (strategy, seed) → (uncertainties[0..5], first six selections, steps).
#: Regenerated for the priority-wave emission kernel (PR 4): the sampler's
#: per-emission distribution is unchanged, but the random stream is one
#: priority matrix per refill instead of one permutation per emission, so
#: the seeded Ω* — and hence these traces — shifted.
SESSION_GOLDENS = {
    ("random", 7): (
        [
            55.79821741811065,
            53.74378680393065,
            50.43285987298816,
            50.43285987298816,
            50.43285987298816,
            50.43285987298816,
        ],
        [
            "S002.a005~S007.a021",
            "S004.a014~S006.a007",
            "S004.a016~S005.a020",
            "S001.a025~S002.a013",
            "S002.a018~S006.a027",
            "S003.a023~S007.a000",
        ],
        110,
    ),
    ("information-gain", 7): (
        [
            55.79821741811065,
            52.33370154269438,
            50.12553219911542,
            47.37359966599234,
            45.23579488425172,
            42.506276909987406,
        ],
        [
            "S002.a024~S003.a027",
            "S002.a028~S003.a003",
            "S002.a009~S003.a016",
            "S005.a015~S006.a008",
            "S004.a015~S006.a007",
            "S002.a002~S006.a024",
        ],
        110,
    ),
    ("likelihood", 7): (
        [
            55.79821741811065,
            54.29830032532223,
            53.667260331491086,
            51.06959285406024,
            49.351970276518756,
            47.86708228231613,
        ],
        [
            "S002.a008~S006.a008",
            "S003.a010~S007.a021",
            "S005.a020~S006.a015",
            "S003.a005~S004.a004",
            "S005.a010~S006.a024",
            "S002.a026~S003.a020",
        ],
        110,
    ),
}


class TestSessionGoldens:
    """Regenerate with::

        fixture = synthetic_fixture(110, n_schemas=8, attributes_per_schema=30, seed=5)
        session = build_session(fixture, ScenarioSpec(strategy=..., target_samples=100, seed=7))
        session.run()
    """

    @pytest.mark.parametrize("strategy,seed", sorted(SESSION_GOLDENS))
    def test_incremental_reproduces_baseline_trace(self, strategy, seed):
        from repro.core import ProbabilisticNetwork
        from repro.core.reference_loop import ReferenceReconciliationSession

        import random

        fixture = golden_fixture()
        session = build_session(
            fixture,
            ScenarioSpec(strategy=strategy, target_samples=100, seed=seed),
        )
        session.run()
        reference = ReferenceReconciliationSession(
            ProbabilisticNetwork(
                fixture.network, target_samples=100, rng=random.Random(seed)
            ),
            fixture.oracle(),
            strategy,
            rng=random.Random(seed + 1),
        )
        reference.run()

        # Bit-for-bit: the incremental loop equals the live baseline.
        assert session.trace.uncertainties == reference.trace.uncertainties
        assert [s.correspondence for s in session.trace.steps] == [
            s.correspondence for s in reference.trace.steps
        ]

        # Pinned: both reproduce the frozen golden arrays.
        uncertainties, selections, steps = SESSION_GOLDENS[(strategy, seed)]
        assert session.trace.uncertainties[:6] == approx(
            uncertainties, rel=1e-9, abs=1e-12
        )
        assert [
            str(s.correspondence) for s in session.trace.steps[:6]
        ] == selections
        assert len(session.trace.steps) == steps
        assert session.trace.efforts[-1] == approx(1.0)


#: Figure goldens: fast-profile runs on the BP corpus at scale 0.5.
#: Regenerated alongside the session goldens for the wave emission kernel.
FIG9_GOLDEN = [
    (0.0, 1.0, 1.0, 0.6962025316455697, 0.6962025316455697),
    (25.0, 0.47046235837330314, 0.0, 0.7534246575342466, 0.7746478873239436),
    (50.0, 0.19917163221211917, 0.0, 0.8208955223880597, 0.8333333333333334),
    (100.0, 0.0, 0.0, 1.0, 1.0),
]

FIG10_GOLDEN = [
    (0.0, 0.85, 0.8666666666666667, 0.7183098591549296, 0.7323943661971831),
    (
        10.0,
        0.8833333333333333,
        0.8983050847457628,
        0.7464788732394366,
        0.7464788732394366,
    ),
]

FIG11_GOLDEN = [
    (0.0, 0.85, 0.85, 0.7183098591549296, 0.7183098591549296),
    (
        10.0,
        0.9152542372881356,
        0.9322033898305084,
        0.7605633802816901,
        0.7746478873239436,
    ),
]


class TestFigureGoldens:
    """Regenerate with the exact calls below (fast profiles, frozen seeds)."""

    def test_fig9_trace_pinned(self):
        result = fig9_uncertainty_reduction.run(
            scale=0.5, seed=3, efforts=(0.0, 0.25, 0.5, 1.0), runs=1, target_samples=60
        )
        assert len(result.rows) == len(FIG9_GOLDEN)
        for row, golden in zip(result.rows, FIG9_GOLDEN):
            assert list(row) == approx(list(golden), rel=1e-9, abs=1e-12)

    def test_fig10_trace_pinned(self):
        result = fig10_ordering_instantiation.run(
            scale=0.5,
            seed=3,
            efforts=(0.0, 0.1),
            runs=1,
            target_samples=60,
            instantiation_iterations=30,
        )
        for row, golden in zip(result.rows, FIG10_GOLDEN):
            assert list(row) == approx(list(golden), rel=1e-9, abs=1e-12)

    def test_fig11_trace_pinned(self):
        result = fig11_likelihood.run(
            scale=0.5,
            seed=3,
            efforts=(0.0, 0.1),
            runs=1,
            target_samples=60,
            instantiation_iterations=30,
        )
        for row, golden in zip(result.rows, FIG11_GOLDEN):
            assert list(row) == approx(list(golden), rel=1e-9, abs=1e-12)


class TestGoldenCheckpointFormat:
    """The committed golden checkpoints restore and re-serialise to the
    same ``pnet`` section: the store-state codec is pinned byte-for-byte
    (after JSON normalisation) for both the sampled and sharded layouts."""

    @pytest.mark.parametrize(
        "name",
        [
            "golden_crowd_checkpoint_round3.json",
            "golden_expert_checkpoint_postdelta.json",
        ],
    )
    def test_pnet_section_round_trips(self, name):
        import json
        import pathlib

        from repro.durability import restore_session
        from repro.durability.checkpoint import checkpoint_to_dict

        path = pathlib.Path(__file__).parent / "data" / name
        document = json.loads(path.read_text())
        rewritten = json.loads(
            json.dumps(checkpoint_to_dict(restore_session(path)), default=int)
        )
        expected = document["pnet"]
        if document["version"] == 1:
            # Version-1 checkpoints predate multi-chain sampling; the
            # restored sampler runs its single-chain default.
            expected = {
                **expected,
                "sampler": {**expected["sampler"], "chains": 1},
            }
        assert rewritten["pnet"] == expected

    @pytest.mark.parametrize(
        "name",
        [
            "golden_crowd_checkpoint_round3.json",
            "golden_expert_checkpoint_postdelta.json",
        ],
    )
    def test_save_writes_the_streaming_encoder_bytes(self, name, tmp_path):
        """``save_checkpoint`` encodes with ``json.dumps`` (the C encoder);
        the file must hold exactly what the streaming ``json.dump`` writes."""
        import io
        import json
        import pathlib

        from repro.durability import restore_session, save_checkpoint
        from repro.durability.checkpoint import _json_default, checkpoint_to_dict

        session = restore_session(pathlib.Path(__file__).parent / "data" / name)
        streamed = io.StringIO()
        json.dump(
            checkpoint_to_dict(session),
            streamed,
            sort_keys=True,
            default=_json_default,
        )
        written = save_checkpoint(session, tmp_path / "checkpoint.json")
        assert written.read_text() == streamed.getvalue()
        assert not (tmp_path / "checkpoint.json.tmp").exists()
