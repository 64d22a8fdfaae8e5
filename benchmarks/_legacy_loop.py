"""Verbatim pre-PR (PR 2 era) hot-path snapshots for the session benchmark.

The reconciliation-session benchmark quantifies this PR's speedup against
the code it replaced.  Everything here is a **pinned copy** of the
implementations at the previous commit — the full-range Fisher–Yates
maximalisation scan, the shift-probe walk, the float ``log2``-matrix
information-gain kernel and the dict-per-step session loop — wired
together over today's public APIs.  Do not "improve" this module: its
whole value is staying identical to the historical baseline.

(The *equivalence* baseline is different: `repro.core.reference_loop`
shares today's kernels so traces match bit-for-bit.  This module instead
reproduces yesterday's *wall-clock*, random streams included.)
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np

from repro.core import Correspondence, Feedback, ProbabilisticNetwork, SampledEstimator
from repro.core.constraints import kth_set_bit, shuffled
from repro.core.reference_loop import ReferenceReconciliationSession
from repro.core.sampling import InstanceSampler

_PREFILTER_MIN_AVAIL = 24


def legacy_greedy_maximalize_mask(engine, instance, allowed, rng=None):
    """The pre-free-mask maximalisation: shuffle the full index range."""
    cur = instance
    avail = allowed & ~cur
    if not avail:
        return cur
    bits = engine.bits
    if (
        avail.bit_count() > _PREFILTER_MIN_AVAIL
        and cur.bit_count() * 3 >= engine.n
    ):
        blocked = engine.blocked_candidates(cur)
        avail_vector = engine.selection_array(avail)[:-1]
        indices = np.flatnonzero(avail_vector & ~blocked).tolist()
        if rng is not None:
            indices = shuffled(indices, rng)
    elif rng is not None:
        indices = shuffled(range(engine.n), rng)
    else:
        indices = range(engine.n)
    pair_partners = engine._pair_partners
    large_vmasks = engine._large_vmasks
    for index in indices:
        bit = bits[index]
        if not (avail & bit):
            continue
        if cur & pair_partners[index]:
            continue
        large = large_vmasks[index]
        if large:
            grown = cur | bit
            for vmask in large:
                if vmask & grown == vmask:
                    break
            else:
                cur = grown
            continue
        cur |= bit
    return cur


class LegacyInstanceSampler(InstanceSampler):
    """Algorithm 3 with the pre-PR walk body (shift probes, rng shuffles)."""

    def sample_masks(
        self, n_samples: int, feedback: Optional[Feedback] = None
    ) -> list[int]:
        feedback = feedback or Feedback()
        engine = self.network.engine
        rng = self.rng
        walk_steps = self.walk_steps
        restart_probability = self.restart_probability
        approved = engine.mask_of(feedback.approved)
        allowed = engine.full_mask & ~engine.mask_of(feedback.disapproved)

        current = approved
        discovered: dict[int, None] = {}
        exp = math.exp
        random_float = rng.random
        n = engine.n
        for _ in range(n_samples):
            if current != approved and random_float() < restart_probability:
                current = approved
            for _ in range(walk_steps):
                avail = allowed & ~current
                if not avail:
                    break
                for _ in range(4):
                    index = int(random_float() * n)
                    if (avail >> index) & 1:
                        break
                else:
                    index = kth_set_bit(avail, rng.randrange(avail.bit_count()))
                from repro.core.repair import repair_mask

                proposal = repair_mask(engine, current, index, approved, rng=rng)
                distance = (current ^ proposal).bit_count()
                acceptance = 1.0 - exp(-distance)
                if random_float() < acceptance:
                    current = proposal
            maximal = legacy_greedy_maximalize_mask(engine, current, allowed, rng=rng)
            discovered[maximal] = None
        return list(discovered)

    def emit(
        self, n_samples: int, feedback: Optional[Feedback] = None
    ) -> tuple[list[int], np.ndarray]:
        """The store's refill entry point, routed to the legacy walk above.

        The pre-PR store decoded a top-up's new masks into membership rows
        after merging them; decoding the legacy walk's distinct masks here
        costs about the same (a store without a cached matrix, as in random
        sessions, pays it extra: well under 1 ms per refill), so the
        baseline keeps its historical walk, scan and random streams.
        """
        masks = self.sample_masks(n_samples, feedback)
        return masks, self.network.engine.selection_matrix(masks)


def _legacy_entropy_of_frequencies(frequencies: np.ndarray) -> float:
    p = np.clip(frequencies, 0.0, 1.0)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    if q.size == 0:
        return 0.0
    return float(-(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q)).sum())


def _legacy_entropy_rows(probabilities: np.ndarray) -> np.ndarray:
    q = np.clip(probabilities, 0.0, 1.0)
    interior = (q > 0.0) & (q < 1.0)
    safe = np.where(interior, q, 0.5)
    h = -(safe * np.log2(safe) + (1.0 - safe) * np.log2(1.0 - safe))
    return np.where(interior, h, 0.0).sum(axis=1)


def legacy_information_gains(
    correspondences: Sequence[Correspondence],
    restrict_to,
    matrix: np.ndarray,
) -> dict[Correspondence, float]:
    """The pre-PR gain kernel: full-width co-occurrence + log2 matrices."""
    correspondences = tuple(correspondences)
    targets = tuple(restrict_to)
    total = int(matrix.shape[0])
    gains: dict[Correspondence, float] = {corr: 0.0 for corr in targets}
    if total == 0 or not targets:
        return gains
    column_of = {corr: i for i, corr in enumerate(correspondences)}
    columns = np.asarray([column_of[t] for t in targets], dtype=np.intp)
    dense = np.asarray(matrix, dtype=np.float64)
    counts = dense.sum(axis=0)
    current_uncertainty = _legacy_entropy_of_frequencies(counts / total)
    cooccurrence = dense[:, columns].T @ dense
    n_with = counts[columns]
    n_without = total - n_with
    informative = (n_with > 0.0) & (n_without > 0.0)
    n_with_safe = np.where(informative, n_with, 1.0)
    n_without_safe = np.where(informative, n_without, 1.0)
    entropy_plus = _legacy_entropy_rows(cooccurrence / n_with_safe[:, None])
    entropy_minus = _legacy_entropy_rows(
        (counts[None, :] - cooccurrence) / n_without_safe[:, None]
    )
    p = n_with / total
    conditional = p * entropy_plus + (1.0 - p) * entropy_minus
    gain_values = np.where(
        informative, np.maximum(0.0, current_uncertainty - conditional), 0.0
    )
    for target, value in zip(targets, gain_values.tolist()):
        gains[target] = value
    return gains


class LegacyReconciliationSession(ReferenceReconciliationSession):
    """The scalar reference loop with the pre-PR gain kernel plugged in."""

    def _select(self):
        if self.strategy != "information-gain":
            return super()._select()
        uncertain = self._uncertain()
        if not uncertain:
            unasserted = self._unasserted()
            if not unasserted:
                return None
            return unasserted[self.rng.randrange(len(unasserted))]
        gains = legacy_information_gains(
            self.pnet.correspondences,
            uncertain,
            self.pnet.estimator.membership_matrix(),
        )
        best_gain = max(gains.values())
        best = [corr for corr, gain in gains.items() if gain == best_gain]
        return best[self.rng.randrange(len(best))]


def build_legacy_session(
    fixture, strategy: str, seed: int, target_samples: int
) -> LegacyReconciliationSession:
    """A full pre-PR session: legacy sampler, teardown store, scalar loop."""
    rng = random.Random(seed)
    sampler = LegacyInstanceSampler(fixture.network, rng=rng)
    estimator = SampledEstimator(
        fixture.network, target_samples=target_samples, sampler=sampler
    )
    pnet = ProbabilisticNetwork(fixture.network, estimator=estimator)
    return LegacyReconciliationSession(
        pnet, fixture.oracle(), strategy, rng=random.Random(seed + 1)
    )
