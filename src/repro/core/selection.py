"""Correspondence selection strategies — the ``select`` routine of
Algorithm 1.

The paper evaluates two strategies: **Random** (the unaided-expert baseline)
and the **information-gain heuristic** of Section IV-D.  We provide both plus
three further baselines that are natural ablations of the heuristic: picking
the correspondence with maximal marginal entropy (probability closest to ½,
i.e. information gain without the network coupling), picking the most likely
uncertain correspondence (likelihood-ordered review), and picking the
correspondence with the lowest matcher confidence.

The strategies consume the network's array views — the folded probability
vector and the sample store's membership matrix — directly; Correspondence
objects are materialised only for the single returned selection.  Tie-breaks
and rng consumption are unchanged from the mapping-based implementations, so
seeded sessions select identically.
"""

from __future__ import annotations

import abc
import random
from typing import Optional

import numpy as np

from .correspondence import Correspondence
from .probability import ProbabilisticNetwork
from .uncertainty import binary_entropy_cached, information_gain_array


class SelectionStrategy(abc.ABC):
    """Chooses the next correspondence to show to the expert."""

    name: str = "strategy"

    @abc.abstractmethod
    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        """The next correspondence to assert, or None when nothing is left.

        Only uncertain correspondences (0 < p < 1) qualify: certain ones have
        zero information gain (Section IV-D).
        """


def _random_unasserted(
    pnet: ProbabilisticNetwork, rng: random.Random
) -> Optional[Correspondence]:
    """A uniform draw over unasserted candidates, without materialising them.

    Draw-compatible with the historical list materialisation (the same
    single ``randrange`` call over the same insertion order, so golden
    traces are untouched) but O(1) per pick after the index array — which
    matters when a large-network strategy falls back here on every step.
    """
    indices = pnet.unasserted_indices()
    if len(indices) == 0:
        return None
    return pnet.correspondences[int(indices[rng.randrange(len(indices))])]


class RandomSelection(SelectionStrategy):
    """The paper's baseline: an expert working without support tools.

    Selects uniformly among *unasserted* correspondences — including ones
    that the constraint network has already made certain, which is exactly
    the wasted effort the guided strategies avoid.
    """

    name = "random"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random()

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        return _random_unasserted(pnet, self.rng)


class InformationGainSelection(SelectionStrategy):
    """The paper's heuristic: argmax_c IG(c), ties broken at random.

    Requires a sampling estimator, since the gains are estimated from the
    sample multiset.  ``max_candidates`` optionally restricts the ranking to
    the highest-marginal-entropy candidates to bound per-step cost on very
    large networks (the ranking is then a two-stage filter; with the default
    ``None`` every uncertain correspondence is scored, exactly as in the
    paper).
    """

    name = "information-gain"

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        max_candidates: Optional[int] = None,
    ):
        self.rng = rng or random.Random()
        self.max_candidates = max_candidates

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        columns = pnet.uncertain_indices()
        if len(columns) == 0:
            # Nothing informative left: fall back to any unasserted
            # correspondence (zero gain) so effort sweeps can continue, or
            # report completion.
            return _random_unasserted(pnet, self.rng)
        estimator = pnet.estimator
        if not hasattr(estimator, "membership_matrix"):
            raise TypeError(
                "information-gain selection needs a sampling estimator "
                "exposing membership_matrix (SampledEstimator); use "
                "EntropySelection with exact estimators instead"
            )
        if self.max_candidates is not None and len(columns) > self.max_candidates:
            # Two-stage filter: keep the highest-marginal-entropy targets.
            # ``sorted`` is stable, so ties keep ascending-index order —
            # exactly the mapping-based behaviour.
            vector = pnet.probability_vector()
            entropies = [
                binary_entropy_cached(p) for p in vector[columns].tolist()
            ]
            order = sorted(
                range(len(columns)), key=entropies.__getitem__, reverse=True
            )[: self.max_candidates]
            columns = columns[order]
        # One batched gain reduction over the store's cached bool matrix —
        # the same array core information_gains funnels through, so the
        # floats (and tie sets) match the mapping API bit-for-bit.
        gains = information_gain_array(estimator.membership_matrix(), columns)
        best = np.flatnonzero(gains == gains.max())
        choice = best[self.rng.randrange(len(best))]
        return pnet.correspondences[int(columns[choice])]


def rank_by_information_gain(
    pnet: ProbabilisticNetwork, k: Optional[int] = None
) -> list[tuple[Correspondence, float]]:
    """The top-k uncertain correspondences by information gain.

    Useful for *batch elicitation* — handing an expert a worklist instead of
    one question at a time.  Note that gains are estimated against the
    current network state: after the expert answers any item, the remaining
    gains shift, so the list is a prioritisation, not a guarantee of
    additive gain.
    """
    columns = pnet.uncertain_indices()
    if not len(columns):
        return []
    estimator = pnet.estimator
    if not hasattr(estimator, "membership_matrix"):
        raise TypeError(
            "information-gain ranking needs a sampling estimator exposing "
            "membership_matrix (SampledEstimator)"
        )
    gains = information_gain_array(estimator.membership_matrix(), columns)
    correspondences = pnet.correspondences
    ranked = sorted(
        zip((correspondences[i] for i in columns.tolist()), gains.tolist()),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k] if k is not None else ranked


class EntropySelection(SelectionStrategy):
    """Ablation: maximal *marginal* entropy (p closest to ½).

    This is information gain with the cross-correspondence coupling removed;
    comparing it against :class:`InformationGainSelection` isolates the value
    of modelling the constraint network.
    """

    name = "entropy"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random()

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        uncertain = pnet.uncertain_indices()
        if len(uncertain) == 0:
            return _random_unasserted(pnet, self.rng)
        vector = pnet.probability_vector()
        entropies = [
            binary_entropy_cached(p) for p in vector[uncertain].tolist()
        ]
        best_entropy = max(entropies)
        best = [i for i, h in enumerate(entropies) if h == best_entropy]
        choice = best[self.rng.randrange(len(best))]
        return pnet.correspondences[int(uncertain[choice])]


class LikelihoodSelection(SelectionStrategy):
    """Likelihood-ordered review: the most probable uncertain candidate first.

    A natural manual policy — confirm the matches the network already
    believes in, locking in approvals early so the constraints propagate.
    Complements :class:`ConfidenceSelection` (which orders by the *matcher's*
    score) by ordering on the sampled posterior instead.
    """

    name = "likelihood"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random()

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        uncertain = pnet.uncertain_indices()
        if len(uncertain) == 0:
            return _random_unasserted(pnet, self.rng)
        probabilities = pnet.probability_vector()[uncertain]
        best = np.flatnonzero(probabilities == probabilities.max())
        choice = best[self.rng.randrange(len(best))]
        return pnet.correspondences[int(uncertain[choice])]


class ConfidenceSelection(SelectionStrategy):
    """Ablation: lowest matcher confidence first.

    A plausible manual-tooling policy — review the matches the matcher was
    least sure about — that ignores the network structure entirely.
    """

    name = "confidence"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random()

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        uncertain = pnet.uncertain_correspondences()
        if not uncertain:
            return _random_unasserted(pnet, self.rng)
        confidence = pnet.network.candidates.confidence
        lowest = min(confidence(c) for c in uncertain)
        best = [c for c in uncertain if confidence(c) == lowest]
        return best[self.rng.randrange(len(best))]
