"""Network uncertainty and information gain (paper Section IV).

Network uncertainty is the Shannon entropy of the per-correspondence
inclusion indicators (Equation 3, log base 2 — the base Example 1 implies).
Information gain (Equations 4–5) is the expected entropy drop from asserting
one correspondence; we estimate the conditional entropies from the sample
multiset by partitioning it on membership of the assessed correspondence,
which costs no additional sampling.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .correspondence import Correspondence


def binary_entropy(p: float) -> float:
    """Entropy (bits) of a Bernoulli(p) variable; 0 at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


#: Memo for :func:`binary_entropy_cached`.  Sampled probabilities are ratios
#: ``k / |Ω*|``, so a session sees only a few hundred distinct values; the
#: memo turns the per-step entropy reduction into dict hits while keeping the
#: scalar ``math.log2`` semantics bit-for-bit (``np.log2`` disagrees with
#: ``math.log2`` in the last ulp for ~0.2% of inputs, which would break
#: trace parity with the scalar reference loop).
_ENTROPY_MEMO: dict[float, float] = {}


def binary_entropy_cached(p: float) -> float:
    """Memoised :func:`binary_entropy` — identical values, amortised cost."""
    h = _ENTROPY_MEMO.get(p)
    if h is None:
        if len(_ENTROPY_MEMO) >= 1 << 16:
            _ENTROPY_MEMO.clear()
        h = binary_entropy(p)
        _ENTROPY_MEMO[p] = h
    return h


def network_uncertainty(probabilities: Mapping[Correspondence, float]) -> float:
    """H(C, P) = Σ_c H_b(p_c) (Equation 3)."""
    return sum(binary_entropy(p) for p in probabilities.values())


def network_uncertainty_vector(probabilities: np.ndarray) -> float:
    """H(C, P) over a probability *vector* (the loop's hot representation).

    Bit-for-bit equal to ``network_uncertainty`` over a mapping with the
    same values in the same order: per-element entropies come from the
    scalar (memoised) ``binary_entropy`` and are accumulated left-to-right,
    exactly like the ``sum`` in the mapping path.
    """
    return sum(map(binary_entropy_cached, probabilities.tolist()))


def probabilities_from_samples(
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
) -> dict[Correspondence, float]:
    """Per-correspondence sample frequencies over an arbitrary multiset."""
    correspondences = tuple(correspondences)
    if not samples:
        return {corr: 0.0 for corr in correspondences}
    counts = {corr: 0 for corr in correspondences}
    for sample in samples:
        for corr in sample:
            if corr in counts:
                counts[corr] += 1
    total = len(samples)
    return {corr: count / total for corr, count in counts.items()}


def conditional_uncertainty(
    corr: Correspondence,
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
    probability: Optional[float] = None,
) -> float:
    """H(C | c, P) (Equation 4), estimated by partitioning the samples.

    The sample multiset is split into the samples containing ``corr``
    (the approval posterior P⁺) and those not containing it (the
    disapproval posterior P⁻); each side's entropy is weighted by p_c.
    """
    correspondences = tuple(correspondences)
    with_corr = [s for s in samples if corr in s]
    without_corr = [s for s in samples if corr not in s]
    if probability is None:
        probability = len(with_corr) / len(samples) if samples else 0.0
    entropy_plus = network_uncertainty(
        probabilities_from_samples(with_corr, correspondences)
    ) if with_corr else 0.0
    entropy_minus = network_uncertainty(
        probabilities_from_samples(without_corr, correspondences)
    ) if without_corr else 0.0
    return probability * entropy_plus + (1.0 - probability) * entropy_minus


def information_gain(
    corr: Correspondence,
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
    current_uncertainty: Optional[float] = None,
    probability: Optional[float] = None,
) -> float:
    """IG(c) = H(C, P) − H(C | c, P) (Equation 5), clamped at zero.

    Sampling noise can make the estimate marginally negative; information
    gain is non-negative in expectation, so we clamp.
    """
    correspondences = tuple(correspondences)
    if current_uncertainty is None:
        current_uncertainty = network_uncertainty(
            probabilities_from_samples(samples, correspondences)
        )
    conditional = conditional_uncertainty(
        corr, samples, correspondences, probability=probability
    )
    return max(0.0, current_uncertainty - conditional)


def sample_matrix(
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Sequence[Correspondence],
) -> np.ndarray:
    """Boolean membership matrix: rows = samples, columns = correspondences."""
    index = {corr: i for i, corr in enumerate(correspondences)}
    matrix = np.zeros((len(samples), len(correspondences)), dtype=bool)
    for row, sample in enumerate(samples):
        for corr in sample:
            column = index.get(corr)
            if column is not None:
                matrix[row, column] = True
    return matrix


#: Cache for :func:`_entropy_table`: denominator → H_b(k/d) lookup vector.
_ENTROPY_TABLES: dict[int, np.ndarray] = {}


def _entropy_table(denominator: int) -> np.ndarray:
    """H_b(k/d) for k = 0..d — sample-frequency entropies by *count*.

    Every probability the sample store produces is a ratio of small
    integers, so the transcendental work collapses to one table per
    distinct denominator (cached across calls) and entropy reductions
    become integer gathers.
    """
    table = _ENTROPY_TABLES.get(denominator)
    if table is None:
        if len(_ENTROPY_TABLES) >= 4096:
            _ENTROPY_TABLES.clear()
        p = np.arange(denominator + 1, dtype=np.float64) / denominator
        interior = p[1:-1]
        table = np.zeros(denominator + 1, dtype=np.float64)
        table[1:-1] = -(
            interior * np.log2(interior)
            + (1.0 - interior) * np.log2(1.0 - interior)
        )
        table.setflags(write=False)
        _ENTROPY_TABLES[denominator] = table
    return table


def _ragged_entropy_table(
    plus: np.ndarray, minus: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """The entropy tables of one call's distinct denominators, end to end.

    Returns ``(flat, offset_of)`` with ``H_b(k/d) = flat[offset_of[d] + k]``
    for every denominator ``d`` in ``plus`` or ``minus`` (all in
    ``1..total-1``).  ``flat`` holds Σ(d + 1) entries over the *distinct*
    denominators only and ``offset_of`` is one O(total) lookup vector, so
    the temporaries stay linear in the partition sizes — a square
    ``(total + 1)²`` table would not fit in memory for a product matrix.
    The per-denominator tables are the cached :func:`_entropy_table` ones,
    so the gathered values are bit-for-bit theirs.
    """
    present = np.zeros(total, dtype=bool)
    present[plus] = True
    present[minus] = True
    denominators = np.flatnonzero(present)
    sizes = denominators + 1
    offset_of = np.zeros(total, dtype=np.intp)
    offset_of[denominators] = np.cumsum(sizes) - sizes
    flat = np.concatenate([_entropy_table(d) for d in denominators.tolist()])
    return flat, offset_of


#: Rows of the entropy gather handled per block in
#: :func:`information_gain_array`.
_GATHER_ROWS = 64


def _column_counts(source: np.ndarray) -> np.ndarray:
    """Column sums of a 0/1 uint8 matrix, as intp (the gather index dtype).

    Summed in blocks of 255 rows, whose uint8 sums cannot overflow, so
    numpy adds bytes without a per-element cast — several times faster
    than one int32 reduction over the whole matrix.
    """
    counts = np.zeros(source.shape[1], dtype=np.intp)
    for start in range(0, source.shape[0], 255):
        counts += source[start : start + 255].sum(axis=0, dtype=np.uint8)
    return counts


def information_gain_array(
    matrix: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    """Batched IG for the target ``columns`` of a 0/1 sample-membership matrix.

    This is the one gain kernel: the information-gain strategy, crowd
    question ranking, :func:`rank_by_information_gain` and the mapping API
    :func:`information_gains` all funnel through it, so the gain floats
    (and hence argmax tie-breaks) are bit-for-bit identical no matter which
    caller computed them.  ``matrix`` is the store's boolean Ω* matrix (any
    0/1 dtype works); its integer column counts are taken once per call.

    Only *live* columns — neither absent from nor present in every sample —
    can contribute entropy to either partition, and a target is informative
    exactly when it is live, so the live block is gathered once and every
    partition count comes from its Gram matrix: row *t* of ``Bᵀ B`` holds,
    for every live candidate, the number of samples containing both *t* and
    the candidate — the positive-partition count vector (the negative
    partition is its complement against the column counts).  The product
    runs in float32, exact for counts below 2²⁴.  All 2·|targets| partition
    entropies then come from flat gathers into the call's ragged
    per-denominator table (:func:`_ragged_entropy_table`), summed per row.
    """
    columns = np.asarray(columns, dtype=np.intp)
    gains = np.zeros(len(columns), dtype=np.float64)
    total = int(matrix.shape[0])
    if total == 0 or len(columns) == 0:
        return gains
    # ``take`` over a bool matrix runs markedly faster through a uint8 view.
    source = np.asarray(matrix, dtype=bool).view(np.uint8)
    counts = _column_counts(source)
    current_uncertainty = float(_entropy_table(total)[counts].sum())
    n_with = counts[columns]
    informative = np.flatnonzero((n_with > 0) & (n_with < total))
    if not len(informative):
        return gains

    live_mask = (counts > 0) & (counts < total)
    live = np.flatnonzero(live_mask)
    exact = np.float32 if total < 1 << 24 else np.float64
    block = source.take(live, axis=1).astype(exact)
    # Targets are live columns; the Gram's row t is target t's counts.
    rows = (np.cumsum(live_mask) - 1)[columns[informative]]
    plus = n_with[informative]
    minus = total - plus
    flat, offset_of = _ragged_entropy_table(plus, minus, total)
    # One (2k × live) buffer holds the co-occurrence counts and then the
    # plus/minus gather index: at this size every fresh temporary costs
    # page faults.
    k = len(rows)
    index = np.empty((2 * k, len(live)), dtype=np.intp)
    cooccurrence = index[k:]
    cooccurrence[...] = (block.T @ block)[rows]
    np.add(cooccurrence, offset_of[plus][:, None], out=index[:k])
    np.subtract(counts[live], cooccurrence, out=cooccurrence)
    cooccurrence += offset_of[minus][:, None]
    # Gather and sum in row blocks: a block's entropies stay in cache
    # between the gather and the row sum, where one (2k × live) float64
    # result would be a fresh multi-megabyte allocation per call.
    entropy = np.empty(2 * k, dtype=np.float64)
    for start in range(0, 2 * k, _GATHER_ROWS):
        stop = start + _GATHER_ROWS
        entropy[start:stop] = flat.take(index[start:stop]).sum(axis=1)
    p = plus / total
    conditional = p * entropy[:k] + (1.0 - p) * entropy[k:]
    gains[informative] = np.maximum(0.0, current_uncertainty - conditional)
    return gains


def information_gains(
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
    restrict_to: Optional[Iterable[Correspondence]] = None,
    matrix: Optional[np.ndarray] = None,
) -> dict[Correspondence, float]:
    """IG for every (or a restricted set of) correspondence, as a mapping.

    The mapping front-end of :func:`information_gain_array`: targets are
    resolved to columns of ``correspondences`` (targets outside it gain 0)
    and the gains come from the one kernel, so they equal the array API's
    bit-for-bit.

    Pass ``matrix`` — a bool sample-membership matrix with columns aligned
    to ``correspondences``, e.g. :meth:`SampleStore.matrix` — to skip
    densifying the frozenset ``samples``, which are then ignored and may be
    empty.
    """
    correspondences = tuple(correspondences)
    targets = tuple(restrict_to) if restrict_to is not None else correspondences
    if matrix is None:
        matrix = sample_matrix(samples, correspondences)
    total = int(matrix.shape[0])
    gains: dict[Correspondence, float] = {corr: 0.0 for corr in targets}
    if total == 0 or not targets:
        return gains

    column_of = {corr: i for i, corr in enumerate(correspondences)}
    target_columns = [column_of.get(target) for target in targets]
    valid = [p for p, column in enumerate(target_columns) if column is not None]
    if not valid:
        return gains
    columns = np.asarray([target_columns[p] for p in valid], dtype=np.intp)
    gain_values = information_gain_array(matrix, columns)
    for position, value in zip(valid, gain_values.tolist()):
        gains[targets[position]] = value
    return gains
