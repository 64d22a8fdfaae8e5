"""Pinned copy of the per-denominator information-gain kernel (gain reference).

Information-gain floats decide the selection loop's argmax and its tie
sets, so any faster kernel must reproduce them to the last bit.  This
module freezes the implementation the one-gather kernel replaced:

* :func:`legacy_information_gain_array` — float64 co-occurrence product
  ``Mᵀ[targets] @ M[:, live]`` over a re-summed float matrix, with one
  ``flatnonzero``/gather round per distinct partition denominator;
* :func:`legacy_entropy_table` — the H_b(k/d) lookup vector it gathers
  from (its own cache, so the pin never shares state with the kernel
  under test).

Do not "improve" this module: its whole value is staying identical to the
historical behaviour.
"""

from __future__ import annotations

import numpy as np

_LEGACY_TABLES: dict[int, np.ndarray] = {}


def legacy_entropy_table(denominator: int) -> np.ndarray:
    table = _LEGACY_TABLES.get(denominator)
    if table is None:
        if len(_LEGACY_TABLES) >= 4096:
            _LEGACY_TABLES.clear()
        p = np.arange(denominator + 1, dtype=np.float64) / denominator
        interior = p[1:-1]
        table = np.zeros(denominator + 1, dtype=np.float64)
        table[1:-1] = -(
            interior * np.log2(interior)
            + (1.0 - interior) * np.log2(1.0 - interior)
        )
        table.setflags(write=False)
        _LEGACY_TABLES[denominator] = table
    return table


def legacy_entropy_rows_from_counts(
    counts: np.ndarray, denominators: np.ndarray
) -> np.ndarray:
    out = np.zeros(counts.shape[0], dtype=np.float64)
    for denominator in np.unique(denominators).tolist():
        if denominator <= 0:
            continue
        rows = np.flatnonzero(denominators == denominator)
        table = legacy_entropy_table(int(denominator))
        out[rows] = table[counts[rows]].sum(axis=1)
    return out


def legacy_information_gain_array(
    matrix: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    total = int(matrix.shape[0])
    if total == 0 or len(columns) == 0:
        return np.zeros(len(columns), dtype=np.float64)
    dense = np.asarray(matrix, dtype=np.float64)
    counts = dense.sum(axis=0)
    counts_int = counts.astype(np.int64)
    current_uncertainty = float(legacy_entropy_table(total)[counts_int].sum())

    live = np.flatnonzero((counts_int > 0) & (counts_int < total))
    n_with = counts_int[columns]
    n_without = total - n_with
    informative = (n_with > 0) & (n_without > 0)
    if not len(live) or not informative.any():
        return np.zeros(len(columns), dtype=np.float64)

    cooccurrence = (dense[:, columns].T @ dense[:, live]).astype(np.int64)
    entropy_plus = legacy_entropy_rows_from_counts(cooccurrence, n_with)
    entropy_minus = legacy_entropy_rows_from_counts(
        counts_int[live][None, :] - cooccurrence, n_without
    )
    p = counts[columns] / total
    conditional = p * entropy_plus + (1.0 - p) * entropy_minus
    return np.where(
        informative, np.maximum(0.0, current_uncertainty - conditional), 0.0
    )
