"""Gain pin: the one-gather IG kernel ≡ the legacy per-denominator kernel.

Information-gain floats decide which correspondence the loop asks about
(argmax with random tie-breaks among *equal* floats), so the kernel in
``repro.core.uncertainty`` must reproduce the frozen pre-rewrite kernel
(``tests/_legacy_ig.py``) to the last bit — compared with ``tobytes()``,
on bool and on float64 0/1 matrices:

* targets equal to the live columns, a strict subset of them, and
  target sets that include dead columns (count 0 or |Ω*|);
* zero-denominator partitions (dead targets) and the all-certain case;
* a product-matrix-scale call (> 30k rows) whose temporaries must stay
  linear in the call's distinct partition sizes, never a square
  ``(|Ω*| + 1)²`` table.

``scripts/ci.sh`` re-runs this file standalone so a kernel regression is
named in the CI log.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from _legacy_ig import legacy_information_gain_array
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.uncertainty import _ragged_entropy_table, information_gain_array

pin_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_pinned(matrix: np.ndarray, columns: np.ndarray) -> None:
    columns = np.asarray(columns, dtype=np.intp)
    expected = legacy_information_gain_array(
        matrix.astype(np.float64), columns
    ).tobytes()
    for view in (matrix.astype(bool), matrix.astype(np.float64)):
        assert information_gain_array(view, columns).tobytes() == expected


def _live(matrix: np.ndarray) -> np.ndarray:
    counts = matrix.sum(axis=0)
    return np.flatnonzero((counts > 0) & (counts < matrix.shape[0]))


@st.composite
def membership_matrices(draw, max_rows: int = 48, max_cols: int = 18):
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    matrix = draw(hnp.arrays(dtype=bool, shape=(rows, cols)))
    if rows:
        # Force some dead columns (absent from / present in every sample)
        # so the live filter and the zero-denominator paths are exercised.
        dead = draw(st.lists(st.integers(0, cols - 1), max_size=3))
        for column in dead:
            matrix[:, column] = draw(st.booleans())
    return matrix


class TestGainPin:
    @given(matrix=membership_matrices())
    @pin_settings
    def test_targets_equal_live(self, matrix):
        _assert_pinned(matrix, _live(matrix))

    @given(matrix=membership_matrices(), data=st.data())
    @pin_settings
    def test_targets_strict_subset_of_live(self, matrix, data):
        live = _live(matrix).tolist()
        if len(live) < 2:
            return
        subset = data.draw(
            st.lists(
                st.sampled_from(live),
                min_size=1,
                max_size=len(live) - 1,
                unique=True,
            )
        )
        _assert_pinned(matrix, np.asarray(subset))

    @given(matrix=membership_matrices(), data=st.data())
    @pin_settings
    def test_targets_with_dead_columns(self, matrix, data):
        cols = matrix.shape[1]
        targets = data.draw(
            st.lists(st.integers(0, cols - 1), min_size=1, max_size=2 * cols)
        )
        _assert_pinned(matrix, np.asarray(targets))

    def test_zero_denominator_targets(self):
        matrix = np.array(
            [[1, 0, 1, 0], [1, 0, 0, 1], [1, 0, 1, 1]], dtype=bool
        )
        # Column 0 is in every sample (empty negative partition), column 1
        # in none (empty positive partition): both gain exactly 0.
        _assert_pinned(matrix, np.arange(4))
        gains = information_gain_array(matrix, np.arange(4))
        assert gains[0] == 0.0 and gains[1] == 0.0

    def test_all_certain(self):
        matrix = np.zeros((7, 5), dtype=bool)
        matrix[:, [1, 3]] = True
        _assert_pinned(matrix, np.arange(5))
        assert not information_gain_array(matrix, np.arange(5)).any()

    def test_several_row_blocks(self):
        # Column counts are summed in 255-row blocks and entropies gathered
        # in 64-row blocks; 600 samples and 2·80 partitions both end on a
        # partial block.
        matrix = np.random.default_rng(5).random((600, 82)) < 0.4
        matrix[:, 2] = True
        _assert_pinned(matrix, np.arange(82))

    def test_empty_inputs(self):
        _assert_pinned(np.zeros((0, 4), dtype=bool), np.arange(4))
        _assert_pinned(np.ones((3, 4), dtype=bool), np.arange(0))


class TestProductScale:
    ROWS = 32_640

    @pytest.fixture(scope="class")
    def product_matrix(self):
        rng = np.random.default_rng(11)
        density = rng.uniform(0.05, 0.95, size=28)
        matrix = rng.random((self.ROWS, 28)) < density
        matrix[:, 3] = True
        matrix[:, 17] = False
        return matrix

    def test_product_scale_pinned(self, product_matrix):
        _assert_pinned(product_matrix, np.arange(product_matrix.shape[1]))

    def test_temporaries_linear_in_distinct_denominators(self, product_matrix):
        total = product_matrix.shape[0]
        counts = product_matrix.sum(axis=0, dtype=np.int64)
        columns = np.arange(product_matrix.shape[1])
        live = _live(product_matrix)
        plus = counts[live]
        minus = total - plus
        flat, offset_of = _ragged_entropy_table(plus, minus, total)
        distinct = set(plus.tolist()) | set(minus.tolist())
        assert flat.size == sum(d + 1 for d in distinct)
        assert offset_of.size == total

        tracemalloc.start()
        try:
            information_gain_array(product_matrix, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = n = len(live)
        # Live block (uint8 gather, float32 copy), Gram + target rows,
        # the 2k×n index and the gathered values, the O(total) denominator
        # lookups, and the ragged table plus the cached per-denominator
        # tables it concatenates — with 1 MiB of slack.  A square
        # (total + 1)² float64 table alone would be ~8.5 GB.
        bound = (
            4 * total * (n + k)
            + (4 + 8) * k * n
            + 2 * (8 + 8) * k * n
            + 9 * total
            + 2 * 8 * flat.size
            + (1 << 20)
        )
        assert peak <= bound
