"""The LP matrices built in numpy equal scipy's, bit for bit.

:class:`~repro.lp.problem.LinearProgram` builds its CSR matrices, and the
HiGHS backend its CSC model, without ``scipy.sparse``. The arrays must be
those of ``coo_matrix(...).tocsr()`` and ``vstack(...).tocsc()``:
``indptr``, ``indices`` and ``data``, values and dtypes. Checked on every
program the model figures and a closed-loop run build, and in a
hypothesis property with stored zeros and repeated entries.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.experiments import run_figure
from repro.lp.batched import _stacked_csc
from repro.lp.problem import LinearProgram, _coo_to_csr

from oracles import assert_same_arrays, scipy_matrices, scipy_stacked_csc


def _assert_csc_equal(got: tuple, want: sparse.csc_matrix) -> None:
    start, index, value = got
    pairs = (start, want.indptr), (index, want.indices), (value, want.data)
    for a, b in pairs:
        assert a.dtype == b.dtype, (a.dtype, b.dtype)
        assert a.tobytes() == b.tobytes()


@pytest.fixture()
def checked_builds(monkeypatch) -> list[int]:
    """Patches :meth:`LinearProgram.build` to compare every build with
    scipy's; the list collects each checked program's entry count."""
    checked: list[int] = []
    build = LinearProgram.build

    def spy(self):
        arrays = build(self)
        want = scipy_matrices(self)
        blocks, scipy_blocks = [], []
        for key in ("A_ub", "A_eq"):
            if want[key] is None:
                assert arrays[key] is None
                continue
            assert_same_arrays(arrays[key], want[key])
            blocks.append(arrays[key])
            scipy_blocks.append(want[key])
        _assert_csc_equal(
            _stacked_csc(blocks, arrays["c"].size),
            sparse.vstack(scipy_blocks).tocsc(),
        )
        checked.append(sum(b.data.size for b in blocks))
        return arrays

    monkeypatch.setattr(LinearProgram, "build", spy)
    return checked


@pytest.mark.parametrize(
    "figure",
    # fig_6_3 - fig_6_5 build no LP: they place and evaluate only.
    ["fig_7_6", "fig_7_7", "fig_7_8", "fig_8_9", "fig_closed_loop"],
)
def test_every_program_a_figure_builds(figure, checked_builds):
    run_figure(figure, fast=True, jobs=1)
    assert checked_builds and min(checked_builds) > 0


@st.composite
def _triplets(draw):
    """COO triplets with at most two entries per (row, col), stored zeros
    and sums to zero, optionally already in row-major order."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)
            ),
            max_size=40,
        )
    )
    seen: Counter = Counter()
    kept = []
    for cell in cells:
        if seen[cell] < 2:
            seen[cell] += 1
            kept.append(cell)
    if draw(st.booleans()):
        kept = sorted(set(kept))  # strictly ascending keys
    values = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, -1.0, 0.1, 0.2, 1e-300])
            | st.floats(-1e3, 1e3),
            min_size=len(kept),
            max_size=len(kept),
        )
    )
    rows = np.array([r for r, _ in kept], dtype=np.intp)
    cols = np.array([c for _, c in kept], dtype=np.intp)
    return rows, cols, np.array(values, dtype=np.float64), (n_rows, n_cols)


@given(_triplets(), _triplets())
@settings(max_examples=300, deadline=None)
def test_csr_and_csc_equal_scipy(first, second):
    blocks = []
    for rows, cols, vals, shape in (first, second):
        got = _coo_to_csr(rows, cols, vals, shape)
        want = sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        assert_same_arrays(got, want)
        blocks.append(got)
    n_cols = first[3][1]
    if second[3][1] == n_cols:
        _assert_csc_equal(
            _stacked_csc(blocks, n_cols), scipy_stacked_csc(blocks, n_cols)
        )
    _assert_csc_equal(
        _stacked_csc(blocks[:1], n_cols),
        scipy_stacked_csc(blocks[:1], n_cols),
    )


def test_a_program_without_rows_has_an_empty_csc():
    _assert_csc_equal(_stacked_csc([], 3), scipy_stacked_csc([], 3))
