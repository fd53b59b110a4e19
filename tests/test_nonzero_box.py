"""Property tests of `grid._nonzero_box`, the box every kernel sums over.

Run with derandomize=True: the examples are a fixed function of each test,
so the suite is deterministic.
"""

from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from pwkit.grid import _nonzero_box  # noqa: E402

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=200)

# nonzero entries, the subnormal and pure imaginary ones included: the mask
# values != 0 is exact, so a sample of 5e-324 is inside the box
REAL = [1.0, -2.5, 5e-324, -1e-300]
COMPLEX = REAL + [1j, -5e-324j, 3.0 - 4.0j]


def hull(values):
    """The brute-force hull of values != 0, or index 0 of every axis for
    the zero array."""
    idx = np.argwhere(values != 0)
    if not len(idx):
        return tuple(slice(0, 1) for _ in values.shape)
    return tuple(slice(int(lo), int(hi) + 1)
                 for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))


@st.composite
def sparse_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=2, max_size=3)))
    is_complex = draw(st.booleans())
    values = np.zeros(shape, dtype=complex if is_complex else float)
    cells = st.tuples(*[st.integers(0, m - 1) for m in shape])
    for cell in draw(st.lists(cells, max_size=5)):
        values[cell] = draw(st.sampled_from(COMPLEX if is_complex else REAL))
    return values


@deterministic
@given(sparse_arrays())
def test_box_is_the_hull_of_the_nonzero_samples(values):
    assert _nonzero_box(values) == hull(values)


@pytest.mark.parametrize("shape", [(5, 6), (5, 6, 7)], ids=["2d", "3d"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_zero_array_gives_one_index(shape, dtype):
    assert _nonzero_box(np.zeros(shape, dtype)) == (slice(0, 1),) * len(shape)


@pytest.mark.parametrize("shape", [(5, 6), (5, 6, 7)], ids=["2d", "3d"])
@pytest.mark.parametrize("value", [1.0, 5e-324, 1j], ids=["one", "subnormal",
                                                          "imaginary"])
def test_one_sample_in_each_corner(shape, value):
    every = np.zeros(shape, dtype=complex)
    for corner in product(*[(0, m - 1) for m in shape]):
        values = np.zeros(shape, dtype=complex)
        values[corner] = every[corner] = value
        assert _nonzero_box(values) == tuple(slice(c, c + 1) for c in corner)
    assert _nonzero_box(every) == tuple(slice(0, m) for m in shape)
