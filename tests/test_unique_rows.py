"""``unique_rows`` numbers distinct rows exactly as a void-view sort does.

Shard keys (``exec.plan._content_key``), single-shard signature groups and
segment seeds all follow this numbering, so the packed-key path must agree
with the void view's memcmp order on every matrix it accepts, and hand the
rest to the void view: codes above 255, ``MISSING_CODE`` beside them, and
radix products past ``2**62``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import unique_rows

#: Codes around the packed path's edges: ``MISSING_CODE``, the last codes
#: whose bytes still compare as their values, and the first that does not.
EDGE_CODES = [-1, 0, 1, 2, 254, 255, 256]


def _void_unique(matrix):
    """The reference: ``np.unique`` over one void item per row."""
    n, width = matrix.shape
    if width == 0:
        return np.zeros(min(n, 1), dtype=np.intp), np.zeros(n, dtype=np.intp)
    matrix = np.ascontiguousarray(matrix)
    rows = matrix.view(np.dtype((np.void, matrix.itemsize * width))).reshape(n)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse.reshape(n)


@st.composite
def matrices(draw):
    width = draw(st.integers(0, 12), label="width")
    rows = draw(st.integers(0, 30), label="rows")
    dtype = draw(st.sampled_from([np.int32, np.int64, np.int16]), label="dtype")
    # A few values per matrix, so rows repeat.
    values = draw(
        st.lists(
            st.sampled_from(EDGE_CODES) | st.integers(-1, 300),
            min_size=1,
            max_size=4,
        ),
        label="values",
    )
    picks = draw(
        st.lists(
            st.integers(0, len(values) - 1),
            min_size=rows * width,
            max_size=rows * width,
        )
    )
    return np.array(values, dtype=dtype)[picks].reshape(rows, width)


@settings(max_examples=300, deadline=None)
@given(matrix=matrices())
# 12 columns reaching 255 overflow the 2**62 radix bound; with 1..4 they pack.
@example(matrix=np.full((3, 12), 255, dtype=np.int32))
@example(matrix=np.array([[255, -1], [-1, 255], [254, 255], [-1, -1]], dtype=np.int32))
@example(matrix=np.array([[256, 1], [1, 256], [-1, 0], [0, -1]], dtype=np.int32))
def test_unique_rows_equals_the_void_view(matrix):
    first, inverse = unique_rows(matrix)
    want_first, want_inverse = _void_unique(matrix)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    assert inverse.shape == (matrix.shape[0],)


def test_overflowing_radix_product_still_numbers_by_bytes():
    rng = np.random.default_rng(5)
    pool = rng.choice([-1, 0, 200, 255], size=(20, 12)).astype(np.int32)
    pool[0] = 255  # every column reaches 255: 257**12 > 2**62
    matrix = pool[rng.integers(0, 20, size=400)]
    first, inverse = unique_rows(matrix)
    distinct = sorted({row.tobytes() for row in matrix})
    assert [matrix[i].tobytes() for i in first] == distinct
    assert [distinct[k] for k in inverse] == [row.tobytes() for row in matrix]
