"""`matrix.equal` and `matrix.nonzero`, the package's two array predicates,
against numpy's `array_equal` and `any` on random int64 arrays.

`equal` compares shapes and int64 bytes.  So two arrays of one byte string
but different shapes, such as (2, 3) and (3, 2), or (0, n) and (n, 0), must
differ; an int64 array in another byte order or an array of a narrower
integer dtype must be converted, and a float or object array refused,
never compared as raw bytes.  A planted `equal` that ignores the shape
must fail the property.
"""

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from cartierforge import matrix as mx

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def int64_pair(draw):
    """Two int64 arrays, 0-2 dimensions with sides 0-4, often equal and
    often of one byte string: b is a copy of a, a reshape of it, a copy
    with one entry changed, or a fresh draw; either may be a transposed or
    Fortran-ordered view."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=2)))
    entries = st.integers(-(2 ** 63), 2 ** 63 - 1) | st.integers(-2, 2)
    a = np.array(draw(st.lists(entries, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))), dtype=np.int64).reshape(shape)
    how = draw(st.sampled_from(["copy", "reshape", "change", "fresh"]))
    if how == "copy":
        b = a.copy()
    elif how == "reshape":
        b = a.reshape(shape[::-1])
    elif how == "change" and a.size:
        b = a.copy()
        b.flat[draw(st.integers(0, a.size - 1))] ^= 1
    else:
        b = np.array(draw(st.lists(st.integers(-2, 2), min_size=a.size, max_size=a.size)),
                     dtype=np.int64).reshape(shape)
    view = st.sampled_from([lambda x: x, lambda x: x.T, np.asfortranarray])
    return draw(view)(a), draw(view)(b)


def agrees_with_numpy(equal, a, b) -> bool:
    return equal(a, b) == np.array_equal(a, b) and equal(b, a) == np.array_equal(b, a)


@SETTINGS
@given(int64_pair())
def test_equal_and_nonzero_match_numpy(pair):
    a, b = pair
    assert agrees_with_numpy(mx.equal, a, b)
    assert mx.equal(a, a)
    assert mx.nonzero(a) == a.any() and mx.nonzero(b) == b.any()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_empty_shapes(n):
    assert mx.equal(mx.zeros(0, n), mx.zeros(0, n))
    assert mx.equal(mx.zeros(n, 0), mx.zeros(n, 0))
    assert mx.equal(mx.zeros(0, n), mx.zeros(n, 0)) == (n == 0)
    assert not mx.equal(mx.zeros(0, n), mx.zeros(0, n + 1))
    assert not mx.nonzero(mx.zeros(0, n)) and not mx.nonzero(mx.zeros(n, 0))


def test_equal_bytes_of_two_shapes_are_not_equal():
    a, b = np.arange(6).reshape(2, 3), np.arange(6).reshape(3, 2)
    assert a.tobytes() == b.tobytes() and not mx.equal(a, b)
    assert mx.equal(a, a.copy()) and mx.equal(b.T, b.T.copy())


def test_other_dtypes_are_converted_or_refused():
    a = mx.mat([[1, 2], [3, 4]])
    swapped = a.astype(">i8")       # the same values, other bytes
    assert swapped.tobytes() != a.tobytes() and mx.equal(swapped, a)
    assert mx.equal(a.astype(np.int32), a) and mx.equal(a, a.astype(np.uint8))
    assert mx.equal([[1, 2], [3, 4]], a)
    assert not mx.equal(a.astype(np.int16) + 1, a)
    for bad in (a.astype(np.float64), a.astype(object), np.array([[1.5, 2], [3, 4]])):
        with pytest.raises(TypeError):
            mx.equal(bad, a)
        with pytest.raises(TypeError):
            mx.equal(a, bad)


def test_planted_equal_without_the_shape_fails():
    def planted(a, b):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    find(int64_pair(), lambda pair: not agrees_with_numpy(planted, *pair),
         settings=settings(max_examples=500, database=None))
