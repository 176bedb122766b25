"""velofilt._pocketfft against public scipy.fft, byte for byte.

Each case runs the same input, as a fresh copy, through both and requires
np.array_equal and the same dtype, over every argument the package passes:
float32 and float64, odd and even lengths, an n or s that pads and one
that trims, each axis, norm None and "forward", overwrite_x on and off,
and 1 or 2 workers.
"""

import importlib.machinery
import itertools
import sys

import numpy as np
import pytest
import scipy.fft

from velofilt import _pocketfft

SHAPES = [(6, 8, 10), (7, 9, 5)]
DTYPES = [np.float32, np.float64]
NORMS = [None, "forward"]
WORKERS = [1, 2]


def _data(shape, dtype, complex_=False, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if complex_:
        x = x + 1j * rng.normal(size=shape)
        return x.astype(np.result_type(dtype, np.complex64))
    return x.astype(dtype)


def _same(name, x, *args, **kwargs):
    got = getattr(_pocketfft, name)(x.copy(), *args, **kwargs)
    want = getattr(scipy.fft, name)(x.copy(), *args, **kwargs)
    case = f"{name}({x.dtype}{x.shape}, {args}, {kwargs})"
    assert got.dtype == want.dtype, case
    assert np.array_equal(got, want), case


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["fft", "ifft"])
def test_c2c_matches_scipy(name, dtype):
    for shape, complex_, axis, norm, overwrite_x, workers in itertools.product(
            SHAPES, [False, True], [0, 1, 2, -1], NORMS, [False, True],
            WORKERS):
        x = _data(shape, dtype, complex_)
        for n in (None, shape[axis] + 3, shape[axis] - 2):
            _same(name, x, n, axis=axis, norm=norm, overwrite_x=overwrite_x,
                  workers=workers)


@pytest.mark.parametrize("dtype", DTYPES)
def test_rfft_matches_scipy(dtype):
    for shape, axis, workers in itertools.product(
            SHAPES, [0, 1, 2, -1], WORKERS):
        _same("rfft", _data(shape, dtype), axis=axis, workers=workers)


@pytest.mark.parametrize("dtype", DTYPES)
def test_irfft_matches_scipy(dtype):
    for shape, axis, norm, workers in itertools.product(
            SHAPES, [0, 1, 2, -1], NORMS, WORKERS):
        x = _data(shape, dtype, complex_=True)
        m = 2 * (shape[axis] - 1)
        # the default length, odd and even lengths, padding and trimming
        for n in (None, m + 1, m + 6, m - 3, 2):
            _same("irfft", x, n, axis=axis, norm=norm, workers=workers)


@pytest.mark.parametrize("dtype", DTYPES)
def test_rfftn_matches_scipy(dtype):
    for shape, norm, workers in itertools.product(SHAPES, NORMS, WORKERS):
        x = _data(shape, dtype)
        nz, nx = shape[-2:]
        for s in ((nz + 4, nx + 3), (nz - 2, nx + 5), (nz, nx - 1)):
            _same("rfftn", x, s, axes=(-2, -1), norm=norm, workers=workers)
            _same("rfftn", x[0], s, norm=norm, workers=workers)
            _same("rfftn", x[0, ::-1, ::-1], s, norm=norm, workers=workers)


def test_next_fast_len_matches_scipy():
    for real in (True, False):
        assert ([_pocketfft.next_fast_len(n, real) for n in range(1, 4097)]
                == [scipy.fft.next_fast_len(n, real) for n in range(1, 4097)])


def test_missing_extension_names_the_file(monkeypatch):
    monkeypatch.delitem(sys.modules, _pocketfft._NAME)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".missing.so"])
    _pocketfft._extension.cache_clear()
    try:
        with pytest.raises(ImportError,
                           match=r"_pocketfft.pypocketfft\.missing\.so"):
            _pocketfft._extension()
    finally:
        _pocketfft._extension.cache_clear()
