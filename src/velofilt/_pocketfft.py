"""The scipy.fft transforms the package uses, called on pocketfft's extension.

`import scipy.fft` costs about 0.14 s and 20 MB (its array-API layer
imports numpy.f2py, numpy.testing and scipy.special) and computes nothing;
the extension that does the work, scipy/fft/_pocketfft/pypocketfft, loads
in under a millisecond. This module finds that file through scipy's import
spec, which imports no scipy, loads it on the first transform under its own
dotted name (or reuses it, if scipy.fft has loaded it already), and passes
its c2c/r2c/c2r the arguments scipy/fft/_pocketfft/basic.py passes for
the arrays the package transforms: the same dtype promotion, zero-pad/trim,
norm mode, in-place output and thread count. So each function's output is
that of its scipy.fft namesake, byte for byte. The extension has had this
signature since scipy 1.4.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

_NAME = "scipy.fft._pocketfft.pypocketfft"
_INORM = {None: 0, "forward": 2}


@functools.cache
def _extension():
    """The pypocketfft module, loaded on the first call."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; velofilt needs its "
                          "pocketfft extension")
    folder = Path(spec.submodule_search_locations[0], "fft", "_pocketfft")
    paths = [folder / f"pypocketfft{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"pocketfft extension not found: {paths[0]}")
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


def _asfarray(x) -> np.ndarray:
    """x as a native-order, aligned float or complex array (float16 and
    non-float input promoted as scipy.fft promotes them)."""
    x = np.asarray(x)
    if x.dtype == np.float16 or x.dtype.kind not in "fc":
        return x.astype(np.float32 if x.dtype == np.float16 else np.float64)
    native = x.dtype.newbyteorder("=")
    return (np.asarray(x, native) if x.flags.aligned
            else np.array(x, native))


def _copied(tmp: np.ndarray, x) -> bool:
    """True if _asfarray(x) shares no memory with x, so it may be
    overwritten."""
    if tmp is x or (not isinstance(x, np.ndarray)
                    and hasattr(x, "__array__")):
        return False
    return tmp.base is None


def _fix_shape(x: np.ndarray, shape, axes) -> tuple[np.ndarray, bool]:
    """x trimmed or zero-padded to shape along axes, and whether that made
    a copy."""
    if any(n < 1 for n in shape):
        raise ValueError(f"invalid number of data points ({list(shape)})")
    index = [slice(None)] * x.ndim
    for n, ax in zip(shape, axes):
        index[ax] = slice(0, min(n, x.shape[ax]))
    index = tuple(index)
    if all(x.shape[ax] >= n for n, ax in zip(shape, axes)):
        return x[index], False
    full = list(x.shape)
    for n, ax in zip(shape, axes):
        full[ax] = n
    out = np.zeros(full, x.dtype)
    out[index] = x[index]
    return out, True


def _inorm(norm: str | None, forward: bool) -> int:
    return _INORM[norm] if forward else 2 - _INORM[norm]


def _workers(workers: int | None) -> int:
    """pocketfft's thread count; a negative count is relative to the CPU
    count, -1 meaning every CPU, as in scipy.fft."""
    if workers is None:
        return 1
    if workers < 0:
        workers += 1 + os.cpu_count()
    if workers < 1:
        raise ValueError("workers must be non-zero and at least "
                         f"-{os.cpu_count()}")
    return workers


def _c2c(forward, x, n=None, axis=-1, norm=None, overwrite_x=False,
         workers=None) -> np.ndarray:
    tmp = _asfarray(x)
    overwrite_x = overwrite_x or _copied(tmp, x)
    if n is not None:
        tmp, copied = _fix_shape(tmp, (n,), (axis,))
        overwrite_x = overwrite_x or copied
    out = tmp if overwrite_x and tmp.dtype.kind == "c" else None
    return _extension().c2c(tmp, (axis,), forward, _inorm(norm, forward),
                            out, _workers(workers))


fft = functools.partial(_c2c, True)
ifft = functools.partial(_c2c, False)


def rfft(x, axis=-1, workers=None) -> np.ndarray:
    return _extension().r2c(_asfarray(x), (axis,), True, _inorm(None, True),
                            None, _workers(workers))


def rfftn(x, s, axes=None) -> np.ndarray:
    tmp = _asfarray(x)
    if axes is None:
        axes = range(tmp.ndim - len(s), tmp.ndim)
    axes = [a + tmp.ndim if a < 0 else a for a in axes]
    tmp, _ = _fix_shape(tmp, s, axes)
    return _extension().r2c(tmp, axes, True, _inorm(None, True), None, 1)


def irfft(x, n=None, axis=-1, norm=None, workers=None) -> np.ndarray:
    tmp = _asfarray(x)
    if n is None:
        n = (tmp.shape[axis] - 1) * 2
    tmp, _ = _fix_shape(tmp, (n // 2 + 1,), (axis,))
    return _extension().c2r(tmp, (axis,), n, False, _inorm(norm, False),
                            None, _workers(workers))


def next_fast_len(target: int, real: bool = False) -> int:
    return _extension().good_size(target, real)
