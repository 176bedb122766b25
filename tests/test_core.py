import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gaussian_window, trimmed_irfftn_ref
from velofilt.core import (FrameStack, FrameStream, Grid2D, check_finite,
                           gather_frames, kx_lattice, kz_lattice,
                           load_frame_stack, make_grid, omega_lattice,
                           save_frame_stack, trimmed_irfftn, write_pgm)


def small_stack(nt=4, nz=6, nx=5, seed=0, dt=0.01):
    rng = np.random.default_rng(seed)
    grid = make_grid(nx, nz, 0.05, 0.05)
    data = rng.normal(size=(nt, nz, nx))
    return FrameStack(grid=grid, nt=nt, dt=dt, data=data)


def test_centered_grid_puts_origin_on_sample_for_odd_n():
    g = make_grid(7, 9, 0.1, 0.2)
    assert 0.0 in g.x_coords()
    assert 0.0 in g.z_coords()
    assert g.x_coords()[0] == pytest.approx(-0.3)


def test_centered_grid_straddles_origin_for_even_n():
    g = make_grid(4, 4, 0.1, 0.1)
    assert g.x_coords()[1] == pytest.approx(-0.05)
    assert g.x_coords()[2] == pytest.approx(0.05)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(nx=0, nz=4, dx=0.1, dz=0.1, x0=0, z0=0)
    with pytest.raises(ValueError):
        Grid2D(nx=4, nz=4, dx=-0.1, dz=0.1, x0=0, z0=0)


def test_meshgrid_shape_and_orientation():
    g = make_grid(5, 3, 0.1, 0.1)
    X, Z = g.meshgrid()
    assert X.shape == (3, 5)
    assert np.all(X[0] == g.x_coords())
    assert np.all(Z[:, 0] == g.z_coords())


def test_frame_stack_validation():
    g = make_grid(4, 4, 0.1, 0.1)
    with pytest.raises(ValueError):
        FrameStack(grid=g, nt=0, dt=0.01, data=np.zeros((0, 4, 4)))
    with pytest.raises(ValueError):
        FrameStack(grid=g, nt=2, dt=0.01, data=np.zeros((2, 4, 5)))
    with pytest.raises(ValueError):
        FrameStack(grid=g, nt=2, dt=-1.0, data=np.zeros((2, 4, 4)))


def test_fft_lattices_match_numpy():
    g = make_grid(8, 6, 0.05, 0.1)
    assert np.allclose(kx_lattice(g), 2 * np.pi * np.fft.fftfreq(8, 0.05))
    assert np.allclose(kz_lattice(g), 2 * np.pi * np.fft.fftfreq(6, 0.1))
    assert np.allclose(omega_lattice(10, 0.02),
                       2 * np.pi * np.fft.fftfreq(10, 0.02))


def test_gaussian_window_normalized_and_symmetric():
    w = gaussian_window(0.5, 0.01)
    assert w.weights.sum() * w.dt == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w.weights, w.weights[::-1])
    assert len(w.lags) == len(w)
    assert w.lags[0] == -w.lags[-1]


def test_gaussian_window_rejects_tight_truncation():
    with pytest.raises(ValueError):
        gaussian_window(0.5, 0.01, trunc_sigmas=2.0)


def test_frame_stack_roundtrip_exact(tmp_path):
    stack = small_stack(seed=3)
    jpath, rpath = save_frame_stack(stack, tmp_path / "demo")
    assert jpath.suffix == ".json" and rpath.suffix == ".f32"
    back = gather_frames(load_frame_stack(tmp_path / "demo"))
    # storage is float32; reloading preserves those values exactly
    assert np.array_equal(back.data, stack.data.astype(np.float32))
    assert back.grid == stack.grid
    assert back.dt == stack.dt


def test_load_keeps_the_stored_float32(tmp_path):
    save_frame_stack(small_stack(), tmp_path / "demo")
    assert gather_frames(load_frame_stack(
        tmp_path / "demo")).data.dtype == np.float32


def test_load_rejects_truncated_payload(tmp_path):
    stack = small_stack()
    _, rpath = save_frame_stack(stack, tmp_path / "demo")
    rpath.write_bytes(rpath.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_frame_stack(tmp_path / "demo")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_check_finite_names_the_first_bad_sample(dtype):
    data = small_stack(nt=5).data.astype(dtype)
    check_finite(data)
    data[4, 0, 0] = np.nan
    data[2, 5, 1] = -np.inf
    data[2, 3, 4] = np.inf
    with pytest.raises(ValueError, match=r"\(t, z, x\) = \(2, 3, 4\)$"):
        check_finite(data)


@pytest.mark.parametrize("sizes", [(7,), (3, 4), (1, 2, 4), (7, 0)])
def test_streamed_stack_is_the_whole_stack_write(tmp_path, sizes):
    # appended block by block, in blocks of any size, the files are the
    # bytes of the whole stack's write
    stack = small_stack(nt=7, seed=4)
    whole = save_frame_stack(stack, tmp_path / "whole")
    cuts = np.cumsum((0,) + sizes)

    def fill(append):
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            append(stack.data[t0:t1])

    streamed = save_frame_stack(
        FrameStream(stack.grid, stack.nt, stack.dt, fill),
        tmp_path / "streamed")
    for a, b in zip(whole, streamed, strict=True):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("stream", [False, True])
def test_save_rejects_a_float32_cast_that_is_not_finite(tmp_path, stream):
    # a float64 beyond float32's range would be stored as inf; the stack is
    # refused, with the sample named, and leaves no file
    stack = small_stack(nt=5)
    data = stack.data
    data[3, 2, 1] = 1e300
    if stream:
        stack = FrameStream(stack.grid, stack.nt, stack.dt, lambda append: [
            append(data[t0:t0 + 2]) for t0 in (0, 2, 4)])
    with pytest.raises(ValueError,
                       match=r"float32 cast: .*\(t, z, x\) = \(3, 2, 1\)$"):
        save_frame_stack(stack, tmp_path / "demo")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("frames", [4, 6])
def test_save_rejects_a_stream_of_other_than_nt_frames(tmp_path, frames):
    stack = small_stack(nt=5)
    data = np.resize(stack.data, (frames,) + stack.data.shape[1:])
    with pytest.raises(ValueError, match=f"gave {frames} frames"):
        save_frame_stack(FrameStream(stack.grid, 5, stack.dt,
                                     lambda append: append(data)),
                         tmp_path / "demo")
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_unknown_version(tmp_path):
    import json
    stack = small_stack()
    jpath, _ = save_frame_stack(stack, tmp_path / "demo")
    header = json.loads(jpath.read_text())
    header["version"] = 99
    jpath.write_text(json.dumps(header))
    with pytest.raises(ValueError):
        load_frame_stack(tmp_path / "demo")


def test_write_pgm_format(tmp_path):
    img = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = write_pgm(img, tmp_path / "img.pgm")
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    pix = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pix.min() == 0 and pix.max() == 255


def test_write_pgm_rejects_3d(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2, 2)), tmp_path / "bad.pgm")


@settings(max_examples=25, deadline=None)
@given(nt=st.integers(1, 5), nz=st.integers(1, 7), nx=st.integers(1, 7),
       seed=st.integers(0, 2**16))
def test_save_load_roundtrip_property(tmp_path_factory, nt, nz, nx, seed):
    stack = small_stack(nt=nt, nz=nz, nx=nx, seed=seed)
    base = tmp_path_factory.mktemp("stk") / "s"
    save_frame_stack(stack, base)
    back = gather_frames(load_frame_stack(base))
    assert np.array_equal(back.data, stack.data.astype(np.float32))


@settings(max_examples=30, deadline=None)
@given(sigma_t=st.floats(0.01, 3.0), dt=st.floats(1e-3, 0.2))
def test_window_mass_property(sigma_t, dt):
    w = gaussian_window(sigma_t, dt)
    assert w.weights.sum() * dt == pytest.approx(1.0, abs=1e-9)
    assert np.all(w.weights >= 0)


# (real shape, transformed axes, kept slice per axis): 2 and 3 axes, even,
# odd and prime lengths, kept windows at the start, in the middle and
# empty trims (the bank's boundary="periodic" keeps every frame)
TRIM_CASES = [
    ((280, 16, 12), (0, 1, 2), (slice(120), slice(None), slice(None))),
    ((283, 9, 7), (0, 1, 2), (slice(131), slice(None), slice(None))),
    ((31, 61, 127), (0, 1, 2), (slice(3, 20), slice(5, 50), slice(7, 120))),
    ((4, 257, 199), (-2, -1), (slice(40, 201), slice(33, 166))),
    ((3, 90, 1009), (-2, -1), (slice(13, 77), slice(100, 900))),
    ((2, 131, 64), (1, 2), (slice(None), slice(None))),
    ((24, 30, 33), (0, 1, 2), (slice(None), slice(None), slice(None))),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axes, keep", TRIM_CASES)
def test_trimmed_irfftn_matches_whole_inverse(shape, axes, keep, dtype):
    rng = np.random.default_rng(sum(shape))
    spec = scipy.fft.rfftn(rng.normal(size=shape).astype(dtype), axes=axes)
    s = tuple(shape[a] for a in axes)
    want = trimmed_irfftn_ref(spec, s, axes, keep)
    got = trimmed_irfftn(spec, s, axes, keep)
    assert got.dtype == dtype
    assert np.array_equal(got, want)


def test_trimmed_irfftn_with_two_workers():
    rng = np.random.default_rng(5)
    spec = scipy.fft.rfftn(rng.normal(size=(131, 24, 20)).astype(np.float32))
    keep = (slice(40), slice(None), slice(None))
    want = trimmed_irfftn_ref(spec, (131, 24, 20), (0, 1, 2), keep)
    got = trimmed_irfftn(spec, (131, 24, 20), (0, 1, 2), keep, workers=2)
    assert np.array_equal(got, want)
