import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velofilt.core import (FrameStack, Grid2D, gaussian_window, kx_lattice,
                           kz_lattice, load_frame_stack, make_grid,
                           omega_lattice, save_frame_stack, write_pgm)


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
    back = load_frame_stack(tmp_path / "demo")
    # storage is float32; reloading preserves those values exactly
    assert np.array_equal(back.data, stack.data.astype(np.float32))
    assert back.grid == stack.grid
    assert back.dt == stack.dt


def test_load_rejects_truncated_payload(tmp_path):
    stack = small_stack()
    _, rpath = save_frame_stack(stack, tmp_path / "demo")
    rpath.write_bytes(rpath.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_frame_stack(tmp_path / "demo")


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
    back = load_frame_stack(base)
    assert np.array_equal(back.data, stack.data.astype(np.float32))


@settings(max_examples=30, deadline=None)
@given(sigma_t=st.floats(0.01, 3.0), dt=st.floats(1e-3, 0.2))
def test_window_mass_property(sigma_t, dt):
    w = gaussian_window(sigma_t, dt)
    assert w.weights.sum() * dt == pytest.approx(1.0, abs=1e-9)
    assert np.all(w.weights >= 0)
