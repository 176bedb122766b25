import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dft_filter_reference
from velofilt.core import FrameStack, load_frame_stack, make_grid
from velofilt.psf import PsfParams, ToParams, render_psf
from velofilt.theory import attenuation_pre
from velofilt.vfilter import (FilterBankSpec, VelocityFilterSpec,
                              apply_filter_direct, apply_filter_fft,
                              apply_to_filter, build_filter, make_bank,
                              run_filter_bank, save_bank_outputs, tile_speeds)

P = PsfParams(sigma_r=0.3, wavelength=0.3)
T = ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=0.3)


def noise_stack(nt=16, nz=12, nx=10, seed=3, dt=0.01):
    rng = np.random.default_rng(seed)
    grid = make_grid(nx, nz, 0.05, 0.05)
    return FrameStack(grid=grid, nt=nt, dt=dt,
                      data=rng.normal(size=(nt, nz, nx)))


def moving_bubble_stack(v_b, nt=64, n=65, dt=0.01, mode="pre"):
    """Analytic PSF translating at v_b, centered on the middle frame."""
    grid = make_grid(n, n, 0.05, 0.05)
    t0 = (nt - 1) / 2 * dt
    data = np.stack([
        render_psf(P, grid, mode=mode,
                   center=(v_b[0] * (k * dt - t0), v_b[1] * (k * dt - t0)))
        for k in range(nt)])
    return FrameStack(grid=grid, nt=nt, dt=dt, data=data)


def test_spec_validation_and_geometry():
    with pytest.raises(ValueError):
        VelocityFilterSpec(v_f=(1.0, 0.0), sigma_t=0.0)
    with pytest.raises(ValueError):
        VelocityFilterSpec(v_f=(1.0, 0.0), sigma_t=0.1, window="hann")
    s = VelocityFilterSpec(v_f=(3.0, 4.0), sigma_t=0.1)
    assert s.speed == pytest.approx(5.0)
    assert VelocityFilterSpec(v_f=(1.0, 1.0), sigma_t=0.1
                              ).angle_from_lateral_deg == pytest.approx(45.0)
    assert VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.1
                              ).angle_from_lateral_deg == 0.0


def test_build_filter_gain_bounds_and_ridge():
    frames = noise_stack()
    spec = VelocityFilterSpec(v_f=(0.7, -0.4), sigma_t=0.05)
    gain = build_filter(frames.grid, frames.nt, frames.dt, spec)
    assert gain.shape == frames.data.shape
    assert np.all(gain <= 1.0) and np.all(gain > 0.0)
    assert gain[0, 0, 0] == 1.0  # DC(k=0, Omega=0) always passes
    with pytest.raises(ValueError):
        build_filter(frames.grid, 0, frames.dt, spec)


def test_zero_velocity_gain_is_purely_temporal():
    frames = noise_stack()
    gain = build_filter(frames.grid, frames.nt, frames.dt,
                        VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.05))
    # no spatial dependence at all
    assert np.allclose(gain, gain[:, :1, :1])


def test_fft_path_matches_plain_dft_reference():
    frames = noise_stack(nt=12, nz=9, nx=7)
    spec = VelocityFilterSpec(v_f=(0.7, -0.4), sigma_t=0.04)
    out = apply_filter_fft(frames, spec, boundary="periodic")
    ref = dft_filter_reference(frames.data, frames.grid, frames.dt,
                               spec.v_f, spec.sigma_t)
    assert np.allclose(out.data, ref, atol=1e-12)


def test_fft_and_direct_paths_agree():
    # regime where the sampled window does not alias the Doppler band
    frames = moving_bubble_stack((0.8, 0.5), nt=64, n=49, dt=0.01)
    spec = VelocityFilterSpec(v_f=(0.8, 0.5), sigma_t=0.05)
    a = apply_filter_fft(frames, spec, boundary="pad")
    b = apply_filter_direct(frames, spec)
    scale = np.abs(frames.data).max()
    assert np.allclose(a.data, b.data, atol=2e-4 * scale)


def test_direct_path_rejects_oversized_window():
    frames = noise_stack(nt=4)
    with pytest.raises(ValueError):
        apply_filter_direct(frames, VelocityFilterSpec(v_f=(0.0, 0.0),
                                                       sigma_t=5.0))


def test_boundary_validation():
    frames = noise_stack()
    with pytest.raises(ValueError):
        apply_filter_fft(frames, VelocityFilterSpec(v_f=(0.0, 0.0),
                                                    sigma_t=0.05),
                         boundary="mirror")


def test_fft_size_checked_before_allocation():
    # 4e18 pad frames per side: the guard must fire before the zero pad,
    # whose allocation numpy would refuse with a different error
    frames = noise_stack(nt=1, nz=4, nx=4, dt=1e-18)
    spec = VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=1.0)
    with pytest.raises(ValueError,
                       match=r"padded stack \(\d+, 4, 4\) exceeds .* 268435456"):
        apply_filter_fft(frames, spec)


def test_static_content_passes_zero_velocity_filter():
    grid = make_grid(31, 31, 0.05, 0.05)
    img = render_psf(P, grid, mode="pre")
    frames = FrameStack(grid=grid, nt=8, dt=0.01,
                        data=np.repeat(img[None], 8, axis=0))
    out = apply_filter_fft(frames, VelocityFilterSpec(v_f=(0.0, 0.0),
                                                      sigma_t=0.05),
                           boundary="periodic")
    assert np.allclose(out.data, frames.data, atol=1e-12)


@pytest.mark.parametrize("v_f", [(0.8, 0.0), (0.0, 0.8), (0.6, -0.6)])
def test_static_bubble_attenuation_matches_gamma(v_f):
    # a stationary bubble has mismatch dv = -v_f; the on-bubble amplitude
    # drop equals the closed-form gamma (spatial wrap ~1e-6 here)
    grid = make_grid(65, 65, 0.05, 0.05)
    img = render_psf(P, grid, mode="pre")
    frames = FrameStack(grid=grid, nt=8, dt=0.01,
                        data=np.repeat(img[None], 8, axis=0))
    out = apply_filter_fft(frames, VelocityFilterSpec(v_f=v_f, sigma_t=0.5),
                           boundary="periodic")
    iz, ix = grid.nz // 2, grid.nx // 2
    ratio = out.data[4, iz, ix] / img[iz, ix]
    gamma = attenuation_pre(P, 0.5, v_f).gamma
    assert ratio == pytest.approx(gamma, rel=1e-5)


def test_moving_bubble_matched_filter_preserves_peak():
    v_b = (0.9, 0.4)
    frames = moving_bubble_stack(v_b, nt=64, n=65, dt=0.01)
    out = apply_filter_fft(frames, VelocityFilterSpec(v_f=v_b, sigma_t=0.05),
                           boundary="pad")
    mid = frames.nt // 2
    # matched velocity: mid-frame peak survives essentially unattenuated
    assert out.data[mid].max() == pytest.approx(frames.data[mid].max(),
                                                rel=1e-3)
    # mismatched velocity: drop follows gamma at dv = v_b - v_f
    spec = VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.05)
    out0 = apply_filter_fft(frames, spec, boundary="pad")
    gamma = attenuation_pre(P, 0.05, v_b).gamma
    ratio = out0.data[mid].max() / frames.data[mid].max()
    assert ratio == pytest.approx(gamma, rel=5e-3)


def test_double_filtering_widens_the_window():
    # odd sizes: on even axes the Nyquist bin cannot flip sign, the real()
    # projection symmetrizes the gain there and composition only holds for
    # content clear of the Nyquist planes
    frames = noise_stack(nt=15, nz=9, nx=9)
    spec1 = VelocityFilterSpec(v_f=(0.5, 0.2), sigma_t=0.03)
    spec2 = VelocityFilterSpec(v_f=(0.5, 0.2), sigma_t=0.03 * math.sqrt(2.0))
    twice = apply_filter_fft(apply_filter_fft(frames, spec1,
                                              boundary="periodic"),
                             spec1, boundary="periodic")
    once = apply_filter_fft(frames, spec2, boundary="periodic")
    assert np.allclose(twice.data, once.data, atol=1e-12)


def test_to_prefilter_reproduces_to_psf():
    # lateral k-space filtering of the rendered pre PSF must equal the
    # closed-form TO PSF (ties to_transfer to eval_to_psf)
    grid = make_grid(129, 65, 0.05, 0.05)
    img = render_psf(P, grid, mode="pre")
    frames = FrameStack(grid=grid, nt=2, dt=0.01,
                        data=np.repeat(img[None], 2, axis=0))
    out = apply_to_filter(frames, T)
    want = render_psf(P, grid, mode="to", to=T)
    assert np.allclose(out.data[0], want, atol=1e-6 * P.g_e_peak)


def test_tile_speeds_covers_the_range():
    speeds = tile_speeds(1.0, 0.15)
    assert np.allclose(speeds, [0.15, 0.45, 0.75, 1.05])
    for v in np.linspace(0.0, 1.0, 101):
        assert np.min(np.abs(speeds - v)) <= 0.15 + 1e-12
    assert tile_speeds(0.0, 0.1).size == 0
    with pytest.raises(ValueError):
        tile_speeds(1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(v_max=st.floats(0.01, 20.0), delta_v=st.floats(0.01, 5.0))
def test_tile_speeds_property(v_max, delta_v):
    speeds = tile_speeds(v_max, delta_v)
    assert speeds.size >= 1
    for v in np.linspace(0.0, v_max, 37):
        assert np.min(np.abs(speeds - v)) <= delta_v * (1 + 1e-9)
    # no wasted filters: dropping the last one must open a gap
    if speeds.size > 1:
        assert speeds[-2] + delta_v < v_max


def test_make_bank_cross_product():
    bank = make_bank([0.5, 1.0], [0.0, math.pi / 4, math.pi / 2], 0.1)
    assert len(bank) == 6
    assert all(f.sigma_t == 0.1 for f in bank.filters)
    with pytest.raises(ValueError):
        FilterBankSpec(filters=())


def test_run_filter_bank_to_routing():
    frames = noise_stack(nt=8, nz=16, nx=16)
    bank = make_bank([1.0], [0.0, math.pi / 2], 0.05,
                     lateral_to_angle_deg=10.0)
    outs = run_filter_bank(frames, bank, to_params=T)
    lat_spec, ax_spec = bank.filters
    to_frames = apply_to_filter(frames, T)
    want_lat = apply_filter_fft(to_frames, lat_spec)
    want_ax = apply_filter_fft(frames, ax_spec)
    assert np.allclose(outs[0].data, want_lat.data, atol=1e-12)
    assert np.allclose(outs[1].data, want_ax.data, atol=1e-12)


def test_save_bank_outputs_roundtrip(tmp_path):
    frames = noise_stack(nt=6, nz=8, nx=8)
    bank = make_bank([0.5], [0.0, math.pi / 2], 0.03)
    manifest_path = save_bank_outputs(frames, bank, tmp_path, to_params=T)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["n_filters"] == 2
    assert [e["index"] for e in manifest["outputs"]] == [0, 1]
    assert manifest["outputs"][0]["to_prefilter"] is True
    assert manifest["outputs"][1]["to_prefilter"] is False
    # stored stacks match a fresh in-memory run at float32 precision
    outs = run_filter_bank(frames, bank, to_params=T)
    for entry, want in zip(manifest["outputs"], outs):
        got = load_frame_stack(tmp_path / f"filtered_{entry['index']:03d}")
        assert np.allclose(got.data, want.data, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vfx=st.floats(-2.0, 2.0),
       vfz=st.floats(-2.0, 2.0))
def test_filter_never_gains_energy(seed, vfx, vfz):
    frames = noise_stack(nt=8, nz=6, nx=6, seed=seed)
    out = apply_filter_fft(frames, VelocityFilterSpec(v_f=(vfx, vfz),
                                                      sigma_t=0.03),
                           boundary="periodic")
    assert (out.data**2).sum() <= (frames.data**2).sum() * (1 + 1e-12)
