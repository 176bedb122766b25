import collections
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (apply_filter_direct, dft_filter_reference,
                     reached_rows, trimmed_irfftn_ref, velocity_gain_ref)
from velofilt import _pocketfft, vfilter
from velofilt.core import (STREAM_BLOCK, FrameStack, FrameStream,
                           gather_frames, load_frame_stack, make_grid,
                           save_frame_stack)
from velofilt.localize import run_pipeline
from velofilt.psf import PsfParams, ToParams, render_psf, to_transfer
from velofilt.theory import attenuation_pre
from velofilt.vfilter import (FilterBankSpec, VelocityFilterSpec,
                              apply_filter_fft, apply_to_filter, make_bank,
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


def gathered(outputs):
    """The bank's (i, spec, out, used_to) outputs, each out gathered into
    a FrameStack as it arrives: a stream is valid only until the bank moves
    on."""
    return [(i, spec, gather_frames(out), used_to)
            for i, spec, out, used_to in outputs]


def whole_gain(grid, nt, dt, spec, dtype=np.float64, step=None, seen=None):
    """The gain on the whole rfftn half lattice, put together from the
    omega rows that _gain_rows gives per slab of step kz rows (all rows at
    once by default) on the rows _row_bound keeps, with 0 on every row
    the bound leaves out. seen, a Counter,
    counts how each slab's rows fell: all, some in one run, some in a run
    that DFT order splits at 0, or none."""
    step = step or grid.nz
    seen = collections.Counter() if seen is None else seen
    slabs = [(z0, min(z0 + step, grid.nz)) for z0 in range(0, grid.nz, step)]
    rows = vfilter._gain_rows(grid, nt, dt, spec, dtype)
    bound = vfilter._row_bound(grid, nt, dt, spec, dtype, slabs)
    assert bound.shape == (len(slabs), nt)
    gain = np.zeros((nt, grid.nz, grid.nx // 2 + 1))
    for (z0, z1), live in zip(slabs, bound):
        parts = rows(z0, z1, live)
        spans = [(r.start, r.stop) for r, _ in parts]
        assert len(spans) <= 2 and all(a < b for a, b in spans)
        if len(spans) == 2:
            assert spans[0][0] == 0 and spans[0][1] < spans[1][0]
            assert spans[1][1] == nt
        seen["none" if not spans else "all" if spans == [(0, nt)]
             else "wrapped" if len(spans) == 2 else "some"] += 1
        for r, part in parts:
            assert part.dtype == np.float64
            gain[r, z0:z1] = part
    return gain


def test_spec_validation_and_geometry():
    with pytest.raises(ValueError):
        VelocityFilterSpec(v_f=(1.0, 0.0), sigma_t=0.0)
    s = VelocityFilterSpec(v_f=(3.0, 4.0), sigma_t=0.1)
    assert s.speed == pytest.approx(5.0)
    assert VelocityFilterSpec(v_f=(1.0, 1.0), sigma_t=0.1
                              ).angle_from_lateral_deg == pytest.approx(45.0)
    assert VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.1
                              ).angle_from_lateral_deg == 0.0


def test_build_filter_gain_bounds_and_ridge():
    frames = noise_stack()
    spec = VelocityFilterSpec(v_f=(0.7, -0.4), sigma_t=0.05)
    gain = whole_gain(frames.grid, frames.nt, frames.dt, spec)
    # rfftn half lattice of the (16, 12, 10) stack
    assert gain.shape == (frames.nt, frames.grid.nz, frames.grid.nx // 2 + 1)
    assert np.all(gain <= 1.0) and np.all(gain > 0.0)
    assert gain[0, 0, 0] == 1.0  # DC(k=0, Omega=0) always passes


GAIN_SIZES = [(280, 64, 64), (33, 31, 17), (24, 30, 33)]
GAIN_CASES = [
    ((5.0, 0.0), 2.0, 0.025, True),
    ((3.0, -4.0), 2.0, 0.01, True),
    ((0.0, 0.0), 2.0, 0.025, True),
    ((0.7, -0.4), 1e-3, 0.025, False),
    ((0.0, 0.0), 1e-3, 0.01, False)]


@pytest.mark.parametrize("sizes", GAIN_SIZES)
@pytest.mark.parametrize("v_f, sigma_t, dt, underflow", GAIN_CASES)
def test_build_filter_matches_plain_formula(sizes, v_f, sigma_t, dt,
                                            underflow):
    # mostly underflowing lattices (exp's slow path, which the gain
    # skips) and lattices with none must give exp's own bytes at and above
    # the smallest normal float64, and 0 below it: no entry is subnormal
    nt, nz, nx = sizes
    grid = make_grid(nx, nz, 0.1, 0.05)
    gain = whole_gain(grid, nt, dt, VelocityFilterSpec(v_f=v_f,
                                                       sigma_t=sigma_t))
    want = velocity_gain_ref(nt, dt, nz, 0.05, nx, 0.1, v_f, sigma_t,
                             math.log(np.finfo(np.float64).tiny))
    assert np.array_equal(gain, want)
    assert not np.any((gain > 0.0) & (gain < np.finfo(np.float64).tiny))
    zeros = np.mean(want == 0.0)
    assert zeros > 0.5 if underflow else zeros == 0.0


@pytest.mark.parametrize("sizes", GAIN_SIZES)
@pytest.mark.parametrize("v_f, sigma_t, dt, underflow", GAIN_CASES)
def test_float32_floor_changes_no_float32_gain(sizes, v_f, sigma_t, dt,
                                               underflow):
    # no float32 gain entry is subnormal: where the exponent is at or
    # above the float32 floor, the gain is the float64 gain's float32
    # cast, and below it the gain is 0
    nt, nz, nx = sizes
    grid = make_grid(nx, nz, 0.1, 0.05)
    spec = VelocityFilterSpec(v_f=v_f, sigma_t=sigma_t)
    floor = math.log(np.finfo(np.float32).tiny)
    wide = whole_gain(grid, nt, dt, spec)
    narrow = whole_gain(grid, nt, dt, spec, np.float32)
    assert narrow.dtype == np.float64
    assert np.array_equal(narrow, velocity_gain_ref(
        nt, dt, nz, 0.05, nx, 0.1, v_f, sigma_t, floor))
    cast = narrow.astype(np.float32)
    assert not np.any((cast > 0.0) & (cast < np.finfo(np.float32).tiny))
    assert np.array_equal(cast, np.where(wide >= math.exp(floor), wide,
                                         0.0).astype(np.float32))
    assert np.mean(narrow == 0.0) >= np.mean(wide == 0.0)
    assert np.array_equal(whole_gain(grid, nt, dt, spec, np.float64), wide)


BOUND_SIZES = [(64, 8, 8), (63, 9, 9), (64, 9, 8), (33, 8, 9)]
BOUND_V_F = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-2.0, 0.0), (0.0, -2.0),
             (0.7, -0.4), (-30.0, 45.0)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sizes", BOUND_SIZES)
def test_row_bound_leaves_out_only_zero_rows(sizes, dtype):
    # odd and even axes, v_f = 0, negative components, fast filters, narrow
    # and wide windows: every omega row the bound leaves out of a slab is
    # exactly 0 in the whole-lattice gain with dtype's floor, and the rows
    # it keeps are that gain's bytes. Even axes put a Nyquist plane's
    # mirrored half just inside the reach (e.g. v_f = (1, 0) on nx 8,
    # (-2, 0) on an even nt), where only the mirrored bin keeps the row.
    nt, nz, nx = sizes
    grid = make_grid(nx, nz, 0.1, 0.1)
    floor = vfilter._exp_floor(dtype)
    seen = collections.Counter()
    for v_f, sigma_t, dt in itertools.product(
            BOUND_V_F, [0.02, 0.1, 0.5, 2.0], [0.01, 0.05]):
        spec = VelocityFilterSpec(v_f=v_f, sigma_t=sigma_t)
        want = velocity_gain_ref(nt, dt, nz, 0.1, nx, 0.1, v_f, sigma_t,
                                 floor)
        for step in (1, 3, nz):
            got = whole_gain(grid, nt, dt, spec, dtype, step, seen)
            assert np.array_equal(got, want), (v_f, sigma_t, dt, step)
    assert set(seen) == {"all", "some", "wrapped", "none"}, seen


@settings(max_examples=150, deadline=None)
@given(nt=st.integers(2, 48), nz=st.integers(2, 12), nx=st.integers(2, 12),
       dz=st.floats(0.02, 0.2), dx=st.floats(0.02, 0.2),
       dt=st.floats(0.002, 0.1), log_sigma=st.floats(math.log(0.02),
                                                    math.log(2.0)),
       v_f=st.tuples(*2 * [st.one_of(st.just(0.0), st.floats(-3.0, 3.0),
                                     st.floats(-60.0, 60.0))]),
       dtype=st.sampled_from([np.float32, np.float64]),
       step=st.integers(1, 12))
def test_row_bound_is_sound_on_random_lattices(nt, nz, nx, dz, dx, dt,
                                               log_sigma, v_f, dtype, step):
    sigma_t = math.exp(log_sigma)
    want = velocity_gain_ref(nt, dt, nz, dz, nx, dx, v_f, sigma_t,
                             vfilter._exp_floor(dtype))
    got = whole_gain(make_grid(nx, nz, dx, dz), nt, dt,
                     VelocityFilterSpec(v_f=v_f, sigma_t=sigma_t), dtype,
                     step)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("nt, dt", [(64, 0.01), (63, 0.01), (64, 0.04)])
def test_row_bound_holds_at_the_exact_reach(nt, dt):
    # sigma_t within 20 ulps of each value that puts an omega row exactly
    # at the float32 floor's reach: float64 rounding decides whether that
    # row's gain is about 1.2e-38 or 0, so the bound needs its rounding
    # margin
    floor = vfilter._exp_floor(np.float32)
    grid = make_grid(2, 2, 0.1, 0.1)
    for omega in 2.0 * np.pi * np.fft.fftfreq(nt, dt)[1:nt // 2]:
        low = high = math.sqrt(-2.0 * floor) / omega
        sigmas = [low]
        for _ in range(20):
            low, high = math.nextafter(low, 0.0), math.nextafter(high, 9.0)
            sigmas += [low, high]
        for sigma_t in sigmas:
            spec = VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=sigma_t)
            want = velocity_gain_ref(nt, dt, 2, 0.1, 2, 0.1, (0.0, 0.0),
                                     sigma_t, floor)
            assert np.array_equal(whole_gain(grid, nt, dt, spec, np.float32),
                                  want), sigma_t


def test_zero_velocity_gain_is_purely_temporal():
    frames = noise_stack()
    gain = whole_gain(frames.grid, frames.nt, frames.dt,
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
    spec = VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.05)
    with pytest.raises(ValueError):
        apply_filter_fft(frames, spec, boundary="mirror")
    with pytest.raises(ValueError, match="unknown boundary 'mirror'"):
        FilterBankSpec(filters=(spec,), boundary="mirror")


def test_fft_size_checked_before_allocation():
    # 4e18 pad frames per side: the guard must fire before the zero pad,
    # whose allocation numpy would refuse with a different error
    frames = noise_stack(nt=1, nz=4, nx=4, dt=1e-18)
    spec = VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=1.0)
    with pytest.raises(ValueError,
                       match=r"padded stack \(8e\+18, 4, 4\) exceeds .* 268435456"):
        apply_filter_fft(frames, spec)


def test_bank_size_checked_before_allocation(monkeypatch):
    # the filter's pad does not fit: the bank must raise before any
    # transform, any spectrum or any output
    frames = noise_stack(nt=1, nz=4, nx=4, dt=1e-18)
    bank = FilterBankSpec(filters=(
        VelocityFilterSpec(v_f=(0.0, 1.0), sigma_t=1.0),))

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr("velofilt.vfilter._compact_spectrum", no_alloc)
    for name in ("rfftn", "rfft", "fft"):
        monkeypatch.setattr(_pocketfft, name, no_alloc)
    with pytest.raises(ValueError,
                       match=r"padded stack \(8e\+18, 4, 4\) exceeds .* 268435456"):
        next(run_filter_bank(frames, replace(bank, to=T)))


@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_gain_argument_without_a_finite_square_is_refused(boundary,
                                                          monkeypatch):
    # pi / dx = 3e300 times v_x: the gain's square would overflow, so the
    # bank refuses it before any transform
    data = noise_stack(nt=4, nz=4, nx=4).data
    frames = FrameStack(make_grid(4, 4, 1e-300, 0.05), 4, 0.01, data)
    bank = FilterBankSpec(filters=(
        VelocityFilterSpec(v_f=(0.0, 1.0), sigma_t=0.02),
        VelocityFilterSpec(v_f=(1e-10, 0.0), sigma_t=0.02)),
        boundary=boundary)
    assert vfilter.bank_pads(FilterBankSpec(filters=bank.filters[:1]), 4,
                             0.01, frames.grid) == 8
    for name in ("rfftn", "rfft", "fft"):
        monkeypatch.setattr(_pocketfft, name, None)
    with pytest.raises(ValueError, match=r"filter 1's gain argument "
                                         r"reaches 6.28e\+288 .* not finite"):
        next(run_filter_bank(frames, bank))


def test_filter_count_is_bounded_before_any_filter_is_built(monkeypatch):
    assert len(tile_speeds(4096.0, 0.5)) == vfilter.MAX_FILTERS == 4096
    assert len(make_bank([0.5] * 2048, [0.0, 1.0], 0.1)) == 4096

    def no_filter(self):
        raise AssertionError("a filter was built")

    monkeypatch.setattr(VelocityFilterSpec, "__post_init__", no_filter)
    with pytest.raises(ValueError, match=r"takes 4.1e\+03 filter speeds, "
                                         "more than the limit of 4096"):
        tile_speeds(4097.0, 0.5)
    with pytest.raises(ValueError, match="2049 speeds x 2 angles make 4098 "
                                         "filters, more than the limit"):
        make_bank([0.5] * 2049, [0.0, 1.0], 0.1)


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
    # odd sizes: on even axes the Nyquist bin cannot flip sign, the gain is
    # the mean of H and its mirror there, and composition only holds for
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
    # refused before numpy is asked for 5e299 speeds
    with pytest.raises(ValueError, match=r"takes 5e\+299 filter speeds"):
        tile_speeds(1.0, 1e-300)


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


def test_bank_refuses_two_window_widths():
    # one window width is one temporal pad and one forward spectrum
    filters = (VelocityFilterSpec(v_f=(1.0, 0.0), sigma_t=0.02),
               VelocityFilterSpec(v_f=(0.0, 1.0), sigma_t=0.035))
    with pytest.raises(ValueError, match=r"one window width, .*"
                                         r"sigma_t \[0\.02, 0\.035\]"):
        FilterBankSpec(filters=filters)
    # the one pad, an int: ceil(4 * 0.035 / 0.01) = 15
    assert vfilter.bank_pads(FilterBankSpec(filters=filters[1:]), 12, 0.01,
                             make_grid(4, 4, 0.05, 0.05)) == 15


def test_run_filter_bank_to_routing():
    frames = noise_stack(nt=8, nz=16, nx=16)
    bank = replace(make_bank([1.0], [0.0, math.pi / 2], 0.05), to=T)
    outs = [(gather_frames(out), used_to) for _, _, out, used_to
            in run_filter_bank(frames, bank)]
    lat_spec, ax_spec = bank.filters
    to_frames = apply_to_filter(frames, T)
    want_lat = apply_filter_fft(to_frames, lat_spec)
    want_ax = apply_filter_fft(frames, ax_spec)
    assert np.allclose(outs[0][0].data, want_lat.data, atol=1e-12)
    assert np.allclose(outs[1][0].data, want_ax.data, atol=1e-12)
    assert [used_to for _, used_to in outs] == [True, False]


def to_reference(data, grid, t):
    """TO prefilter by a complex DFT along x, keeping the real part."""
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    return np.fft.ifft(np.fft.fft(data, axis=2) * to_transfer(t, kx),
                       axis=2).real


@pytest.mark.parametrize("boundary", ["pad", "periodic"])
@pytest.mark.parametrize("nt, nz, nx", [(12, 8, 10), (13, 9, 7), (12, 9, 8),
                                        (11, 8, 9)])
def test_fft_paths_match_dft_oracle(nt, nz, nx, boundary):
    # padded nt is nt + 2 ceil(4 sigma_t / dt): same parity as nt; one bank
    # per window width, so two pads; filter 0 is TO-routed, and its output
    # (the TO factor in its gain) is the oracle's prefilter-then-filter
    frames = noise_stack(nt=nt, nz=nz, nx=nx, seed=nt * nz * nx)
    filters = (VelocityFilterSpec(v_f=(0.9, 0.05), sigma_t=0.02),
               VelocityFilterSpec(v_f=(0.7, -0.4), sigma_t=0.02),
               VelocityFilterSpec(v_f=(-0.3, 0.8), sigma_t=0.035),
               VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.035))
    banks = [FilterBankSpec(filters=filters[:2], boundary=boundary, to=T),
             FilterBankSpec(filters=filters[2:], boundary=boundary, to=T)]
    to_data = to_reference(frames.data, frames.grid, T)

    def reference(data, spec):
        pad = math.ceil(4.0 * spec.sigma_t / frames.dt)
        if boundary == "periodic":
            pad = 0
        data = np.pad(data, ((pad, pad), (0, 0), (0, 0)))
        out = dft_filter_reference(data, frames.grid, frames.dt, spec.v_f,
                                   spec.sigma_t)
        return out[pad:pad + nt]

    outs = [o for bank in banks for o in gathered(run_filter_bank(frames,
                                                                  bank))]
    assert [spec for _, spec, *_ in outs] == list(filters)
    assert [used_to for *_, used_to in outs] == [True, False, False, False]
    for (_, spec, out, used_to) in outs:
        src = to_data if used_to else frames.data
        assert out.data.shape == (nt, nz, nx)
        assert np.allclose(out.data, reference(src, spec), rtol=0,
                           atol=1e-12)
    for spec in filters:
        single = apply_filter_fft(frames, spec, boundary=boundary)
        assert np.allclose(single.data, reference(frames.data, spec),
                           rtol=0, atol=1e-12)
    assert np.allclose(apply_to_filter(frames, T).data, to_data, rtol=0,
                       atol=1e-12)


# float32 outputs agree with the float64 run of the same input to this
# fraction of the float64 output's largest magnitude; fixed before any run
F32_RTOL = 1e-5


@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_bank_runs_in_the_input_precision(boundary):
    # filter 0 is TO-routed, filter 1 sees the raw stack
    frames = noise_stack(nt=14, nz=16, nx=12)
    frames.data = frames.data.astype(np.float32)
    wide = FrameStack(frames.grid, frames.nt, frames.dt,
                      frames.data.astype(np.float64))
    bank = replace(make_bank([1.0], [0.0, math.pi / 2], 0.03),
                   boundary=boundary, to=T)
    outs = gathered(run_filter_bank(frames, bank))
    wants = gathered(run_filter_bank(wide, bank))
    assert [o[3] for o in outs] == [w[3] for w in wants] == [True, False]
    for (*_, out, _), (*_, want, _) in zip(outs, wants):
        assert out.data.dtype == np.float32
        assert want.data.dtype == np.float64
        scale = np.abs(want.data).max()
        assert np.abs(out.data - want.data).max() <= F32_RTOL * scale
    assert apply_to_filter(frames, T).data.dtype == np.float32
    assert apply_to_filter(wide, T).data.dtype == np.float64


def test_bank_shares_one_forward_transform_per_source(monkeypatch):
    frames = noise_stack(nt=8, nz=16, nx=16)
    bank = make_bank([1.0], np.radians(np.arange(0, 360, 30)), 0.05)
    calls = []
    compact_spectrum = vfilter._compact_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return compact_spectrum(*args, **kwargs)

    monkeypatch.setattr("velofilt.vfilter._compact_spectrum", counted)
    routed = [used_to for *_, used_to in run_filter_bank(
        frames, replace(bank, to=T))]
    assert routed.count(True) == 2  # headings 0 and 180 degrees
    assert len(calls) == 1  # the TO factor is in the routed gains
    calls.clear()
    assert len(list(run_filter_bank(frames, bank))) == 12
    assert len(calls) == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_compact_spectrum_is_the_rows_of_rfftn(boundary, dtype, monkeypatch):
    # each slab of the forward's spectrum is its kept omega rows of the
    # whole padded rfftn, byte for byte, whether the forward runs on kx
    # blocks of one column, of three (the last one short) or on one block;
    # the kept rows: none, all, one run, a run split by DFT order, and runs
    # with gaps
    nt, nz, nx = 14, 10, 11
    data = noise_stack(nt=nt, nz=nz, nx=nx).data.astype(dtype)
    nt_pad = nt + 2 * 7 * (boundary == "pad")
    nxh = nx // 2 + 1
    want = scipy.fft.rfftn(data, s=(nt_pad, nz, nx))
    xspec = _pocketfft.rfft(data, axis=2)
    before = xspec.copy()
    rng = np.random.default_rng(11)
    for columns in (1, 3, nxh):
        monkeypatch.setattr(vfilter, "_SLAB_ELEMENTS", columns * nt_pad * nz)
        slabs = vfilter._slabs(nt_pad, nz, nxh)
        lives = rng.random((len(slabs), nt_pad)) < 0.4
        lives[0] = False
        lives[-1] = True
        if len(slabs) > 2:
            lives[1] = np.abs(np.fft.fftfreq(nt_pad)) < 0.2
        got = vfilter._compact_spectrum(xspec, lives, slabs, workers=1)
        assert len(got) == len(slabs)
        for (z0, z1), live, rows in zip(slabs, lives, got):
            assert rows.dtype == want.dtype
            assert np.array_equal(rows, want[live, z0:z1]), (columns, z0)
        assert np.array_equal(xspec, before)


def whole_lattice_outputs(frames, bank):
    """Each bank output as the first nt frames of the whole irfftn of the
    rfftn of the padded stack times the whole-lattice gain of the plain
    formula, times to_transfer on kx where the bank reports the filter
    TO-routed, each entry 0 below the smallest normal number of the
    stack's dtype."""
    grid = frames.grid
    pad = math.ceil(4.0 * bank.filters[0].sigma_t / frames.dt)
    shape = (frames.nt + 2 * pad * (bank.boundary == "pad"), grid.nz,
             grid.nx)
    spectrum = scipy.fft.rfftn(frames.data, s=shape)
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)[:grid.nx // 2 + 1]
    tiny = np.finfo(frames.data.dtype).tiny
    outs = []
    for _, fspec, _, used_to in run_filter_bank(frames, bank):
        gain = velocity_gain_ref(shape[0], frames.dt, grid.nz, grid.dz,
                                 grid.nx, grid.dx, fspec.v_f, fspec.sigma_t,
                                 math.log(tiny))
        if used_to:
            gain *= to_transfer(bank.to, kx)
            gain[gain < tiny] = 0.0
        outs.append(trimmed_irfftn_ref(
            spectrum * gain.astype(spectrum.real.dtype), shape, (0, 1, 2),
            (slice(frames.nt), slice(None), slice(None))))
    return outs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_bank_output_is_the_trimmed_whole_inverse(boundary, dtype):
    # each output is byte for byte the first nt frames of the whole
    # irfftn of the filtered padded spectrum (filter 0 is TO-routed)
    frames = noise_stack(nt=14, nz=16, nx=11)
    frames.data = frames.data.astype(dtype)
    bank = replace(make_bank([1.0], [0.0, math.pi / 2, 2.0], 0.03),
                   boundary=boundary, to=T)
    wants = whole_lattice_outputs(frames, bank)
    outs = gathered(run_filter_bank(frames, bank))
    assert outs[0][3] and len(outs) == len(wants) == 3
    for (*_, out, _), want in zip(outs, wants):
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, want)


# v_f = 0; the TO-routed member; negative components; a wide window
# with few live rows; a fast filter that reaches no row of some slabs;
# a narrow window with every row live. One bank per window width.
BOUND_FILTERS = (
    VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=0.5),
    VelocityFilterSpec(v_f=(1.0, 0.0), sigma_t=0.1),
    VelocityFilterSpec(v_f=(-0.6, -0.8), sigma_t=0.3),
    VelocityFilterSpec(v_f=(0.3, 2.0), sigma_t=2.0),
    VelocityFilterSpec(v_f=(40.0, -30.0), sigma_t=0.1),
    VelocityFilterSpec(v_f=(0.5, -0.5), sigma_t=0.02))
BOUND_BANKS = [FilterBankSpec(filters=tuple(
    f for f in BOUND_FILTERS if f.sigma_t == width))
    for width in dict.fromkeys(f.sigma_t for f in BOUND_FILTERS)]
# two filters on one spectrum whose passbands reach disjoint omega rows of
# the kz rows +-1, so the rows the spectrum keeps there have a gap
GAP_BANK = FilterBankSpec(filters=(
    VelocityFilterSpec(v_f=(0.0, 0.0), sigma_t=1.0),
    VelocityFilterSpec(v_f=(0.0, 15.0), sigma_t=1.0)))


def assert_outputs_are_whole_inverses(frames, bank, routes, monkeypatch):
    """The bank's outputs, in slabs of one kz row and in one slab, are each
    the trimmed whole inverse of the whole-lattice product."""
    wants = whole_lattice_outputs(frames, bank)
    for budget in (1, vfilter._SLAB_ELEMENTS):
        monkeypatch.setattr(vfilter, "_SLAB_ELEMENTS", budget)
        outs = gathered(run_filter_bank(frames, bank))
        assert [used_to for *_, used_to in outs] == routes
        for (*_, out, _), want in zip(outs, wants, strict=True):
            assert out.data.dtype == frames.data.dtype
            assert np.array_equal(out.data, want), budget


@pytest.mark.parametrize("sizes", [(20, 16, 11), (19, 15, 12)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_row_bound_leaves_bank_outputs_unchanged(sizes, boundary, dtype,
                                                 monkeypatch):
    # the bank keeps and multiplies only the omega rows the bound keeps,
    # yet each output is the trimmed whole inverse of the whole-lattice
    # product
    nt, nz, nx = sizes
    frames = noise_stack(nt=nt, nz=nz, nx=nx, dt=0.02)
    frames.data = frames.data.astype(dtype)
    assert sum(len(bank) for bank in BOUND_BANKS) == len(BOUND_FILTERS)
    for bank in BOUND_BANKS:
        assert_outputs_are_whole_inverses(
            frames, replace(bank, boundary=boundary, to=T),
            [f is BOUND_FILTERS[1] for f in bank.filters], monkeypatch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_kept_rows_with_a_gap_leave_bank_outputs_unchanged(boundary, dtype,
                                                           monkeypatch):
    # on kz row 1 each filter of GAP_BANK reaches one run of omega rows in
    # frequency order and the rows their spectrum keeps fall in two
    for nt, nz, nx in [(20, 16, 11), (19, 15, 12)]:
        frames = noise_stack(nt=nt, nz=nz, nx=nx, dt=0.02)
        frames.data = frames.data.astype(dtype)
        nt_pad = nt + 2 * 200 * (boundary == "pad")
        lives = [vfilter._row_bound(frames.grid, nt_pad, frames.dt, f, dtype,
                                    [(0, 1), (1, 2), (2, nz)])[1]
                 for f in GAP_BANK.filters]
        runs = [vfilter._runs(np.fft.fftshift(live))
                for live in lives + [lives[0] | lives[1]]]
        assert [len(r) for r in runs] == [1, 1, 2]
        assert_outputs_are_whole_inverses(
            frames, replace(GAP_BANK, boundary=boundary, to=T),
            [False, False], monkeypatch)


# (nt, nz, nx): the padded nt has nt's parity (pad and periodic alike)
@pytest.mark.parametrize("sizes", [(14, 16, 11), (13, 15, 12), (12, 10, 10)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("boundary", ["pad", "periodic"])
def test_slab_size_leaves_bank_outputs_unchanged(sizes, boundary, dtype,
                                                 monkeypatch):
    # slabs of one kz row, slabs whose first and whose last row is the
    # z-Nyquist row, and one slab for all rows give the whole-lattice bytes,
    # on one worker and on two (filter 0 is TO-routed)
    nt, nz, nx = sizes
    frames = noise_stack(nt=nt, nz=nz, nx=nx)
    frames.data = frames.data.astype(dtype)
    bank = replace(make_bank([1.0], [0.0, math.pi / 2, 2.0], 0.03),
                   boundary=boundary, to=T)
    wants = whole_lattice_outputs(frames, bank)
    pad = math.ceil(4.0 * 0.03 / frames.dt) * (boundary == "pad")
    row = (nt + 2 * pad) * (nx // 2 + 1)
    for rows in (1, nz // 2, nz // 2 + 1, nz):
        # the budget's remainder below one more row must not matter
        monkeypatch.setattr(vfilter, "_SLAB_ELEMENTS", rows * row + row - 1)
        for workers in (1, 2):
            outs = gathered(run_filter_bank(frames, bank, workers=workers))
            assert outs[0][3] and len(outs) == 3
            for (*_, out, _), want in zip(outs, wants):
                assert out.data.dtype == dtype
                assert np.array_equal(out.data, want), (rows, workers)


def reached_spectrum(bank, nt_pad, dt, grid) -> int:
    """Elements of the rfftn half lattice of an (nt_pad, nz, nx) stack on
    the omega rows some filter of the bank reaches in each kz slab, in
    float32 (reached_rows)."""
    slabs = vfilter._slabs(nt_pad, grid.nz, grid.nx // 2 + 1)
    rows = reached_rows(nt_pad, dt, grid.nz, grid.dz, grid.nx, grid.dx,
                        bank.filters, vfilter._exp_floor(np.float32), slabs)
    return sum(n * (z1 - z0) for n, (z0, z1) in zip(rows, slabs)) * (
        grid.nx // 2 + 1)


def _bank_pass_peak(consume) -> tuple[int, int]:
    """(traced peak, budget) of consume(frames, bank) on axial-pre's
    geometry in float32: a (350, 96, 49) half lattice. One pass of a
    five-filter bank may hold the input, which an in-memory caller holds,
    the shared spectrum's rows that some filter reaches in each slab (the
    oracle's, 3.8 MB of the whole spectrum's 13.2 MB), the kept frames'
    half spectrum, two slab budgets (the float64 gain and the complex64
    product of one slab) and one block of an output. A whole padded
    spectrum, a full-lattice gain or work buffer, or a whole output, is
    outside it."""
    nt, nz, nx = 150, 96, 96
    bank = make_bank([0.1, 0.3, 0.5, 0.7, 0.9], [math.pi / 2], 0.5)
    tracemalloc.start()
    try:
        rng = np.random.default_rng(5)
        frames = FrameStack(grid=make_grid(nx, nz, 0.05, 0.05), nt=nt,
                            dt=0.02, data=rng.standard_normal(
                                (nt, nz, nx), dtype=np.float32))
        consume(frames, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nt_pad = nt + 2 * math.ceil(4.0 * 0.5 / 0.02)
    assert nt_pad == 350
    half = nz * (nx // 2 + 1)
    budget = (4 * nt * nz * nx  # input
              + 8 * reached_spectrum(bank, nt_pad, 0.02, make_grid(
                  nx, nz, 0.05, 0.05))  # shared spectrum's reached rows
              + 8 * nt * half  # kept frames
              + 2 * 8 * vfilter._SLAB_ELEMENTS
              + 4 * STREAM_BLOCK)  # one output block
    return peak, budget


# slack for the gain's mask, its Nyquist planes and small temporaries
BANK_SLACK = 2**20


def drain(frames, bank):
    """Run the bank and fill each output into a sink that drops it."""
    for *_, out, _ in run_filter_bank(frames, bank):
        out.fill(lambda block: None)


def test_bank_pass_memory_budget():
    peak, budget = _bank_pass_peak(drain)
    assert peak <= budget + BANK_SLACK, (peak, budget)


@pytest.mark.parametrize("consumer", ["save_bank_outputs", "run_pipeline"])
def test_bank_consumers_hold_one_output(consumer, tmp_path):
    # each consumer takes an output block by block as the bank hands it
    # over, so a pass holds no whole output (5.5 MB here). run_pipeline's
    # detection runs on a few frames after the bank's slab work is freed,
    # so the budget holds it.
    consume = {
        "save_bank_outputs": lambda frames, bank: save_bank_outputs(
            frames, bank, tmp_path),
        "run_pipeline": lambda frames, bank: run_pipeline(frames, bank, P),
    }[consumer]
    peak, budget = _bank_pass_peak(consume)
    assert peak <= budget + BANK_SLACK, (peak, budget)


def test_bank_outputs_do_not_alias_its_work_buffer():
    # the complex passes run in place in a buffer the next filter refills:
    # an output gathered while the bank goes on must not change
    frames = noise_stack(nt=10, nz=12, nx=12)
    frames.data = frames.data.astype(np.float32)
    bank = replace(make_bank([0.5, 1.0], np.radians([0, 90, 200]), 0.03),
                   to=T)
    one_at_a_time = []
    for *_, out, _ in run_filter_bank(frames, bank):
        one_at_a_time.append(gather_frames(out).data.copy())
    kept = [out.data for *_, out, _ in gathered(
        run_filter_bank(frames, bank))]
    assert len(kept) == len(one_at_a_time) == 6
    for i, data in enumerate(kept):
        assert not any(np.shares_memory(data, later)
                       for later in kept[i + 1:])
        assert np.array_equal(data, one_at_a_time[i])


def test_bank_output_used_after_the_bank_moves_on_raises():
    # an output reads the buffer the next filter refills: once the bank
    # has moved on, it must raise, not hand over the next filter's frames
    frames = noise_stack(nt=10, nz=12, nx=12)
    bank = make_bank([0.5, 1.0], [0.0], 0.03)
    outputs = run_filter_bank(frames, bank)
    _, _, first, _ = next(outputs)
    want = gather_frames(first).data
    # valid, and the same, as often as it is used before the bank moves on
    assert np.array_equal(gather_frames(first).data, want)
    _, _, second, _ = next(outputs)
    with pytest.raises(RuntimeError, match="after the bank moved on"):
        gather_frames(first)
    assert not np.array_equal(gather_frames(second).data, want)
    # the last output too, once the bank is done
    assert next(outputs, None) is None
    with pytest.raises(RuntimeError, match="after the bank moved on"):
        gather_frames(second)


def test_save_bank_outputs_roundtrip(tmp_path):
    frames = noise_stack(nt=6, nz=8, nx=8)
    bank = replace(make_bank([0.5], [0.0, math.pi / 2], 0.03), to=T)
    paths = save_bank_outputs(frames, bank, tmp_path)
    # every file written is returned, the manifest last
    assert sorted(paths) == sorted(tmp_path.iterdir())
    assert paths[-1] == tmp_path / "bank_manifest.json"
    manifest = json.loads(paths[-1].read_text())
    assert manifest["n_filters"] == 2
    assert manifest["boundary"] == "pad"
    assert manifest["to"] == {"lambda_x_mm": 0.6, "sigma_x_mm": 0.3}
    assert [e["index"] for e in manifest["outputs"]] == [0, 1]
    assert manifest["outputs"][0]["to_prefilter"] is True
    assert manifest["outputs"][1]["to_prefilter"] is False
    # stored stacks match a fresh in-memory run at float32 precision
    outs = run_filter_bank(frames, bank)
    for entry, (_, _, want, _) in zip(manifest["outputs"], outs):
        got = gather_frames(load_frame_stack(
            tmp_path / f"filtered_{entry['index']:03d}"))
        assert np.allclose(got.data, gather_frames(want).data, atol=1e-6)


def test_save_bank_outputs_names_the_failed_filter(tmp_path, monkeypatch):
    frames = noise_stack(nt=6, nz=8, nx=8)
    bank = make_bank([0.5], [0.0, math.pi / 2], 0.03)
    def save_once(stack, base):
        if base.name == "filtered_001":
            raise OSError("disk full")
        return save_frame_stack(stack, base)

    monkeypatch.setattr("velofilt.vfilter.save_frame_stack", save_once)
    with pytest.raises(OSError, match="filter 1 .*disk full"):
        save_bank_outputs(frames, bank, tmp_path)


@pytest.mark.parametrize("source", ["stack", "stream"])
def test_bank_refuses_a_non_finite_input_block(tmp_path, source):
    # an in-memory float32 stack with one NaN used to be filtered into
    # all-NaN outputs and a bank_manifest.json, with no error: the bank
    # checks each block it reads, whatever its source, and names the sample
    frames = noise_stack(nt=6, nz=8, nx=8)
    frames.data = frames.data.astype(np.float32)
    frames.data[3, 5, 7] = np.nan
    if source == "stream":
        # blocks of two frames: the sample sits in the second block
        data = frames.data
        frames = FrameStream(frames.grid, 6, frames.dt, lambda append: [
            append(data[t:t + 2]) for t in range(0, 6, 2)])
    bank = make_bank([0.5], [0.0, math.pi / 2], 0.03)
    where = r"\(t, z, x\) = \(3, 5, 7\)"
    with pytest.raises(ValueError, match=where):
        save_bank_outputs(frames, bank, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match=where):
        next(run_filter_bank(frames, bank))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), vfx=st.floats(-2.0, 2.0),
       vfz=st.floats(-2.0, 2.0))
def test_filter_never_gains_energy(seed, vfx, vfz):
    frames = noise_stack(nt=8, nz=6, nx=6, seed=seed)
    out = apply_filter_fft(frames, VelocityFilterSpec(v_f=(vfx, vfz),
                                                      sigma_t=0.03),
                           boundary="periodic")
    assert (out.data**2).sum() <= (frames.data**2).sum() * (1 + 1e-12)
