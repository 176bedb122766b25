import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from velofilt.core import FrameStack, make_grid
from velofilt.localize import (AccumulatedMap, DetectorConfig, Localization,
                               accumulate, detect, load_localizations_csv,
                               localize_frames, make_fine_grid,
                               matched_filter_map, psf_template, run_pipeline,
                               save_localizations_csv, segment_support,
                               template_autocorr_peak, velocity_map_from_locs)
from velofilt.psf import PsfParams, ToParams, autocorr_theory, render_psf
from velofilt.vfilter import apply_filter_fft, apply_to_filter, make_bank

P = PsfParams(sigma_r=0.3, wavelength=0.3)
GRID = make_grid(65, 65, 0.05, 0.05)


def one_bubble_corr(center, mode="pre"):
    frame = render_psf(P, GRID, mode=mode, center=center)
    return matched_filter_map(frame, GRID, P, mode=mode)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(threshold_fraction=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(threshold_fraction=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(min_separation=-0.1)


def test_template_is_centered_and_odd():
    tpl = psf_template(GRID, P, mode="post")
    assert tpl.shape[0] % 2 == 1 and tpl.shape[1] % 2 == 1
    assert tpl.argmax() == tpl.size // 2
    assert tpl.max() == pytest.approx(P.g_e_peak)


def test_template_clamped_to_frame():
    tiny = make_grid(9, 9, 0.05, 0.05)
    tpl = psf_template(tiny, P)
    assert tpl.shape == (9, 9)


def test_template_autocorr_peak_matches_closed_form():
    tpl = psf_template(GRID, P, mode="pre")
    # Riemann sum over the 4 sigma support vs the analytic peak
    assert template_autocorr_peak(tpl, GRID) == pytest.approx(
        autocorr_theory(P).autocorr_peak, rel=1e-3)


def test_matched_filter_map_peak_location_and_size_check():
    corr = one_bubble_corr((0.0, 0.0))
    iz, ix = np.unravel_index(corr.argmax(), corr.shape)
    assert (iz, ix) == (GRID.nz // 2, GRID.nx // 2)
    assert corr.max() == pytest.approx(autocorr_theory(P).autocorr_peak,
                                       rel=1e-3)
    with pytest.raises(ValueError):
        matched_filter_map(np.zeros((5, 5)), make_grid(5, 5, 0.05, 0.05), P,
                           template=np.ones((9, 9)))


def test_detect_subpixel_accuracy():
    truth = (0.1037, -0.0713)   # deliberately off-pixel
    corr = one_bubble_corr(truth)
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(), peak, wavelength=P.wavelength)
    assert len(locs) == 1
    assert locs[0].pos[0] == pytest.approx(truth[0], abs=2e-3)
    assert locs[0].pos[1] == pytest.approx(truth[1], abs=2e-3)
    assert locs[0].score > 0.9 * peak


def test_detect_without_subpixel_snaps_to_grid():
    corr = one_bubble_corr((0.1037, -0.0713))
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(subpixel=False), peak,
                  wavelength=P.wavelength)
    x, z = locs[0].pos
    assert (x - GRID.x0) / GRID.dx == pytest.approx(round((x - GRID.x0)
                                                          / GRID.dx))
    assert (z - GRID.z0) / GRID.dz == pytest.approx(round((z - GRID.z0)
                                                          / GRID.dz))


def test_default_separation_suppresses_carrier_replicas():
    # signed pre-mode correlation has axial replica maxima at +- wavelength
    # (relative height exp(-lambda^2 / 4 sigma_r^2) = 0.78 here, above the
    # 0.5 threshold); the default radius removes them
    corr = one_bubble_corr((0.0, 0.0))
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(), peak, wavelength=P.wavelength)
    assert len(locs) == 1
    tight = detect(corr, GRID, DetectorConfig(min_separation=0.05 * P.wavelength),
                   peak, wavelength=P.wavelength)
    assert len(tight) >= 3
    # the replicas sit one wavelength up and down the axis
    zs = sorted(loc.pos[1] for loc in tight)
    assert zs[0] == pytest.approx(-P.wavelength, abs=0.02)
    assert zs[-1] == pytest.approx(P.wavelength, abs=0.02)


def test_detect_validation():
    corr = one_bubble_corr((0.0, 0.0))
    with pytest.raises(ValueError):
        detect(corr, GRID, DetectorConfig(), 0.0, wavelength=P.wavelength)
    with pytest.raises(ValueError):
        detect(corr, GRID, DetectorConfig(), 1.0)   # no separation, no wavelength


def test_detect_two_bubbles():
    frame = (render_psf(P, GRID, center=(-0.7, -0.5))
             + render_psf(P, GRID, center=(0.7, 0.6)))
    corr = matched_filter_map(frame, GRID, P)
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(), peak, wavelength=P.wavelength)
    assert len(locs) == 2
    xs = sorted(loc.pos[0] for loc in locs)
    assert xs[0] == pytest.approx(-0.7, abs=5e-3)
    assert xs[1] == pytest.approx(0.7, abs=5e-3)


def test_make_fine_grid_preserves_extent():
    fine = make_fine_grid(GRID, 4)
    assert fine.nx == 4 * GRID.nx and fine.nz == 4 * GRID.nz
    assert fine.dx == pytest.approx(GRID.dx / 4)
    # outer edges coincide
    assert fine.x0 - fine.dx / 2 == pytest.approx(GRID.x0 - GRID.dx / 2)
    x_end_fine = fine.x0 + fine.dx * (fine.nx - 1) + fine.dx / 2
    x_end = GRID.x0 + GRID.dx * (GRID.nx - 1) + GRID.dx / 2
    assert x_end_fine == pytest.approx(x_end)
    same = make_fine_grid(GRID, 1)
    assert same.nx == GRID.nx and same.x0 == pytest.approx(GRID.x0)
    with pytest.raises(ValueError):
        make_fine_grid(GRID, 0)


def test_accumulate_counts_and_order_independence():
    fine = make_fine_grid(GRID, 2)
    rng = np.random.default_rng(0)
    locs = [Localization(t_index=0, pos=(x, z), score=1.0)
            for x, z in rng.uniform(-1.5, 1.5, size=(40, 2))]
    acc = accumulate(locs, fine)
    assert acc.total == 40
    shuffled = list(locs)
    rng.shuffle(shuffled)
    acc2 = accumulate(shuffled, fine)
    assert np.array_equal(acc.counts, acc2.counts)
    # nested per-frame lists are accepted too
    acc3 = accumulate([locs[:10], locs[10:]], fine)
    assert np.array_equal(acc.counts, acc3.counts)


def test_accumulate_drops_out_of_grid():
    fine = make_fine_grid(GRID, 1)
    locs = [Localization(t_index=0, pos=(99.0, 0.0), score=1.0),
            Localization(t_index=0, pos=(0.0, 0.0), score=1.0)]
    acc = accumulate(locs, fine)
    assert acc.total == 1


def test_accumulated_map_validation():
    fine = make_fine_grid(GRID, 1)
    with pytest.raises(ValueError):
        AccumulatedMap(grid=fine, counts=np.zeros((fine.nz, fine.nx),
                                                  dtype=np.int64), total=5)


def test_velocity_map_keeps_fastest_tag():
    fine = make_fine_grid(GRID, 1)
    here = (0.0, 0.0)
    locs = [Localization(0, here, 1.0, v_tag=(1.0, 0.0)),
            Localization(1, here, 1.0, v_tag=(0.0, 3.0)),
            Localization(2, here, 1.0, v_tag=(2.0, 0.0)),
            Localization(3, here, 1.0, v_tag=None)]
    vmap = velocity_map_from_locs(locs, fine)
    iz, ix = fine.nz // 2, fine.nx // 2
    assert vmap.speed[iz, ix] == pytest.approx(3.0)
    assert vmap.vz[iz, ix] == pytest.approx(3.0)
    assert vmap.vx[iz, ix] == pytest.approx(0.0)
    assert vmap.speed.sum() == pytest.approx(3.0)   # single occupied pixel


def test_segment_support_closing():
    fine = make_fine_grid(make_grid(33, 33, 0.05, 0.05), 1)
    # a thick band with a one-pixel vertical slit knocked out
    locs = [Localization(0, (fine.x0 + i * fine.dx, fine.z0 + j * fine.dz),
                         1.0)
            for i in range(5, 28) if i != 16 for j in range(14, 19)]
    acc = accumulate(locs, fine)
    occupied = acc.counts > 0
    mask = segment_support(acc, closing_radius_px=2)
    assert mask[16, 16]                       # slit filled
    assert np.all(mask[occupied])             # closing never removes pixels
    # radius < 1 and empty masks pass through untouched
    assert np.array_equal(segment_support(acc, closing_radius_px=0), occupied)
    empty = accumulate([], fine)
    assert not segment_support(empty).any()


def test_localize_frames_on_static_stack():
    frame = render_psf(P, GRID, center=(0.2, 0.1))
    frames = FrameStack(grid=GRID, nt=3, dt=0.01,
                        data=np.repeat(frame[None], 3, axis=0))
    per_frame = localize_frames(frames, P)
    assert [len(f) for f in per_frame] == [1, 1, 1]
    assert per_frame[1][0].t_index == 1
    assert per_frame[0][0].v_tag is None
    assert per_frame[0][0].pos[0] == pytest.approx(0.2, abs=2e-3)
    with pytest.raises(ValueError):
        localize_frames(frames, P, mode="to")


def test_post_mode_envelope_detection():
    # carrier stripped: even a tight separation radius finds no replicas
    frame = render_psf(P, GRID, mode="pre", center=(0.0, 0.0))
    frames = FrameStack(grid=GRID, nt=1, dt=0.01, data=frame[None])
    per_frame = localize_frames(
        frames, P, cfg=DetectorConfig(min_separation=0.05 * P.wavelength),
        mode="post")
    assert len(per_frame[0]) == 1
    assert per_frame[0][0].pos[0] == pytest.approx(0.0, abs=2e-3)
    assert per_frame[0][0].pos[1] == pytest.approx(0.0, abs=2e-3)


def test_run_pipeline_single_bubble_static():
    frame = render_psf(P, GRID, center=(0.15, -0.2))
    frames = FrameStack(grid=GRID, nt=6, dt=0.01,
                        data=np.repeat(frame[None], 6, axis=0))
    bank = make_bank([0.0], [0.0], sigma_t=0.02)
    res = run_pipeline(frames, bank, P)
    assert all(len(f) == 1 for f in res.per_frame)
    loc = res.per_frame[3][0]
    assert loc.v_tag == (0.0, 0.0)
    assert loc.pos[0] == pytest.approx(0.15, abs=2e-3)
    assert res.acc.grid.nx == 4 * GRID.nx
    assert res.acc.total == 6
    # a zero-speed tag draws an empty velocity map
    assert res.vmap.speed.max() == 0.0
    with pytest.raises(ValueError):
        run_pipeline(frames, bank, P, mode="to")


def test_run_pipeline_merges_duplicate_filters():
    # two identical filters double-detect every bubble; the merge keeps one
    # (edge frames lose window mass to the temporal pad, so check the middle)
    frame = render_psf(P, GRID, center=(0.0, 0.0))
    frames = FrameStack(grid=GRID, nt=6, dt=0.01,
                        data=np.repeat(frame[None], 6, axis=0))
    bank = make_bank([0.0, 0.0], [0.0], sigma_t=0.01)
    assert len(bank) == 2
    res = run_pipeline(frames, bank, P)
    assert len(res.per_frame[2]) == 1
    assert len(res.per_frame[3]) == 1


def test_localizations_csv_roundtrip(tmp_path):
    locs = [Localization(0, (0.123456789, -0.5), 1.5, v_tag=(1.0, -2.0)),
            Localization(3, (0.0, 0.25), 0.75, v_tag=None)]
    path = save_localizations_csv(locs, tmp_path / "locs.csv")
    back = load_localizations_csv(path)
    assert len(back) == 2
    assert back[0].t_index == 0 and back[1].t_index == 3
    assert back[0].pos[0] == pytest.approx(0.123456789, rel=1e-8)
    assert back[0].v_tag == (1.0, -2.0)
    assert back[1].v_tag is None
    assert back[1].score == pytest.approx(0.75)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 60),
       factor=st.integers(1, 5))
def test_accumulate_total_counts_in_grid_points(seed, n, factor):
    rng = np.random.default_rng(seed)
    fine = make_fine_grid(GRID, factor)
    pts = rng.uniform(-2.5, 2.5, size=(n, 2))
    locs = [Localization(0, (x, z), 1.0) for x, z in pts]
    acc = accumulate(locs, fine)
    half_x = GRID.dx / 2
    half_z = GRID.dz / 2
    lo_x, hi_x = GRID.x0 - half_x, GRID.x0 + GRID.dx * (GRID.nx - 1) + half_x
    lo_z, hi_z = GRID.z0 - half_z, GRID.z0 + GRID.dz * (GRID.nz - 1) + half_z
    inside = ((pts[:, 0] >= lo_x) & (pts[:, 0] < hi_x)
              & (pts[:, 1] >= lo_z) & (pts[:, 1] < hi_z))
    assert acc.total == int(inside.sum())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_velocity_map_speed_consistent_with_components(seed):
    rng = np.random.default_rng(seed)
    fine = make_fine_grid(GRID, 2)
    locs = [Localization(0, tuple(rng.uniform(-1, 1, 2)), 1.0,
                         v_tag=tuple(rng.normal(size=2)))
            for _ in range(25)]
    vmap = velocity_map_from_locs(locs, fine)
    assert np.allclose(vmap.speed, np.hypot(vmap.vx, vmap.vz), atol=1e-12)


def _two_mover_stack(nt=10, dt=0.01):
    """A lateral and an axial mover at 1 mm/s, rendered analytically."""
    t0 = (nt - 1) / 2 * dt
    data = np.stack([
        render_psf(P, GRID, center=(k * dt - t0, -0.6))
        + render_psf(P, GRID, center=(0.5, 0.4 + (k * dt - t0)))
        for k in range(nt)])
    return FrameStack(grid=GRID, nt=nt, dt=dt, data=data)


@pytest.mark.parametrize("angle, routed", [(0.0, True),
                                           (math.pi / 2, False)])
def test_run_pipeline_to_routing_matches_public_chain(angle, routed):
    # a lateral filter sees the TO-prefiltered stack and the TO template with
    # no envelope step; any other filter keeps the post-mode envelope chain
    frames = _two_mover_stack()
    to = ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=P.sigma_r)
    bank = make_bank([1.0], [angle], sigma_t=0.02)
    fspec = bank.filters[0]
    cfg = DetectorConfig()
    res = run_pipeline(frames, bank, P, cfg=cfg, mode="post", to_params=to)

    if routed:
        data = apply_filter_fft(apply_to_filter(frames, to), fspec).data
        tpl = psf_template(GRID, P, mode="to", to=to)
    else:
        data = apply_filter_fft(frames, fspec).data
        data = np.abs(scipy.signal.hilbert(data, axis=1))
        tpl = psf_template(GRID, P, mode="post")
    peak = template_autocorr_peak(tpl, GRID)
    want = [detect(matched_filter_map(data[t], GRID, P, template=tpl), GRID,
                   cfg, peak, t_index=t, v_tag=fspec.v_f,
                   wavelength=P.wavelength)
            for t in range(frames.nt)]

    def key(loc):
        return (loc.t_index, loc.pos, loc.score)

    assert sum(map(len, want)) >= frames.nt
    for got_t, want_t in zip(res.per_frame, want):
        assert sorted(got_t, key=key) == sorted(want_t, key=key)
