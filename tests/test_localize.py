import csv
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from closed_forms import autocorr_peak
from oracles import (accumulate_loop, disk_closing, local_max_candidates,
                     merge_frame_loop, quadratic_offset_lstsq,
                     replica_reach_ref, suppress_loop, synthesize_stack,
                     velocity_map_loop)
from velofilt import _pocketfft, localize
from velofilt.core import (FrameStack, gather_frames, make_fine_grid,
                           make_grid)
from velofilt.localize import (LOC_DTYPE, AccumulatedMap, DetectorConfig,
                               _QUAD_FIT, _envelope_z, _padded_shape,
                               _quadratic_offsets, _suppress,
                               _template_spectrum,
                               accumulate, detect, load_localizations_csv,
                               localize_frames, matched_filter_map,
                               merge_candidates, psf_template, run_pipeline,
                               save_localizations_csv, segment_support,
                               template_autocorr_peak, velocity_map_from_locs)
from velofilt.phantom import from_plane
from velofilt.psf import PsfParams, ToParams, autocorr_theory, render_psf
from velofilt.vfilter import apply_filter_fft, make_bank, run_filter_bank

P = PsfParams(sigma_r=0.3, wavelength=0.3)
GRID = make_grid(65, 65, 0.05, 0.05)
NAN = math.nan


def table(rows):
    """Localization table from (t, x, z, score, vx, vz) tuples."""
    return np.array(rows, dtype=LOC_DTYPE)


def one_bubble_corr(center, mode="pre"):
    frame = render_psf(P, GRID, mode=mode, center=center)
    return matched_filter_map(frame, GRID, psf_template(GRID, P, mode=mode))


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(threshold_fraction=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(threshold_fraction=1.0)
    # "to" is the chain of a TO-routed filter, not a mode of its own
    for mode in ("to", "envelope"):
        with pytest.raises(ValueError, match="detection mode"):
            DetectorConfig(mode=mode)


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
        autocorr_peak(autocorr_theory(P)), rel=1e-3)


def test_matched_filter_map_peak_location_and_size_check():
    corr = one_bubble_corr((0.0, 0.0))
    iz, ix = np.unravel_index(corr.argmax(), corr.shape)
    assert (iz, ix) == (GRID.nz // 2, GRID.nx // 2)
    assert corr.max() == pytest.approx(autocorr_peak(autocorr_theory(P)),
                                       rel=1e-3)
    with pytest.raises(ValueError):
        matched_filter_map(np.zeros((5, 5)), make_grid(5, 5, 0.05, 0.05),
                           np.ones((9, 9)))


def test_detect_subpixel_accuracy():
    truth = (0.1037, -0.0713)   # deliberately off-pixel
    corr = one_bubble_corr(truth)
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(), peak, 1.05 * P.wavelength)
    assert len(locs) == 1
    assert locs["x"][0] == pytest.approx(truth[0], abs=2e-3)
    assert locs["z"][0] == pytest.approx(truth[1], abs=2e-3)
    assert locs["score"][0] > 0.9 * peak


def test_quadratic_offset_matches_lstsq_fit():
    rng = np.random.default_rng(11)
    u = np.array([-1.0, 0.0, 1.0])
    x, z = np.meshgrid(u, u)
    ux, uz = x.ravel(), z.ravel()
    design = np.column_stack([np.ones(9), ux, uz, ux**2, uz**2, ux * uz])
    assert np.allclose(_QUAD_FIT, np.linalg.pinv(design), rtol=0,
                       atol=1e-14)
    truth, patches = [], []
    for _ in range(500):
        # a peaked quadratic with a known stationary point, plus noise ...
        x0, z0 = rng.uniform(-0.45, 0.45, size=2)
        ax, az = rng.uniform(0.2, 3.0, size=2)
        peak = -(ax * (x - x0) ** 2 + az * (z - z0) ** 2)
        truth.append((x0, z0))
        # ... and arbitrary patches: saddles, minima, clipped offsets
        patches += [peak, peak + 0.05 * rng.normal(size=(3, 3)),
                    rng.normal(size=(3, 3))]
    patches = np.reshape(patches, (-1, 9))
    dx, dz = _quadratic_offsets(patches)
    got = np.column_stack([dx, dz])
    assert np.allclose(got[::3], truth, rtol=0, atol=1e-12)
    want = [quadratic_offset_lstsq(p.reshape(3, 3)) for p in patches]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # a row's offsets do not depend on the rest of the batch
    for k, patch in enumerate(patches):
        alone = np.column_stack(_quadratic_offsets(patch[None]))
        assert alone.tobytes() == got[k:k + 1].tobytes()


def test_detect_without_subpixel_snaps_to_grid():
    corr = one_bubble_corr((0.1037, -0.0713))
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(subpixel=False), peak,
                  1.05 * P.wavelength)
    x, z = locs["x"][0], locs["z"][0]
    assert (x - GRID.x0) / GRID.dx == pytest.approx(round((x - GRID.x0)
                                                          / GRID.dx))
    assert (z - GRID.z0) / GRID.dz == pytest.approx(round((z - GRID.z0)
                                                          / GRID.dz))


def test_default_separation_suppresses_carrier_replicas():
    # signed pre-mode correlation has axial replica maxima at +- wavelength
    # (relative height exp(-lambda^2 / 4 sigma_r^2) = 0.78 here, above the
    # 0.5 threshold); the default radius removes them
    corr = one_bubble_corr((0.0, 0.0))
    chain = localize._chain(GRID, P, DetectorConfig())
    assert chain.radius == 1.05 * P.wavelength
    locs = detect(corr, GRID, DetectorConfig(), chain.peak, chain.radius)
    assert len(locs) == 1
    tight = detect(corr, GRID, DetectorConfig(), chain.peak,
                   0.05 * P.wavelength)
    assert len(tight) >= 3
    # the replicas sit one wavelength up and down the axis
    zs = np.sort(tight["z"])
    assert zs[0] == pytest.approx(-P.wavelength, abs=0.02)
    assert zs[-1] == pytest.approx(P.wavelength, abs=0.02)


@pytest.mark.parametrize("d", [0.05, 0.1])
@pytest.mark.parametrize("threshold", [0.3, 0.35, 0.4, 0.5, 0.7])
@pytest.mark.parametrize("mode, to", [
    ("pre", None), ("post", None),
    ("post", ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=P.sigma_r))],
    ids=["pre", "post", "to"])
def test_chain_radius_clears_every_replica(d, threshold, mode, to):
    # 1.05 times the farthest autocorrelation maximum above the threshold,
    # or the wavelength itself, bit for bit, when no replica reaches past
    # it
    grid = make_grid(64, 64, d, d)
    cfg = DetectorConfig(threshold_fraction=threshold, mode=mode)
    chain = localize._chain(grid, P, cfg, to)
    reach = replica_reach_ref(chain.template, d, d, threshold * chain.peak)
    if reach > P.wavelength * (1 + 1e-9):
        assert chain.radius == pytest.approx(1.05 * reach, rel=1e-12)
    else:
        assert chain.radius == 1.05 * P.wavelength


def test_chain_radius_at_threshold_0_35():
    # the TO template's off-axis maxima at threshold 0.35; the pre
    # template's 2 lambda replica clears 0.35 (exp(-1) = 0.37) but not 0.4
    to = ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=P.sigma_r)
    for d, reach in [(0.05, 0.711), (0.1, 0.600)]:
        grid = make_grid(64, 64, d, d)
        chain = localize._chain(grid, P, DetectorConfig(
            threshold_fraction=0.35), to)
        assert chain.radius == pytest.approx(1.05 * reach, abs=1e-3)
        assert not chain.envelope
    pre = [localize._chain(GRID, P, DetectorConfig(threshold_fraction=f))
           for f in (0.35, 0.4)]
    assert pre[0].radius == pytest.approx(1.05 * 2 * P.wavelength)
    assert pre[1].radius == 1.05 * P.wavelength


def test_detect_validation():
    corr = one_bubble_corr((0.0, 0.0))
    with pytest.raises(ValueError):
        detect(corr, GRID, DetectorConfig(), 0.0, 1.05 * P.wavelength)


def test_detect_two_bubbles():
    frame = (render_psf(P, GRID, center=(-0.7, -0.5))
             + render_psf(P, GRID, center=(0.7, 0.6)))
    corr = matched_filter_map(frame, GRID, psf_template(GRID, P))
    peak = template_autocorr_peak(psf_template(GRID, P), GRID)
    locs = detect(corr, GRID, DetectorConfig(), peak, 1.05 * P.wavelength)
    assert len(locs) == 2
    xs = np.sort(locs["x"])
    assert xs[0] == pytest.approx(-0.7, abs=5e-3)
    assert xs[1] == pytest.approx(0.7, abs=5e-3)


@settings(max_examples=200, deadline=None)
@given(corr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                     max_side=9),
                       elements=st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0])),
       peak=st.sampled_from([1.0, 2.0, 3.0, 5.0]))
def test_detect_candidates_match_maximum_filter(corr, peak):
    # few distinct levels make ties and plateaus common, and small shapes
    # put most candidates on an edge; with no NMS radius to speak of and no
    # refinement, every candidate comes back as one localization
    grid = make_grid(corr.shape[1], corr.shape[0], 1.0, 1.0)
    cfg = DetectorConfig(threshold_fraction=0.5, subpixel=False)
    locs = detect(corr, grid, cfg, peak, 1e-9)
    got = {(round((z - grid.z0) / grid.dz), round((x - grid.x0) / grid.dx))
           for x, z in zip(locs["x"].tolist(), locs["z"].tolist())}
    assert got == local_max_candidates(corr, 0.5 * peak)


def test_detect_keeps_every_plateau_pixel():
    corr = np.zeros((5, 6))
    corr[0, :3] = 2.0       # plateau on the top edge
    corr[3, 4] = corr[4, 5] = 1.5   # tied diagonal neighbours in a corner
    grid = make_grid(6, 5, 1.0, 1.0)
    locs = detect(corr, grid, DetectorConfig(subpixel=False), 2.0, 1e-9)
    got = {(round(z - grid.z0), round(x - grid.x0))
           for x, z in zip(locs["x"].tolist(), locs["z"].tolist())}
    assert got == {(0, 0), (0, 1), (0, 2), (3, 4), (4, 5)}
    assert got == local_max_candidates(corr, 1.0)


def test_detect_breaks_score_ties_by_row_then_column():
    # the same two plateaus as above, each now within one NMS radius
    corr = np.zeros((5, 6))
    corr[0, :3] = 2.0
    corr[3, 4] = corr[4, 5] = 1.5
    grid = make_grid(6, 5, 1.0, 1.0)
    locs = detect(corr, grid, DetectorConfig(subpixel=False), 2.0, 2.5)
    got = [(round(z - grid.z0), round(x - grid.x0))
           for x, z in zip(locs["x"].tolist(), locs["z"].tolist())]
    assert got == [(0, 0), (3, 4)]


def test_detect_ranks_tied_scores_by_row_before_column():
    # one NMS radius covers both; the upper row wins though its column is
    # to the right, in a block as in a lone frame
    corr = np.zeros((2, 5, 6))
    corr[1, 1, 4] = corr[1, 2, 0] = 2.0
    grid = make_grid(6, 5, 1.0, 1.0)
    cfg = DetectorConfig(subpixel=False)
    for got in (detect(corr, grid, cfg, 2.0, 10.0),
                detect(corr[1], grid, cfg, 2.0, 10.0, t_index=1)):
        assert [(t, round(z - grid.z0), round(x - grid.x0)) for t, x, z
                in got[["t", "x", "z"]].tolist()] == [(1, 1, 4)]


@settings(max_examples=150, deadline=None)
@given(block=hnp.arrays(np.float64, st.tuples(st.integers(1, 4),
                                              st.integers(3, 8),
                                              st.integers(3, 8)),
                        elements=st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0,
                                                  0.3, 1.7, 2.9])),
       empty=st.integers(0, 3), copy=st.booleans(),
       min_sep=st.sampled_from([1e-9, 1.0, 1.5, 2.5]),
       subpixel=st.booleans(), dtype=st.sampled_from([np.float32,
                                                      np.float64]))
# one peak per frame: a frame alone fits one patch, the block two
@example(block=np.array(2 * [[[1.0, 1.0, 1.0], [1.0, 2.9, 1.3],
                              [0.3, 1.0, 1.7]]]),
         empty=1, copy=True, min_sep=1e-9, subpixel=True, dtype=np.float64)
def test_detect_block_matches_frames(block, empty, copy, min_sep, subpixel,
                                     dtype):
    # few levels: exact score ties within a frame, plateaus and candidates
    # on the border; a copied frame ties across frames, and a zero frame
    # has no candidate at all. A sub-pixel fit's sums are inexact (the
    # fit's weights are sixths and ninths, and some levels are not binary
    # fractions either), so a fit whose rows depend on the batch, such as
    # a BLAS product, fails here
    block[min(empty, len(block) - 1)] = 0.0
    if copy and len(block) > 1:
        block[-1] = block[0]
    block = block.astype(dtype)
    grid = make_grid(block.shape[2], block.shape[1], 0.1, 0.2)
    cfg = DetectorConfig(subpixel=subpixel)
    got = detect(block, grid, cfg, 2.0, min_sep, t_index=5, v_tag=(1.0, -2.0))
    want = np.concatenate([detect(f, grid, cfg, 2.0, min_sep, t_index=5 + k,
                                  v_tag=(1.0, -2.0))
                           for k, f in enumerate(block)])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                    max_size=60),
       spacing=st.sampled_from([0.1, 0.05, 0.25, 0.3]),
       radius=st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.75]))
def test_suppress_matches_greedy_loop(pts, spacing, radius):
    # lattice points in a random order, duplicates included; at spacings
    # that binary floats do not hold, many pairs sit within an ulp of the
    # radius
    ij = np.array(pts, dtype=float).reshape(-1, 2)
    x, z = ij[:, 0] * spacing, ij[:, 1] * spacing
    assert np.array_equal(_suppress(x, z, radius), suppress_loop(x, z, radius))


@pytest.mark.parametrize("pair_block", [1, 50, 2**14])
@pytest.mark.parametrize("seed", range(3))
def test_suppress_matches_greedy_loop_by_group(seed, pair_block,
                                               monkeypatch):
    # groups of very different sizes (one point, none in between, hundreds),
    # cut into row blocks of every size down to one row
    monkeypatch.setattr(localize, "PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(seed)
    group = np.repeat([0, 2, 3, 7], [1, 400, 30, 300])
    x, z = rng.uniform(0.0, 3.0, size=(2, len(group)))
    x[::7] = x[1::7]    # duplicates
    want = np.concatenate([suppress_loop(x[group == g], z[group == g], 0.2)
                           for g in np.unique(group)])
    assert np.array_equal(_suppress(x, z, 0.2, group=group), want)
    assert np.array_equal(_suppress(x, z, 0.2), suppress_loop(x, z, 0.2))


def test_suppress_decides_ties_as_python_floats():
    # for this d, Python's d ** 2 (libm pow) and numpy's d * d can round to
    # neighbouring floats; a point exactly one radius away is not strictly
    # within it, whichever way the squares round
    for d in (float.fromhex("0x1.e31cca2ac8b6bp+0"),
              float.fromhex("0x1.731dc1c47773dp-2"), 0.3, 0.1 + 0.2):
        x = np.array([0.0, d, 2.0 * d])
        z = np.zeros(3)
        assert _suppress(x, z, d).tolist() == [True, True, True]
        assert _suppress(x, z, np.nextafter(d, 1e9)).tolist() == [
            True, False, True]


def test_suppress_memory_stays_bounded():
    # 3000 candidates in one frame, most of them within the radius of many
    # others: the pairwise test runs in row blocks, so its temporaries stay
    # small however dense the frame
    rng = np.random.default_rng(0)
    x, z = rng.uniform(0.0, 1.0, size=(2, 3000))
    tracemalloc.start()
    try:
        keep = _suppress(x, z, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(keep, suppress_loop(x, z, 0.2))


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
    locs = table([(0, x, z, 1.0, NAN, NAN)
                  for x, z in rng.uniform(-1.5, 1.5, size=(40, 2))])
    acc = accumulate(locs, fine)
    assert acc.total == 40
    shuffled = locs.copy()
    rng.shuffle(shuffled)
    acc2 = accumulate(shuffled, fine)
    assert np.array_equal(acc.counts, acc2.counts)
    # per-frame tables joined into one give the same counts
    acc3 = accumulate(np.concatenate([locs[:10], locs[10:]]), fine)
    assert np.array_equal(acc.counts, acc3.counts)


def test_accumulate_drops_out_of_grid():
    fine = make_fine_grid(GRID, 1)
    locs = table([(0, 99.0, 0.0, 1.0, NAN, NAN),
                  (0, 0.0, 0.0, 1.0, NAN, NAN)])
    acc = accumulate(locs, fine)
    assert acc.total == 1


def test_accumulated_map_validation():
    fine = make_fine_grid(GRID, 1)
    with pytest.raises(ValueError):
        AccumulatedMap(grid=fine, counts=np.zeros((fine.nz, fine.nx),
                                                  dtype=np.int64), total=5)


def test_velocity_map_keeps_fastest_tag():
    fine = make_fine_grid(GRID, 1)
    locs = table([(0, 0.0, 0.0, 1.0, 1.0, 0.0),
                  (1, 0.0, 0.0, 1.0, 0.0, 3.0),
                  (2, 0.0, 0.0, 1.0, 2.0, 0.0),
                  (3, 0.0, 0.0, 1.0, NAN, NAN)])
    vmap = velocity_map_from_locs(locs, fine)
    iz, ix = fine.nz // 2, fine.nx // 2
    assert vmap.speed[iz, ix] == pytest.approx(3.0)
    assert vmap.vz[iz, ix] == pytest.approx(3.0)
    assert vmap.vx[iz, ix] == pytest.approx(0.0)
    assert vmap.speed.sum() == pytest.approx(3.0)   # single occupied pixel


def test_segment_support_closing():
    fine = make_fine_grid(make_grid(33, 33, 0.05, 0.05), 1)
    # a thick band with a one-pixel vertical slit knocked out
    locs = table([(0, fine.x0 + i * fine.dx, fine.z0 + j * fine.dz, 1.0, NAN,
                   NAN) for i in range(5, 28) if i != 16 for j in range(14, 19)])
    acc = accumulate(locs, fine)
    occupied = acc.counts > 0
    mask = segment_support(acc)
    assert mask[16, 16]                       # slit filled
    assert np.all(mask[occupied])             # closing never removes pixels
    # an empty mask passes through untouched
    empty = accumulate(table([]), fine)
    assert not segment_support(empty).any()


def _support(mask):
    grid = make_grid(mask.shape[1], mask.shape[0], 0.05, 0.05)
    counts = mask.astype(np.int64)
    return segment_support(AccumulatedMap(grid, counts, int(counts.sum())))


# the radius of segment_support's closing disk, in pixels
@pytest.mark.parametrize("radius", [2])
def test_segment_support_matches_binary_closing_at_the_border(radius):
    # blobs and gaps against every edge and corner: binary_closing erodes
    # with zeros outside the mask, so closing can clear occupied edge pixels
    mask = np.zeros((12, 15), dtype=bool)
    mask[0, 2:9] = mask[1:4, 0] = mask[11, 10:] = mask[5:11, 14] = True
    mask[4:8, 4:7] = True
    mask[6, 5] = False
    want = disk_closing(mask, radius)
    assert np.array_equal(_support(mask), want)
    assert not np.array_equal(want, mask)


@settings(max_examples=100, deadline=None)
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=16)))
def test_segment_support_matches_binary_closing(mask):
    # the closing disk has a radius of 2 pixels
    want = disk_closing(mask, 2) if mask.any() else mask
    assert np.array_equal(_support(mask), want)


def test_localize_frames_on_static_stack():
    frame = render_psf(P, GRID, center=(0.2, 0.1))
    frames = FrameStack(grid=GRID, nt=3, dt=0.01,
                        data=np.repeat(frame[None], 3, axis=0))
    locs = localize_frames(frames, P)
    # one table, rows by frame: one row per frame here
    assert np.bincount(locs["t"], minlength=3).tolist() == [1, 1, 1]
    assert locs["t"][1] == 1
    assert np.isnan(locs["vx"][0]) and np.isnan(locs["vz"][0])
    assert locs["x"][0] == pytest.approx(0.2, abs=2e-3)


def test_post_mode_envelope_detection():
    # carrier stripped: even a tight separation radius finds no replicas
    frame = render_psf(P, GRID, mode="pre", center=(0.0, 0.0))
    cfg = DetectorConfig(mode="post")
    chain = localize._chain(GRID, P, cfg)
    assert chain.envelope
    corr = matched_filter_map(_envelope_z(frame[None]), GRID, chain.template)
    locs = detect(corr, GRID, cfg, chain.peak, 0.05 * P.wavelength)
    assert len(locs) == 1
    assert locs["x"][0] == pytest.approx(0.0, abs=2e-3)
    assert locs["z"][0] == pytest.approx(0.0, abs=2e-3)


def test_run_pipeline_single_bubble_static():
    frame = render_psf(P, GRID, center=(0.15, -0.2))
    frames = FrameStack(grid=GRID, nt=6, dt=0.01,
                        data=np.repeat(frame[None], 6, axis=0))
    bank = make_bank([0.0], [0.0], sigma_t=0.02)
    res = run_pipeline(frames, bank, P)
    assert all(len(f) == 1 for f in res.per_frame)
    loc = res.per_frame[3][0]
    assert (loc["vx"], loc["vz"]) == (0.0, 0.0)
    assert loc["x"] == pytest.approx(0.15, abs=2e-3)


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
    locs = table([(0, 0.123456789, -0.5, 1.5, 1.0, -2.0),
                  (3, 0.0, 0.25, 0.75, NAN, NAN)])
    path = save_localizations_csv(locs, tmp_path / "locs.csv")
    back = load_localizations_csv(path)
    assert len(back) == 2 and back.dtype == LOC_DTYPE
    assert back["t"][0] == 0 and back["t"][1] == 3
    assert back["x"][0] == pytest.approx(0.123456789, rel=1e-8)
    assert (back["vx"][0], back["vz"][0]) == (1.0, -2.0)
    assert np.isnan(back["vx"][1]) and np.isnan(back["vz"][1])
    assert back["score"][1] == pytest.approx(0.75)


def test_localizations_csv_bytes_and_values(tmp_path):
    # row-by-row csv.writer with "%.9g" fields, and empty velocity fields
    # for untagged rows, is the reference format; values read back equal
    # Python's parse of each field
    rng = np.random.default_rng(5)
    locs = table([(0, -0.0, 0.1, 1.5, -0.0, 2.0),
                  (0, np.pi, -1e-7, 2.0**-40, NAN, NAN),
                  (3, 1e5, 0.123456789012, 0.5, 1.25, -3.0),
                  (12, *rng.normal(size=3), *rng.normal(size=2)),
                  (12, *rng.normal(scale=1e-9, size=3), NAN, NAN)])
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_index", "x_mm", "z_mm", "score", "vf_x_mm_s",
                         "vf_z_mm_s"])
        for t, x, z, score, vx, vz in locs.tolist():
            tag = ["", ""] if math.isnan(vx) else [f"{vx:.9g}", f"{vz:.9g}"]
            writer.writerow([t, f"{x:.9g}", f"{z:.9g}", f"{score:.9g}", *tag])
    path = save_localizations_csv(locs, tmp_path / "locs.csv")
    assert path.read_bytes() == want.read_bytes()
    back = load_localizations_csv(path)
    with open(want, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    parsed = [[float(v) if v else NAN for v in row] for row in rows]
    assert back.dtype == LOC_DTYPE
    assert np.array_equal(np.array(back.tolist()), np.array(parsed),
                          equal_nan=True)
    assert math.copysign(1.0, back["x"][0]) == -1.0
    one = load_localizations_csv(save_localizations_csv(
        locs[1:2], tmp_path / "one.csv"))
    assert one.shape == (1,) and np.isnan(one["vx"][0])


def test_localizations_csv_without_rows(tmp_path):
    path = save_localizations_csv(table([]), tmp_path / "locs.csv")
    assert path.read_bytes() == (b"t_index,x_mm,z_mm,score,vf_x_mm_s,"
                                 b"vf_z_mm_s\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_localizations_csv(path)
    assert back.dtype == LOC_DTYPE and back.shape == (0,)


# Equally fast headings (speed 5), zero and slower ones, and untagged;
# -0.0 next to 0.0 shows which of two equal headings a pixel kept, and
# whether a zero speed was written.
HEADINGS = [(3.0, 4.0), (4.0, 3.0), (5.0, 0.0), (0.0, -5.0), (-0.0, -5.0),
            (-3.0, -4.0), (0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (NAN, NAN)]
ROWS = st.lists(st.builds(
    lambda t, i, j, score, tag: (t, 0.25 * i, 0.125 * j, score, *tag),
    st.integers(0, 3), st.integers(-12, 12), st.integers(-12, 12),
    st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from(HEADINGS)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=ROWS, radius=st.sampled_from([0.25, 0.5, 1.0]))
# exact score ties at one spot in frames 0 and 1, which table order breaks,
# and one spot in three frames, which each frame keeps for itself
@example(rows=[(1, 0.0, 0.0, 2.0, 3.0, 4.0), (0, 0.0, 0.0, 2.0, 4.0, 3.0),
               (1, 0.0, 0.0, 2.0, 5.0, 0.0), (0, 0.0, 0.0, 2.0, 0.0, -5.0),
               (2, 0.0, 0.0, 1.0, NAN, NAN), (1, 1.0, 0.0, 3.0, 1.0, 0.0)],
         radius=0.5)
def test_table_steps_match_row_loops(rows, radius):
    # positions on a quarter-pixel lattice: half-pixel ties in the binning,
    # rows off the grid, and distances equal to the merge radius
    grid = make_grid(5, 4, 1.0, 0.5)
    locs = table(rows)
    assert np.array_equal(accumulate(locs, grid).counts,
                          accumulate_loop(rows, grid))
    vmap = velocity_map_from_locs(locs, grid)
    for got, want in zip((vmap.speed, vmap.vx, vmap.vz),
                         velocity_map_loop(rows, grid)):
        assert got.tobytes() == want.tobytes()
    # the merge is the frame loop applied to each frame's rows
    got = np.array(merge_candidates(locs, radius).tolist()).reshape(-1, 6)
    want = [row for t in sorted({row[0] for row in rows})
            for row in merge_frame_loop([r for r in rows if r[0] == t],
                                        radius)]
    assert np.array_equal(got, np.array(want).reshape(-1, 6), equal_nan=True)


def test_velocity_map_without_moving_rows():
    # every tag at speed 0 (a static bank member) or untagged: nothing to
    # assign, every pixel stays zero
    fine = make_fine_grid(GRID, 1)
    locs = table([(0, 0.0, 0.0, 1.0, 0.0, 0.0), (1, 0.1, 0.0, 1.0, NAN, NAN)])
    vmap = velocity_map_from_locs(locs, fine)
    assert not vmap.speed.any() and not vmap.vx.any() and not vmap.vz.any()
    assert accumulate(locs, fine).total == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 60),
       factor=st.integers(1, 5))
def test_accumulate_total_counts_in_grid_points(seed, n, factor):
    rng = np.random.default_rng(seed)
    fine = make_fine_grid(GRID, factor)
    pts = rng.uniform(-2.5, 2.5, size=(n, 2))
    locs = table([(0, x, z, 1.0, NAN, NAN) for x, z in pts])
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
    locs = table([(0, *rng.uniform(-1, 1, 2), 1.0, *rng.normal(size=2))
                  for _ in range(25)])
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
    cfg = DetectorConfig(mode="post")
    res = run_pipeline(frames, replace(bank, to=to), P, cfg=cfg)

    if routed:
        # the bank's own output: its gain carries the TO factor
        _, _, out, used_to = next(run_filter_bank(frames, replace(bank,
                                                                  to=to)))
        assert used_to
        data = gather_frames(out).data
        tpl = psf_template(GRID, P, mode="to", to=to)
    else:
        data = apply_filter_fft(frames, fspec).data
        data = np.abs(scipy.signal.hilbert(data, axis=1))
        tpl = psf_template(GRID, P, mode="post")
    peak = template_autocorr_peak(tpl, GRID)
    # the TO template's replicas reach past one wavelength at 0.5
    reach = replica_reach_ref(tpl, GRID.dx, GRID.dz, 0.5 * peak)
    assert (reach > P.wavelength) == routed
    want = [detect(matched_filter_map(data[t], GRID, tpl), GRID,
                   cfg, peak, 1.05 * max(reach, P.wavelength), t_index=t,
                   v_tag=fspec.v_f)
            for t in range(frames.nt)]

    assert sum(map(len, want)) >= frames.nt
    for got_t, want_t in zip(res.per_frame, want):
        assert np.array_equal(np.sort(got_t), np.sort(want_t))


@pytest.fixture(scope="module")
def lateral_mover():
    """One bubble from (-1, 0) mm at (1, 0) mm/s: 60 float32 frames at
    25 ms on a 64^2 grid at 0.05 mm, and the one filter matched to it."""
    bubble = from_plane([(-1.0, 0.0)], [(1.0, 0.0)])
    frames, _ = synthesize_stack(bubble, (), make_grid(64, 64, 0.05, 0.05),
                                 60, 0.025, P)
    frames.data = frames.data.astype(np.float32)
    return frames, make_bank([1.0], [0.0], sigma_t=0.5)


@pytest.mark.parametrize("mode, threshold, to", [
    ("pre", 0.5, None), ("pre", 0.35, None), ("post", 0.35, None),
    ("pre", 0.35, ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=P.sigma_r))],
    ids=["pre-0.5", "pre-0.35", "post-0.35", "to-0.35"])
def test_one_detection_per_bubble_per_chain(lateral_mover, mode, threshold,
                                            to):
    # frames 10-49 keep the bubble well inside the grid and the window
    frames, bank = lateral_mover
    res = run_pipeline(frames, replace(bank, to=to), P, cfg=DetectorConfig(
        threshold_fraction=threshold, mode=mode))
    assert [len(f) for f in res.per_frame[10:50]] == [1] * 40


@pytest.mark.parametrize("mode", ["pre", "post"])
def test_block_size_leaves_detection_unchanged(mode, monkeypatch):
    # one frame per block, an uneven split (4, 4, 2) and the whole stack in
    # one block give the same bytes
    frames = _two_mover_stack()
    bank = make_bank([1.0], [0.0, math.pi / 2], sigma_t=0.02)
    _, fshape = _padded_shape((GRID.nz, GRID.nx),
                              psf_template(GRID, P, mode=mode).shape)
    runs = []
    for samples in (1, 4 * math.prod(fshape), 2**40):
        monkeypatch.setattr(localize, "_CORR_BLOCK", samples)
        cfg = DetectorConfig(mode=mode)
        res = run_pipeline(frames, bank, P, cfg=cfg)
        raw = localize_frames(frames, P, cfg=cfg)
        assert np.all(np.diff(raw["t"]) >= 0)
        raw_frames = [raw[raw["t"] == t] for t in range(frames.nt)]
        runs.append([f.tobytes() for f in res.per_frame + raw_frames])
    assert len(runs[0]) == 2 * frames.nt
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("shape", [(64, 64), (63, 65), (50, 41)])
def test_matched_filter_map_matches_fftconvolve(shape):
    # an asymmetric template catches a flipped or shifted correlation
    rng = np.random.default_rng(sum(shape))
    frame = rng.normal(size=shape)
    grid = make_grid(shape[1], shape[0], 0.05, 0.07)
    for tshape in [(7, 5), (4, 6), (9, 9)]:
        tpl = rng.normal(size=tshape)
        got = matched_filter_map(frame, grid, tpl)
        want = scipy.signal.fftconvolve(frame, tpl[::-1, ::-1],
                                        mode="same") * (grid.dx * grid.dz)
        # the lattice can be smaller than fftconvolve's: rounding only
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # a block of frames: each slice is the call on that frame alone
        frames = np.stack([frame, rng.normal(size=shape), frame[::-1]])
        for dtype in (np.float32, np.float64):
            block = frames.astype(dtype)
            got = matched_filter_map(block, grid, tpl)
            nested = matched_filter_map(block[None, 1:], grid, tpl)
            assert got.dtype == dtype and nested.shape == (1, 2, *shape)
            for k, f in enumerate(block):
                assert np.array_equal(got[k], matched_filter_map(f, grid, tpl))
            assert np.array_equal(nested[0], got[1:])


def test_padded_shape_is_the_smallest_wrap_free_lattice():
    for frame_shape in [(64, 64), (63, 65), (50, 41), (96, 96), (9, 9)]:
        for template_shape in [(7, 5), (4, 6), (9, 9), (25, 25), (49, 49)]:
            if any(m > n for n, m in zip(frame_shape, template_shape)):
                continue
            start, fshape = _padded_shape(frame_shape, template_shape)
            for n, m, s, f in zip(frame_shape, template_shape, start,
                                  fshape):
                # the kept window starts where fftconvolve(mode="same")
                # cuts, and no sample past f folds into s .. s + n - 1 ...
                assert s == (m - 1) // 2
                assert n + m - 2 - f < s
                # ... which one sample less than the bound would break
                bound = n + m - 1 - s
                assert n + m - 2 - (bound - 1) >= s
                # f is the first real-FFT-friendly length from the bound
                assert [k for k in range(bound, f + 1)
                        if _pocketfft.next_fast_len(k, real=True) == k] == [f]
    # the benchmark's frames: 64x64 with a 25x25 template and 96x96 with a
    # 49x49 one, whose full linear lengths 88 and 144 pad to 90 and 144
    assert _padded_shape((64, 64), (25, 25)) == ((12, 12), (80, 80))
    assert _padded_shape((96, 96), (49, 49)) == ((24, 24), (120, 120))


def test_template_spectrum_taken_once_per_template(monkeypatch):
    rng = np.random.default_rng(3)
    grid = make_grid(40, 30, 0.05, 0.05)
    frames = rng.normal(size=(3, 30, 40))
    tpl_a, tpl_b = rng.normal(size=(2, 7, 5))
    want = [scipy.signal.fftconvolve(f, t[::-1, ::-1], mode="same")
            * (grid.dx * grid.dz) for t in (tpl_a, tpl_b) for f in frames]
    _template_spectrum.cache_clear()
    calls = []
    rfftn = _pocketfft.rfftn

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return rfftn(x, *args, **kwargs)

    monkeypatch.setattr(_pocketfft, "rfftn", counted)
    # a template of the same shape but other values gets its own spectrum
    got = [matched_filter_map(f, grid, t) for t in (tpl_a, tpl_b)
           for f in frames]
    assert calls.count((7, 5)) == 2
    assert calls.count((30, 40)) == 6
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    spec = _template_spectrum(tpl_a.tobytes(), tpl_a.dtype.str, tpl_a.shape,
                              (36, 44))
    assert not spec.flags.writeable


# float32 outputs agree with the float64 run of the same input to this
# fraction of the float64 output's largest magnitude; fixed before any run
F32_RTOL = 1e-5


def assert_f32_matches(got, want):
    assert got.dtype == np.float32 and want.dtype == np.float64
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= F32_RTOL * scale


@pytest.mark.parametrize("nz", [32, 33])
def test_envelope_runs_in_the_input_precision(nz):
    data = np.random.default_rng(nz).normal(size=(4, nz, 12))
    data32 = data.astype(np.float32)
    assert_f32_matches(_envelope_z(data32),
                       _envelope_z(data32.astype(np.float64)))


def test_matched_filter_map_runs_in_the_frame_precision():
    frame = render_psf(P, GRID, center=(0.12, -0.07)).astype(np.float32)
    tpl = psf_template(GRID, P)
    assert_f32_matches(matched_filter_map(frame, GRID, tpl),
                       matched_filter_map(frame.astype(np.float64), GRID, tpl))


def test_template_spectrum_taken_once_per_template_and_precision():
    rng = np.random.default_rng(4)
    grid = make_grid(40, 30, 0.05, 0.05)
    frames = rng.normal(size=(3, 30, 40))
    tpl = rng.normal(size=(7, 5))
    _template_spectrum.cache_clear()
    for dtype in (np.float32, np.float64, np.float32):
        for f in frames:
            matched_filter_map(f.astype(dtype), grid, tpl)
    info = _template_spectrum.cache_info()
    assert (info.misses, info.hits) == (2, 7)
    tpl32 = tpl.astype(np.float32)
    spec = _template_spectrum(tpl32.tobytes(), tpl32.dtype.str, tpl32.shape,
                              (36, 44))
    assert spec.dtype == np.complex64


@pytest.mark.parametrize("nz", [32, 33])
def test_envelope_matches_hilbert(nz):
    data = np.random.default_rng(nz).normal(size=(4, nz, 12))
    assert np.array_equal(_envelope_z(data),
                          np.abs(scipy.signal.hilbert(data, axis=1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stack_rejected_before_filtering(bad, monkeypatch):
    frames = _two_mover_stack()
    frames.data[4, 6, 2] = bad
    bank = make_bank([1.0], [0.0], sigma_t=0.02)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("filter bank filtered a non-finite stack")

    # the bank checks each block as it reads it, before any filtering
    monkeypatch.setattr("velofilt.vfilter._compact_spectrum", no_spectrum)
    with pytest.raises(ValueError, match=r"\(t, z, x\) = \(4, 6, 2\)"):
        run_pipeline(frames, bank, P)
    with pytest.raises(ValueError, match=r"\(t, z, x\) = \(4, 6, 2\)"):
        localize_frames(frames, P)
