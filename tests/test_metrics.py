import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from velofilt.core import FrameStack, make_grid
from velofilt.metrics import (LeParams, default_le_params, fve, iou,
                              localization_error, localization_error_frames,
                              measure_attenuation)
from velofilt.psf import PsfParams, render_psf

LE = default_le_params(0.3)            # sigma_par 0.09, sigma_perp 0.045
LE_GRID = make_grid(61, 61, 0.01, 0.01)


def exact_le(d, le: LeParams) -> float:
    """Continuum value for one truth point and one estimate displaced by d."""
    quad = float(np.asarray(d) @ le.m_matrix @ np.asarray(d))
    return 4.0 / le.n_bubbles_t * (1.0 - math.exp(-quad / 4.0))


def test_le_params_validation_and_matrices():
    with pytest.raises(ValueError):
        LeParams(sigma_par=0.1, sigma_perp=0.2)
    with pytest.raises(ValueError):
        LeParams(sigma_par=0.1, sigma_perp=0.0)
    assert LE.sigma_par == pytest.approx(0.09)
    assert LE.sigma_perp == pytest.approx(0.045)
    a = LE.a_matrix
    assert np.allclose(a, np.diag([1 / 0.09, 1 / 0.045]))
    th = LeParams(sigma_par=0.09, sigma_perp=0.045, theta=math.pi / 3)
    m = th.m_matrix
    assert np.allclose(m, m.T)
    assert np.all(np.linalg.eigvalsh(m) > 0)


def test_le_zero_for_identical_sets():
    pts = np.array([[0.05, -0.1], [0.12, 0.2], [-0.07, 0.0]])
    assert localization_error(pts, pts, LE, LE_GRID) == pytest.approx(
        0.0, abs=1e-12)
    # order of the estimates never matters
    assert localization_error(pts, pts[::-1], LE, LE_GRID) == pytest.approx(
        0.0, abs=1e-12)


def test_le_small_displacement_first_order_law():
    for d in [(0.004, 0.0), (0.0, 0.003), (0.003, -0.003)]:
        got = localization_error([[0.0, 0.0]], [list(d)], LE, LE_GRID)
        assert got == pytest.approx(exact_le(d, LE), rel=0.05)


def test_le_perpendicular_errors_cost_more():
    d = 0.004
    par = localization_error([[0.0, 0.0]], [[d, 0.0]], LE, LE_GRID)
    perp = localization_error([[0.0, 0.0]], [[0.0, d]], LE, LE_GRID)
    assert perp > 3.0 * par   # (sigma_par / sigma_perp)^2 = 4 in the limit
    # rotating the flow direction swaps the roles
    le_rot = LeParams(sigma_par=0.09, sigma_perp=0.045, theta=math.pi / 2)
    par_rot = localization_error([[0.0, 0.0]], [[0.0, d]], le_rot, LE_GRID)
    assert par_rot == pytest.approx(par, rel=0.05)


def test_le_count_mismatch_penalty():
    # a missed bubble costs 2/T, an unmatched spurious estimate another 2/T
    assert localization_error([[0.0, 0.0]], np.empty((0, 2)), LE,
                              LE_GRID) == pytest.approx(2.0, rel=0.01)
    big = make_grid(121, 41, 0.01, 0.01)
    far = localization_error([[-0.45, 0.0]], [[0.45, 0.0]], LE, big)
    assert far == pytest.approx(4.0, rel=0.01)


def test_le_swap_symmetry_and_t_normalization():
    a = [[0.0, 0.0]]
    b = [[0.01, 0.005]]
    assert localization_error(a, b, LE, LE_GRID) == pytest.approx(
        localization_error(b, a, LE, LE_GRID), rel=1e-12)
    le2 = LeParams(sigma_par=0.09, sigma_perp=0.045, n_bubbles_t=2)
    assert localization_error(a, b, le2, LE_GRID) == pytest.approx(
        localization_error(a, b, LE, LE_GRID) / 2.0, rel=1e-12)


def test_le_validation():
    coarse = make_grid(21, 21, 0.05, 0.05)
    with pytest.raises(ValueError):
        localization_error([[0.0, 0.0]], [[0.0, 0.0]], LE, coarse)
    with pytest.raises(ValueError):
        localization_error([[0.0, 0.0]], [[0.0, 0.0]],
                           LeParams(0.09, 0.045, n_bubbles_t=0), LE_GRID)


def test_le_frames_mean_and_skipping():
    truth = [np.empty((0, 2)), np.array([[0.0, 0.0]]),
             np.array([[0.0, 0.0], [0.1, 0.1]])]
    est = [np.empty((0, 2)), np.array([[0.004, 0.0]]),
           np.array([[0.0, 0.0], [0.1, 0.1]])]
    got = localization_error_frames(truth, est, LE, LE_GRID)
    # frame 0 skipped; frame 2 perfect; frame 1 has T=1
    per1 = localization_error(truth[1], est[1], LE, LE_GRID)
    assert got == pytest.approx(per1 / 2.0, rel=1e-9)
    # frame_step=2 visits only frames 0 and 2
    got2 = localization_error_frames(truth, est, LE, LE_GRID, frame_step=2)
    assert got2 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        localization_error_frames([np.empty((0, 2))], [np.empty((0, 2))],
                                  LE, LE_GRID)


def test_le_frames_overrides_bubble_count():
    truth = [np.array([[0.0, 0.0], [0.2, 0.0]])]
    est = [np.empty((0, 2))]
    # two missed bubbles at T=2 cost 2(1 + overlap of their blur kernels)
    quad = float(np.array([0.2, 0.0]) @ LE.m_matrix @ np.array([0.2, 0.0]))
    want = 2.0 * (1.0 + math.exp(-quad / 4.0))
    assert localization_error_frames(truth, est, LE, LE_GRID) == \
        pytest.approx(want, rel=0.01)


def test_iou_identities():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    assert iou(a, b) == 1.0
    a[0:2] = True
    assert iou(a, a) == 1.0
    b[1:3] = True
    assert iou(a, b) == pytest.approx(1.0 / 3.0)
    b[:] = False
    b[3] = True
    assert iou(a, b) == 0.0
    with pytest.raises(ValueError):
        iou(a, np.zeros((3, 4), dtype=bool))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_iou_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((6, 6)) > 0.5
    b = rng.random((6, 6)) > 0.5
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


def test_fve_basic_and_component_norm():
    truth_vx = np.array([[2.0, 0.0], [0.0, 0.0]])
    truth_vz = np.array([[0.0, 1.0], [0.0, 0.0]])
    est_vx = np.array([[1.5, 0.0], [5.0, 0.0]])
    est_vz = np.array([[0.0, 1.0], [0.0, 0.0]])
    # two support pixels; errors 0.5 and 0; off-support pixel ignored
    assert fve(truth_vx, truth_vz, est_vx, est_vz) == pytest.approx(0.25)
    assert fve(truth_vx, truth_vz, truth_vx, truth_vz) == 0.0
    # component norm counts both axes
    est_vx2 = truth_vx + np.where(truth_vx > 0, 0.3, 0.0)
    est_vz2 = truth_vz + np.where(truth_vx > 0, 0.4, 0.0)
    assert fve(truth_vx, truth_vz, est_vx2, est_vz2) == pytest.approx(
        0.7 / 2.0)


def test_fve_fastest_quantile():
    n = 100
    truth_vx = np.linspace(0.01, 1.0, n).reshape(1, -1)
    truth_vz = np.zeros_like(truth_vx)
    est_vx = truth_vx + np.linspace(0.0, 0.2, n).reshape(1, -1)
    got = fve(truth_vx, truth_vz, est_vx, truth_vz, fastest_q=0.05)
    speeds = truth_vx[0]
    cut = np.quantile(speeds, 0.95)
    sel = speeds >= cut
    want = np.abs(est_vx[0] - truth_vx[0])[sel].mean()
    assert got == pytest.approx(want, rel=1e-12)


def test_fve_speed_only_mode():
    truth_vx = np.array([[3.0]])
    truth_vz = np.array([[4.0]])   # speed 5
    est_vx = np.array([[0.0]])
    est_vz = np.array([[4.0]])     # speed 4
    assert fve(truth_vx, truth_vz, est_vx, est_vz,
               speed_only=True) == pytest.approx(1.0)
    assert fve(truth_vx, truth_vz, est_vx, est_vz) == pytest.approx(3.0)


def test_fve_validation():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        fve(z, z, z, z)   # empty truth support
    t = np.ones((2, 2))
    with pytest.raises(ValueError):
        fve(t, z, np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fve(t, z, z, z, fastest_q=0.0)
    with pytest.raises(ValueError):
        fve(t, z, z, z, fastest_q=1.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fve_nonnegative_and_zero_on_self(seed):
    rng = np.random.default_rng(seed)
    vx = rng.normal(size=(5, 5))
    vz = rng.normal(size=(5, 5))
    ex = rng.normal(size=(5, 5))
    ez = rng.normal(size=(5, 5))
    assert fve(vx, vz, vx, vz) == 0.0
    assert fve(vx, vz, ex, ez) >= 0.0


def _psf_stacks(scale_after, nt=4):
    p = PsfParams(sigma_r=0.3, wavelength=0.3)
    grid = make_grid(33, 33, 0.05, 0.05)
    img = render_psf(p, grid, mode="pre")
    before = FrameStack(grid=grid, nt=nt, dt=0.01,
                        data=np.repeat(img[None], nt, axis=0))
    after = FrameStack(grid=grid, nt=nt, dt=0.01,
                       data=np.repeat(scale_after * img[None], nt, axis=0))
    return before, after


def test_measure_attenuation_known_ratio():
    before, after = _psf_stacks(0.5)
    got = measure_attenuation(before, after, (0.0, 0.0), window_radius=0.2)
    assert got == pytest.approx(2.0, rel=1e-12)
    # per-frame track form and frame_range sub-selection
    track = np.zeros((before.nt, 2))
    assert measure_attenuation(before, after, track, 0.2,
                               frame_range=(1, 3)) == pytest.approx(2.0)


def test_measure_attenuation_vanishing_peak_is_inf():
    before, after = _psf_stacks(0.0)
    assert measure_attenuation(before, after, (0.0, 0.0), 0.2) == math.inf


def test_measure_attenuation_validation():
    before, after = _psf_stacks(0.5)
    with pytest.raises(ValueError):
        measure_attenuation(before, after, (0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        measure_attenuation(before, after, (9.0, 0.0), 0.2)
    with pytest.raises(ValueError):
        measure_attenuation(before, after, np.zeros((2, 2)), 0.2)
    with pytest.raises(ValueError):
        measure_attenuation(before, after, (0.0, 0.0), 0.2, frame_range=(3, 2))
    short = FrameStack(grid=after.grid, nt=2, dt=0.01, data=after.data[:2])
    with pytest.raises(ValueError):
        measure_attenuation(before, short, (0.0, 0.0), 0.2)
