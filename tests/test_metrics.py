import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from closed_forms import m_matrix
from oracles import localization_error_dense, localization_error_raster

from velofilt import metrics
from velofilt.core import FrameStack, make_grid
from velofilt.localize import LOC_DTYPE
from velofilt.metrics import (_REACH, LeParams, _gauss_sum, default_le_params,
                              fve, iou, localization_error,
                              localization_error_frames, measure_attenuation)
from velofilt.phantom import TRUTH_DTYPE
from velofilt.psf import PsfParams, render_psf

LE = default_le_params(0.3)            # sigma_par 0.09, sigma_perp 0.045
LE_GRID = make_grid(61, 61, 0.01, 0.01)


def points(rows, dtype=TRUTH_DTYPE) -> np.ndarray:
    """A table of dtype holding (t, x, z) rows; its other fields are 0."""
    out = np.zeros(len(rows), dtype)
    if rows:
        out["t"], out["x"], out["z"] = np.array(rows, dtype=float).T
    return out


def exact_le(d, le: LeParams) -> float:
    """Continuum value for one truth point and one estimate displaced by d."""
    quad = float(np.asarray(d) @ m_matrix(le) @ np.asarray(d))
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
    m = m_matrix(th)
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
    for d in [(0.004, 0.0), (0.0, 0.003), (0.003, -0.003), (0.05, 0.02)]:
        got = localization_error([[0.0, 0.0]], [list(d)], LE, LE_GRID)
        assert got == pytest.approx(exact_le(d, LE), rel=1e-12)


def test_le_perpendicular_errors_cost_more():
    d = 0.004
    par = localization_error([[0.0, 0.0]], [[d, 0.0]], LE, LE_GRID)
    perp = localization_error([[0.0, 0.0]], [[0.0, d]], LE, LE_GRID)
    assert perp > 3.0 * par   # (sigma_par / sigma_perp)^2 = 4 in the limit
    # rotating the flow direction swaps the roles
    le_rot = LeParams(sigma_par=0.09, sigma_perp=0.045, theta=math.pi / 2)
    par_rot = localization_error([[0.0, 0.0]], [[0.0, d]], le_rot, LE_GRID)
    assert par_rot == pytest.approx(par, rel=1e-12)


def test_le_count_mismatch_penalty():
    # a missed bubble costs 2/T, an unmatched spurious estimate another 2/T
    assert localization_error([[0.0, 0.0]], np.empty((0, 2)), LE,
                              LE_GRID) == pytest.approx(2.0, rel=1e-12)
    big = make_grid(121, 41, 0.01, 0.01)
    far = localization_error([[-0.45, 0.0]], [[0.45, 0.0]], LE, big)
    assert far == pytest.approx(exact_le((0.9, 0.0), LE), rel=1e-12)


def test_le_swap_symmetry_and_t_normalization():
    a = [[0.0, 0.0]]
    b = [[0.01, 0.005]]
    assert localization_error(a, b, LE, LE_GRID) == pytest.approx(
        localization_error(b, a, LE, LE_GRID), rel=1e-12)
    le2 = LeParams(sigma_par=0.09, sigma_perp=0.045, n_bubbles_t=2)
    assert localization_error(a, b, le2, LE_GRID) == pytest.approx(
        localization_error(a, b, LE, LE_GRID) / 2.0, rel=1e-12)


def test_le_validation():
    with pytest.raises(ValueError):
        localization_error([[0.0, 0.0]], [[0.0, 0.0]],
                           LeParams(0.09, 0.045, n_bubbles_t=0), LE_GRID)


def test_le_scores_only_points_inside_the_grid():
    grid = make_grid(81, 81, 0.01, 0.01)        # samples span [-0.4, 0.4]
    truth, est = [[0.0, 0.0]], [[0.003, -0.002]]
    base = localization_error(truth, est, LE, grid)
    # half a pixel past an edge, far outside, and not a number
    outside = [[0.405, 0.0], [0.0, -0.405], [2.0, 2.0], [np.nan, 0.0]]
    assert localization_error(truth + outside, est + outside[::-1], LE,
                              grid) == base
    assert localization_error(truth, est + outside, LE, grid) == base
    # a corner sample is inside: an unmatched point there costs 2/T
    corner = localization_error(truth, est + [[0.4, 0.4]], LE, grid)
    assert corner == pytest.approx(base + 2.0, rel=1e-9)


def test_le_frames_mean_and_skipping():
    truth = points([(1, 0.0, 0.0), (2, 0.0, 0.0), (2, 0.1, 0.1)])
    est = points([(1, 0.004, 0.0), (2, 0.0, 0.0), (2, 0.1, 0.1)], LOC_DTYPE)
    got = localization_error_frames(truth, est, LE, LE_GRID)
    # frame 0 skipped; frame 2 perfect; frame 1 has T=1
    per1 = localization_error([[0.0, 0.0]], [[0.004, 0.0]], LE, LE_GRID)
    assert got == pytest.approx(per1 / 2.0, rel=1e-9)
    with pytest.raises(ValueError):
        localization_error_frames(points([]), points([], LOC_DTYPE), LE,
                                  LE_GRID)


def test_le_frames_keeps_row_order_within_a_frame(monkeypatch):
    # each frame's rows reach localization_error in table order, as a
    # per-frame loop selects them; est rows of frames without a truth
    # point (0, 5 and -1) are ignored, and a frame without est rows scores
    # against an empty set
    truth = points([(2, 0.1, 0.2), (3, 0.0, 0.1), (2, 0.5, 0.6),
                    (2, -0.2, 0.0), (4, 0.1, 0.1)])
    est = points([(2, 0.1, 0.2), (0, 0.3, 0.4), (5, 9.0, 9.0),
                  (2, 0.5, 0.6), (-1, 9.0, 9.0), (3, 0.3, 0.0),
                  (2, 0.0, -0.1)], LOC_DTYPE)
    calls = []

    def record(truth_points, est_points, le, grid):
        calls.append((truth_points.tolist(), est_points.tolist(),
                      le.n_bubbles_t))
        return float(len(calls))

    def xz(table):
        return [[x, z] for x, z in zip(table["x"].tolist(),
                                       table["z"].tolist())]

    monkeypatch.setattr(metrics, "localization_error", record)
    got = localization_error_frames(truth, est, LE, LE_GRID)
    want = [(xz(truth[truth["t"] == t]), xz(est[est["t"] == t]),
             int(np.count_nonzero(truth["t"] == t))) for t in (2, 3, 4)]
    assert calls == want
    assert want[0][0] == [[0.1, 0.2], [0.5, 0.6], [-0.2, 0.0]]
    assert want[0][1] == [[0.1, 0.2], [0.5, 0.6], [0.0, -0.1]]
    assert want[2][1] == []
    assert got == 2.0


def test_le_frames_overrides_bubble_count():
    truth = points([(0, 0.0, 0.0), (0, 0.2, 0.0)])
    est = points([], LOC_DTYPE)
    # two missed bubbles at T=2 cost 2(1 + overlap of their blur kernels)
    quad = float(np.array([0.2, 0.0]) @ m_matrix(LE) @ np.array([0.2, 0.0]))
    want = 2.0 * (1.0 + math.exp(-quad / 4.0))
    assert localization_error_frames(truth, est, LE, LE_GRID) == \
        pytest.approx(want, rel=1e-12)


# The raster oracle deposits each point bilinearly on the grid, which
# smooths it and biases LE low by a fraction that shrinks with the spacing.
# At spacing sigma_perp/9 the closed form must agree within this relative
# tolerance; it is fixed here, before the runs, and not tuned to them.
ORACLE_REL = 1e-2


def test_le_matches_spatial_raster_oracle():
    # both grids are at most sigma_perp/9 on each axis for every case
    grid_a = make_grid(121, 121, 0.005, 0.005)
    grid_b = make_grid(112, 131, 0.0048, 0.0045)
    cases = [(LE, grid_a),
             (LeParams(0.09, 0.045, theta=0.6, n_bubbles_t=3), grid_a),
             (LeParams(0.09, 0.045, theta=0.6, n_bubbles_t=3), grid_b),
             (LeParams(0.08, 0.044, theta=-1.1), grid_b)]
    rng = np.random.default_rng(20)
    for _ in range(3):
        for le, grid in cases:
            x_end = grid.x0 + grid.dx * (grid.nx - 1)
            z_end = grid.z0 + grid.dz * (grid.nz - 1)
            # on the last samples, and well outside (scored by neither)
            edge = np.array([[x_end, 0.0], [0.0, z_end], [0.5, -0.5],
                             [-0.1, z_end + 0.3]])
            truth = rng.uniform(-0.25, 0.25, size=(rng.integers(1, 12), 2))
            est = truth + rng.normal(scale=0.01, size=truth.shape)
            for t_pts, e_pts in [(truth, est),
                                 (truth, np.vstack([est, edge])),
                                 (np.vstack([truth, edge[:2]]), est[1:]),
                                 (truth, truth[::-1]),
                                 (truth, np.empty((0, 2)))]:
                want = localization_error_raster(t_pts, e_pts, le, grid)
                got = localization_error(t_pts, e_pts, le, grid)
                assert got == pytest.approx(want, rel=ORACLE_REL, abs=1e-9)


# The pair sum leaves out pairs more than _REACH apart along the flow,
# each term below e^-37, and sums the rest in another order than the dense
# oracle. On these sets both stay within a few float64 roundings of the
# sums; the absolute floor covers LE near 0.
DENSE_REL = 1e-12
DENSE_ABS = 1e-12


@st.composite
def point_sets(draw):
    """(truth, est, LeParams) on DENSE_GRID: spread points, clusters further
    apart than _REACH along the flow, or points on a coarse lattice with
    repeats, so that first whitened coordinates tie."""
    n, m = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    theta = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    layout = draw(st.sampled_from(["spread", "clusters", "lattice"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    le = LeParams(0.03, 0.015, theta=theta, n_bubbles_t=max(n, 1))
    if layout == "spread":
        pts = rng.uniform(-1.6, 1.6, size=(n + m, 2))
    elif layout == "clusters":
        flow = np.array([math.cos(theta), math.sin(theta)])
        step = 1.5 * _REACH * le.sigma_par
        centre = rng.integers(-2, 3, size=n + m)[:, None] * step * flow
        pts = centre + rng.normal(scale=2 * le.sigma_perp, size=(n + m, 2))
    else:
        lattice = rng.integers(-8, 9, size=(40, 2)) * 0.05
        pts = lattice[rng.integers(0, 40, size=n + m)]
    truth, est = pts[:n], pts[n:]
    if draw(st.booleans()):          # estimates near the truth: LE near 0
        est = truth[rng.permutation(n)[:m]]
        est = est + rng.normal(scale=draw(st.sampled_from([0.0, 1e-3])),
                               size=est.shape)
    return truth, est, le


DENSE_GRID = make_grid(161, 161, 0.02, 0.02)


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_le_matches_dense_pair_sum(case):
    truth, est, le = case
    want = localization_error_dense(truth, est, le, DENSE_GRID)
    got = localization_error(truth, est, le, DENSE_GRID)
    assert got == pytest.approx(want, rel=DENSE_REL, abs=DENSE_ABS)


def test_le_identical_sets_score_exactly_zero():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(500, 2))
    le = LeParams(0.03, 0.015, theta=0.4, n_bubbles_t=500)
    assert localization_error(pts, pts, le, DENSE_GRID) == 0.0
    # distinct x: the sorted sets, and so the sums, are the same
    assert localization_error(pts, pts[rng.permutation(500)], le,
                              DENSE_GRID) == 0.0


def test_gauss_sum_keeps_pairs_exactly_reach_apart():
    # 200 x 100 pairs take two row blocks, so the columns are windowed
    u = np.zeros((200, 2))
    for gap, want in [(_REACH, 200 * 100 * math.exp(-_REACH**2 / 4)),
                      (np.nextafter(_REACH, np.inf), 0.0)]:
        v = np.full((100, 2), [gap, 0.0])
        assert _gauss_sum(u, v) == pytest.approx(want, rel=1e-12)
        assert _gauss_sum(v, u) == pytest.approx(want, rel=1e-12)


def test_le_dense_frame_matches_dense_pair_sum():
    # 4000 points on 64 x 64 pixels of 0.1 mm, one estimate per truth point
    grid = make_grid(64, 64, 0.1, 0.1)
    le = default_le_params(0.3, n_bubbles_t=4000)
    rng = np.random.default_rng(11)
    truth = rng.uniform(-3.15, 3.15, size=(4000, 2))
    est = truth + rng.normal(scale=0.02, size=truth.shape)
    want = localization_error_dense(truth, est, le, grid)
    assert localization_error(truth, est, le, grid) == pytest.approx(
        want, rel=DENSE_REL)


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


def test_fve_sums_component_errors():
    truth_vx = np.array([[3.0]])
    truth_vz = np.array([[4.0]])   # speed 5
    est_vx = np.array([[0.0]])
    est_vz = np.array([[4.0]])     # speed 4
    # |dvx| + |dvz| = 3, not the speed difference 1
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
