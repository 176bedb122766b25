import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import render_frame, synthesize_stack
from velofilt.core import make_grid
from velofilt.phantom import (TRUTH_DTYPE, BubbleSet, CircularBandSpec,
                              VesselSpec, _respawn_nearest, advance,
                              concat_bubbles,
                              default_vessel_length, empty_bubbles,
                              flow_speed, from_plane, load_truth_csv,
                              respawn_axial, sample_bubbles,
                              sample_circular_bubbles, save_truth_csv,
                              truth_maps)
from velofilt.psf import PsfParams, render_psf

P = PsfParams(sigma_r=0.3, wavelength=0.3)


def test_flow_speed_parabola():
    v = VesselSpec(radius_r=0.4, v0=2.0, c_mb=1.0)
    assert float(flow_speed(v, 0.0)) == pytest.approx(2.0)
    assert float(flow_speed(v, 0.2)) == pytest.approx(1.5)
    assert float(flow_speed(v, 0.4)) == pytest.approx(0.0)
    assert float(flow_speed(v, 0.5)) == 0.0
    assert float(flow_speed(v, -0.2)) == pytest.approx(1.5)


def test_vessel_spec_validation_and_frames():
    with pytest.raises(ValueError):
        VesselSpec(radius_r=0.0, v0=1.0, c_mb=1.0)
    with pytest.raises(ValueError):
        VesselSpec(radius_r=0.1, v0=-1.0, c_mb=1.0)
    v = VesselSpec(radius_r=0.1, v0=1.0, c_mb=1.0, axis_angle_rad=0.7)
    assert np.dot(v.axis_dir, v.perp_dir) == pytest.approx(0.0)
    assert np.linalg.norm(v.axis_dir) == pytest.approx(1.0)
    assert v.axis_dir[1] == 0.0  # axis lies in the image plane


def test_circular_spec_validation():
    with pytest.raises(ValueError):
        CircularBandSpec(orbit_radius=0.3, radius_r=0.3, v0=1.0, c_mb=1.0)
    with pytest.raises(ValueError):
        CircularBandSpec(orbit_radius=1.0, radius_r=0.3, v0=1.0, c_mb=1.0,
                         spin=2)


def test_bubble_set_validation():
    with pytest.raises(ValueError):
        BubbleSet(np.zeros((3, 3)), np.zeros((2, 3)), np.arange(3))
    with pytest.raises(ValueError):
        BubbleSet(np.zeros((2, 2)), np.zeros((2, 2)), np.arange(2))
    with pytest.raises(ValueError):
        BubbleSet(np.zeros((2, 3)), np.zeros((2, 3)), np.arange(3))
    assert len(empty_bubbles()) == 0


def test_from_plane_lifts_into_elevation_zero():
    b = from_plane([(0.1, -0.2), (0.3, 0.4)], [(1.0, 0.0), (0.0, -1.0)])
    assert np.allclose(b.pos[:, 1], 0.0)
    assert np.allclose(b.vel[:, 1], 0.0)
    assert b.pos[0, 0] == 0.1 and b.pos[0, 2] == -0.2
    assert b.vel[1, 2] == -1.0
    assert list(b.ids) == [0, 1]


def test_sample_bubbles_geometry_and_profile():
    v = VesselSpec(radius_r=0.4, v0=2.0, c_mb=200.0, axis_angle_rad=0.6,
                   center=(0.2, -0.1), length=3.0)
    rng = np.random.default_rng(12)
    b = sample_bubbles(v, rng, id_start=100)
    assert len(b) > 50
    c3 = np.array([0.2, 0.0, -0.1])
    rel = b.pos - c3
    s = rel @ v.axis_dir
    rho3 = np.linalg.norm(rel - s[:, None] * v.axis_dir[None, :], axis=1)
    assert np.all(rho3 <= v.radius_r + 1e-12)
    assert np.all(np.abs(s) <= 1.5 + 1e-12)
    # velocity along the axis with the parabolic magnitude at rho3
    speed = np.linalg.norm(b.vel, axis=1)
    assert np.allclose(speed, flow_speed(v, rho3), atol=1e-12)
    cross = np.linalg.norm(np.cross(b.vel, v.axis_dir), axis=1)
    assert np.all(cross <= 1e-12)
    assert b.ids[0] == 100 and len(set(b.ids.tolist())) == len(b)


def test_sample_bubbles_needs_length():
    v = VesselSpec(radius_r=0.1, v0=1.0, c_mb=1.0)
    with pytest.raises(ValueError):
        sample_bubbles(v, np.random.default_rng(0))
    # the length comes from the spec
    v2 = VesselSpec(radius_r=0.1, v0=1.0, c_mb=50.0, length=2.0)
    assert len(sample_bubbles(v2, np.random.default_rng(0))) > 0


def test_sample_bubbles_poisson_mean():
    length = 4.0
    v = VesselSpec(radius_r=0.5, v0=1.0, c_mb=100.0, length=length)
    mean = v.c_mb * math.pi * v.radius_r**2 * length
    rng = np.random.default_rng(5)
    counts = [len(sample_bubbles(v, rng)) for _ in range(200)]
    assert np.mean(counts) == pytest.approx(mean, rel=0.05)


def test_sample_circular_bubbles_torus_and_tangential():
    # the band orbits the origin
    band = CircularBandSpec(orbit_radius=1.5, radius_r=0.3, v0=2.0,
                            c_mb=100.0, spin=-1)
    b = sample_circular_bubbles(band, np.random.default_rng(9))
    assert len(b) > 100
    r_in_plane = np.hypot(b.pos[:, 0], b.pos[:, 2])
    rho = np.hypot(r_in_plane - band.orbit_radius, b.pos[:, 1])
    assert np.all(rho <= band.radius_r + 1e-12)
    # tangential: no radial velocity component
    radial = np.column_stack([b.pos[:, 0], b.pos[:, 2]])
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    v_plane = b.vel[:, [0, 2]]
    assert np.max(np.abs(np.einsum("ij,ij->i", radial, v_plane))) < 1e-10
    speed = np.linalg.norm(b.vel, axis=1)
    assert np.all(speed <= band.v0 + 1e-12)
    # spin -1 orbits clockwise in the (x, z) frame
    cross = (radial[:, 0] * v_plane[:, 1] - radial[:, 1] * v_plane[:, 0])
    assert np.all(cross[speed > 1e-9] < 0)


def test_advance_linear():
    b = from_plane([(0.0, 0.0)], [(2.0, -1.0)])
    out = advance(b, 0.25)
    assert np.allclose(out.pos[0], [0.5, 0.0, -0.25])
    assert np.allclose(out.vel, b.vel)
    with pytest.raises(ValueError):
        advance(b, 0.0)


def test_advance_circular_preserves_invariants():
    b = from_plane([(1.0, 0.0)], [(0.0, 0.5)])
    state = b
    for _ in range(100):
        state = advance(state, 0.05, center=(0.0, 0.0))
    assert np.hypot(state.pos[0, 0], state.pos[0, 2]) == pytest.approx(
        1.0, abs=1e-12)
    assert np.linalg.norm(state.vel[0]) == pytest.approx(0.5, abs=1e-12)
    # velocity stays tangential
    assert abs(np.dot(state.pos[0], state.vel[0])) < 1e-12
    with pytest.raises(ValueError):
        advance(from_plane([(0.0, 0.0)], [(0.0, 1.0)]), 0.1,
                center=(0.0, 0.0))


def test_advance_circular_small_step_is_linear():
    b = from_plane([(1.0, 0.0)], [(0.0, 1.0)])
    dt = 1e-6
    circ = advance(b, dt, center=(0.0, 0.0))
    lin = advance(b, dt)
    assert np.allclose(circ.pos, lin.pos, atol=1e-11)


def test_respawn_axial_wraps_with_offset_preserved():
    v = VesselSpec(radius_r=0.2, v0=1.0, c_mb=1.0, axis_angle_rad=0.3,
                   center=(0.1, 0.2), length=2.0)
    c3 = np.array([0.1, 0.0, 0.2])
    u = v.axis_dir
    w = v.perp_dir
    pos = c3 + 1.3 * u + 0.15 * w       # past the +L/2 = 1.0 outlet
    b = BubbleSet(pos[None, :], (0.7 * u)[None, :], np.array([4]))
    out = respawn_axial(b, v)
    rel = out.pos[0] - c3
    assert rel @ u == pytest.approx(-0.7)           # shifted by one length
    assert rel @ w == pytest.approx(0.15)           # cross offset kept
    assert np.allclose(out.vel, b.vel)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), angle=st.floats(0.0, math.pi),
       steps=st.integers(1, 40))
def test_respawn_keeps_bubbles_in_segment(seed, angle, steps):
    length = 2.0
    v = VesselSpec(radius_r=0.3, v0=3.0, c_mb=30.0, axis_angle_rad=angle,
                   length=length)
    rng = np.random.default_rng(seed)
    b = sample_bubbles(v, rng)
    for _ in range(steps):
        b = advance(b, 0.05)
        b = respawn_axial(b, v)
    if len(b):
        s = (b.pos - np.array([0.0, 0.0, 0.0])) @ v.axis_dir
        assert np.all(np.abs(s) <= length / 2.0 + 1e-9)


def test_render_frame_matches_psf_sum():
    grid = make_grid(41, 33, 0.05, 0.05)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.6, 0.6, size=(5, 2))
    b = from_plane(pts, np.zeros((5, 2)))
    frame = render_frame(b, grid, P)
    want = sum(render_psf(P, grid, mode="pre", center=(x, z))
               for x, z in pts)
    assert np.allclose(frame, want, atol=1e-12)
    assert render_frame(empty_bubbles(), grid, P).max() == 0.0


def _crossing(grid, rng):
    # two vessels at +-45 degrees, dense enough that each (n, nx or nz) work
    # array is above glibc's 128 KiB mmap threshold
    length = default_vessel_length(grid, P)
    vessels = [VesselSpec(radius_r=0.4, v0=40.0, c_mb=96.0,
                          axis_angle_rad=math.radians(a), length=length)
               for a in (45, -45)]
    first = sample_bubbles(vessels[0], rng)
    second = sample_bubbles(vessels[1], rng, id_start=len(first))
    bubbles = concat_bubbles([first, second])
    assert len(bubbles) * min(grid.nx, grid.nz) * 8 > 128 * 1024
    return bubbles, vessels


def _band(grid, rng):
    band = CircularBandSpec(orbit_radius=2.0, radius_r=0.4, v0=20.0,
                            c_mb=20.0)
    return sample_circular_bubbles(band, rng), band


@pytest.mark.parametrize("phantom", [
    _crossing, _band, lambda grid, rng: (empty_bubbles(), ())],
    ids=["crossing", "band", "empty"])
def test_synthesized_frames_equal_the_reference_render(phantom):
    # replay the motion and render each frame's bubbles with the
    # allocating oracle: the in-place render must give the same bytes
    grid = make_grid(64, 48, 0.1, 0.1)
    bubbles, flow = phantom(grid, np.random.default_rng(3))
    nt, dt = 8, 0.05
    stack, _ = synthesize_stack(bubbles, flow, grid, nt, dt, P)
    # a band orbits the origin; vessels respawn at their own lengths
    center = (0.0, 0.0) if isinstance(flow, CircularBandSpec) else None
    vessels = () if center is not None else tuple(flow)
    state = bubbles
    for t in range(nt):
        assert np.array_equal(stack.data[t], render_frame(state, grid, P))
        state = advance(state, dt, center)
        if vessels:
            state = _respawn_nearest(state, vessels)
    if not len(bubbles):
        assert np.all(stack.data == 0.0)
    else:
        assert not np.array_equal(stack.data[0], stack.data[-1])


def test_support_mask_straight_vessel():
    grid = make_grid(41, 41, 0.05, 0.05)
    # lateral through the origin, longer than the grid
    v = VesselSpec(radius_r=0.22, v0=1.0, c_mb=1.0, length=10.0)
    mask = truth_maps([v], grid)[0]
    Z = grid.meshgrid()[1]
    assert np.array_equal(mask, np.abs(Z) <= 0.22)
    # length clipping cuts the ends
    v2 = VesselSpec(radius_r=0.22, v0=1.0, c_mb=1.0, length=1.0)
    mask2 = truth_maps([v2], grid)[0]
    X = grid.meshgrid()[0]
    assert np.array_equal(mask2, (np.abs(Z) <= 0.22) & (np.abs(X) <= 0.5))


def test_circular_masks_and_maps():
    grid = make_grid(81, 81, 0.05, 0.05)
    band = CircularBandSpec(orbit_radius=1.2, radius_r=0.3, v0=2.0, c_mb=1.0)
    mask, speed, vx, vz = truth_maps(band, grid)
    X, Z = grid.meshgrid()
    assert np.array_equal(mask,
                          np.abs(np.hypot(X, Z) - 1.2) <= 0.3)
    assert np.all(speed[~mask] == 0.0)
    # peak speed on the orbit circle itself
    iz = grid.nz // 2
    ix = int(np.argmin(np.abs(grid.x_coords() - 1.2)))
    assert speed[iz, ix] == pytest.approx(2.0, abs=0.02)
    # tangential: v is perpendicular to the radius everywhere
    dot = X * vx + Z * vz
    assert np.max(np.abs(dot)) < 1e-9


def test_truth_maps_crossing_vessels():
    grid = make_grid(61, 61, 0.05, 0.05)
    fast = VesselSpec(radius_r=0.3, v0=2.0, c_mb=1.0, length=10.0)
    slow = VesselSpec(radius_r=0.3, v0=1.0, c_mb=1.0,
                      axis_angle_rad=math.pi / 2, length=10.0)
    mask, speed, vx, vz = truth_maps([fast, slow], grid)
    assert np.array_equal(mask, truth_maps([fast], grid)[0]
                          | truth_maps([slow], grid)[0])
    iz, ix = grid.nz // 2, grid.nx // 2
    # at the crossing the faster vessel wins
    assert speed[iz, ix] == pytest.approx(2.0)
    assert vx[iz, ix] == pytest.approx(2.0)
    assert vz[iz, ix] == pytest.approx(0.0)
    # away from the crossing each vessel keeps its own direction
    iz_off = int(np.argmin(np.abs(grid.z_coords() - 1.0)))
    assert speed[iz_off, ix] == pytest.approx(1.0)
    assert vz[iz_off, ix] == pytest.approx(1.0)


def test_synthesize_static_bubble_equals_rendered_psf():
    grid = make_grid(33, 33, 0.05, 0.05)
    b = from_plane([(0.12, -0.08)], [(0.0, 0.0)])
    stack, truth = synthesize_stack(b, (), grid, nt=3, dt=0.01, p=P)
    want = render_psf(P, grid, mode="pre", center=(0.12, -0.08))
    for t in range(3):
        assert np.allclose(stack.data[t], want, atol=1e-12)
    assert truth.dtype == TRUTH_DTYPE
    assert truth["t"].tolist() == [0, 1, 2]     # one point per frame
    assert truth["x"][0] == pytest.approx(0.12)


def test_synthesize_moving_bubble_truth_tracks_position():
    grid = make_grid(33, 33, 0.05, 0.05)
    b = from_plane([(-0.3, 0.0)], [(2.0, 1.0)])
    stack, truth = synthesize_stack(b, (), grid, nt=5, dt=0.05, p=P)
    assert truth["t"].tolist() == list(range(5))
    for t, _, x, z, vx, _ in truth.tolist():
        assert x == pytest.approx(-0.3 + 2.0 * t * 0.05)
        assert z == pytest.approx(1.0 * t * 0.05)
        assert vx == pytest.approx(2.0)


def test_synthesize_truth_drops_out_of_grid_points():
    grid = make_grid(21, 21, 0.05, 0.05)   # extent +-0.5
    b = from_plane([(0.45, 0.0)], [(3.0, 0.0)])
    stack, truth = synthesize_stack(b, (), grid, nt=4, dt=0.05, p=P)
    assert truth["t"].tolist() == [0]   # from frame 1 at x >= 0.6, outside


def test_synthesize_zero_bubbles_and_validation():
    grid = make_grid(17, 17, 0.05, 0.05)
    stack, _ = synthesize_stack(empty_bubbles(), (), grid, nt=2, dt=0.01,
                                p=P)
    assert np.all(stack.data == 0.0)
    with pytest.raises(ValueError):
        synthesize_stack(empty_bubbles(), (), grid, nt=2, dt=0.01,
                         p=P, noise_std=-1.0)
    with pytest.raises(ValueError):
        synthesize_stack(empty_bubbles(), (), grid, nt=2, dt=0.01,
                         p=P, noise_std=0.5)   # noise needs an rng


def test_synthesize_flow_sets_respawn_and_orbit():
    grid = make_grid(49, 49, 0.05, 0.05)   # extent +-1.2
    # each bubble leaves its own vessel's segment after one step and
    # respawns at that vessel's inlet, offset across the axis kept
    lateral = VesselSpec(radius_r=0.1, v0=1.0, c_mb=1.0, length=1.0)
    axial = VesselSpec(radius_r=0.1, v0=1.0, c_mb=1.0,
                       axis_angle_rad=math.pi / 2, center=(0.3, 0.0),
                       length=1.0)
    b = from_plane([(0.45, 0.02), (0.3, 0.45)], [(1.0, 0.0), (0.0, 1.0)])
    _, truth = synthesize_stack(b, [lateral, axial], grid, nt=2, dt=0.1,
                                p=P)
    assert xz_of_frame(truth, 1) == pytest.approx(
        np.array([[-0.45, 0.02], [0.3, -0.45]]))
    _, free = synthesize_stack(b, (), grid, nt=2, dt=0.1, p=P)
    assert xz_of_frame(free, 1) == pytest.approx(
        np.array([[0.55, 0.02], [0.3, 0.55]]))
    # a band keeps its bubbles on their orbit about the origin
    band = CircularBandSpec(orbit_radius=0.9, radius_r=0.2, v0=1.0, c_mb=1.0)
    b = from_plane([(0.9, 0.0)], [(0.0, 1.0)])
    _, truth = synthesize_stack(b, band, grid, nt=20, dt=0.05, p=P)
    radius = np.hypot(truth["x"], truth["z"])
    assert radius == pytest.approx(np.full(20, 0.9), abs=1e-12)
    assert truth["z"][-1] > 0.5              # the bubble did move


def xz_of_frame(truth, t):
    """(n, 2) positions of the truth table's rows of frame t."""
    rows = truth[truth["t"] == t]
    return np.column_stack([rows["x"], rows["z"]])


def test_truth_csv_roundtrip(tmp_path):
    grid = make_grid(33, 33, 0.05, 0.05)
    b = from_plane([(0.1, 0.2), (-0.3, 0.0)], [(1.0, 0.5), (0.0, -2.0)])
    _, truth = synthesize_stack(b, (), grid, nt=3, dt=0.02, p=P)
    path = save_truth_csv(truth, tmp_path / "truth.csv")
    back = load_truth_csv(path)
    assert back.dtype == TRUTH_DTYPE
    assert back["t"].tolist() == truth["t"].tolist() == [0, 0, 1, 1, 2, 2]
    assert set(back["id"].tolist()) == {0, 1}
    for name in TRUTH_DTYPE.names:
        assert np.allclose(back[name], truth[name], rtol=1e-8)


def test_truth_csv_bytes_and_values(tmp_path):
    # row-by-row csv.writer with "%.9g" fields is the reference format;
    # values read back equal Python's parse of each field
    rng = np.random.default_rng(4)
    frames = [np.column_stack([np.arange(n), rng.normal(scale=s, size=(n, 4))])
              for n, s in ((3, 1.0), (0, 1.0), (2, 1e-7), (4, 1e5))]
    frames[2][0, 1:] = [-0.0, 1.0, np.pi, 2.0**-40]
    truth = np.empty(sum(map(len, frames)), TRUTH_DTYPE)
    truth["t"] = np.repeat(np.arange(4), [len(f) for f in frames])
    for name, column in zip(TRUTH_DTYPE.names[1:], np.vstack(frames).T):
        truth[name] = column
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_index", "id", "x_mm", "z_mm", "vx_mm_s",
                         "vz_mm_s"])
        for t, pts in enumerate(frames):
            for row in pts:
                writer.writerow([t, int(row[0])]
                                + [f"{v:.9g}" for v in row[1:]])
    path = save_truth_csv(truth, tmp_path / "truth.csv")
    assert path.read_bytes() == want.read_bytes()
    back = load_truth_csv(path)
    with open(want, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert back.dtype == TRUTH_DTYPE
    assert np.bincount(back["t"]).tolist() == [3, 0, 2, 4]
    parsed = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(
        np.column_stack([back[name] for name in TRUTH_DTYPE.names]), parsed)


def test_truth_csv_without_points(tmp_path):
    path = save_truth_csv(np.empty(0, TRUTH_DTYPE), tmp_path / "truth.csv")
    assert path.read_bytes() == b"t_index,id,x_mm,z_mm,vx_mm_s,vz_mm_s\r\n"
    back = load_truth_csv(path)
    assert back.dtype == TRUTH_DTYPE and back.shape == (0,)


def test_default_vessel_length_covers_grid():
    grid = make_grid(41, 21, 0.05, 0.05)
    wx, wz = grid.extent_mm
    assert default_vessel_length(grid, P) == pytest.approx(
        math.hypot(wx, wz) + 8 * P.sigma_r)
