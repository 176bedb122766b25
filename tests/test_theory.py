import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import (autocorr_peak, eta, joint_density, mf_peak, q_post,
                          q_pre, to_q, zeta)
from oracles import band_density_quad, filtered_response_quad, projected_density_ref
from velofilt.core import make_grid
from velofilt.phantom import VesselSpec
from velofilt.psf import PsfParams, ToParams, autocorr_theory, render_psf
from velofilt.theory import (AcqBoundInput, acquisition_time_bound,
                             apparent_density, attenuation_pre,
                             filtered_density, make_noise_spec, nrf_bound,
                             to_attenuation, velocity_bandwidth)

P = PsfParams(sigma_r=0.3, wavelength=0.3)
T = ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=0.3)

# mismatches spanning lateral, axial and oblique directions
DVS = [(0.0, 0.0), (0.6, 0.0), (0.0, 0.6), (0.5, -0.8), (-1.2, 0.4)]
POINTS = [(0.0, 0.0), (0.2, 0.1), (-0.15, 0.3), (0.4, -0.35)]


@pytest.mark.parametrize("dv", DVS)
def test_q_pre_matches_window_quadrature(dv):
    for x, z in POINTS:
        want = filtered_response_quad(x, z, dv, P, 0.5, mode="pre")
        got = float(q_pre(x, z, dv, P, 0.5))
        assert got == pytest.approx(want, abs=1e-8 * P.g_e_peak)


@pytest.mark.parametrize("dv", DVS)
def test_q_post_matches_window_quadrature(dv):
    for x, z in POINTS:
        want = filtered_response_quad(x, z, dv, P, 0.5, mode="post")
        got = float(q_post(x, z, dv, P, 0.5))
        assert got == pytest.approx(want, abs=1e-8 * P.g_e_peak)


@pytest.mark.parametrize("dv", DVS)
def test_to_q_matches_window_quadrature(dv):
    for x, z in POINTS:
        want = filtered_response_quad(x, z, dv, P, 0.5, mode="to", to=T)
        got = float(to_q(x, z, dv, P, T, 0.5))
        assert got == pytest.approx(want, abs=1e-8 * P.g_e_peak)


def test_gamma_is_peak_value():
    # the on-bubble value of the filtered pre PSF is gamma * g_e(0)
    for dv in DVS:
        rep = attenuation_pre(P, 0.5, dv)
        assert float(q_pre(0.0, 0.0, dv, P, 0.5)) == pytest.approx(
            rep.gamma * P.g_e_peak, rel=1e-12)
    assert attenuation_pre(P, 0.5, (0.0, 0.0)).gamma == 1.0


def test_report_shape_functions():
    rep = attenuation_pre(P, 0.5, (0.8, 0.0))
    assert rep.kappa == pytest.approx(0.5 * 0.8 / 0.3)
    assert rep.ratio_vrt == pytest.approx(0.6)
    # no shrink perpendicular to the mismatch, strongest along it
    assert float(eta(rep, math.pi / 2)) == pytest.approx(1.0)
    assert float(eta(rep, 0.0)) == pytest.approx(
        1.0 / math.sqrt(1.0 + rep.kappa**2))
    assert float(zeta(rep, 0.0, 0.0)) == 0.0
    # lateral mismatch leaves the axial carrier in place
    assert np.allclose(zeta(rep, np.linspace(-1, 1, 5), 0.3), 0.0)


def test_attenuation_rejects_bad_sigma_t():
    with pytest.raises(ValueError):
        attenuation_pre(P, 0.0, (0.1, 0.0))


def test_mf_peak_matches_numeric_zero_lag_correlation():
    grid = make_grid(201, 201, 0.02, 0.02)
    X, Z = grid.meshgrid()
    clean = render_psf(P, grid, mode="pre")
    for dv in [(0.0, 0.0), (0.4, 0.0), (0.0, 0.4), (0.3, -0.3)]:
        q = q_pre(X, Z, dv, P, 0.5)
        num = float((q * clean).sum()) * grid.dx * grid.dz
        assert num == pytest.approx(mf_peak(dv, P, 0.5), rel=1e-4)


def test_mf_peak_at_zero_is_autocorr_peak():
    assert mf_peak((0.0, 0.0), P, 0.5) == pytest.approx(
        autocorr_peak(autocorr_theory(P)), rel=1e-12)


def test_passband_lateral_root_is_sqrt6():
    for sigma_t in (0.25, 0.5, 1.0):
        for p in (P, PsfParams(sigma_r=0.2, wavelength=0.45)):
            band = velocity_bandwidth(p, sigma_t, theta=0.0)
            assert band.kappa_delta_v == pytest.approx(math.sqrt(6.0),
                                                       abs=1e-9)
            assert band.delta_v == pytest.approx(
                math.sqrt(6.0) * p.sigma_r / sigma_t, rel=1e-9)


def test_passband_axial_root_value():
    band = velocity_bandwidth(P, 0.5, theta=math.pi / 2)
    assert band.kappa_delta_v == pytest.approx(0.18784, abs=1e-4)


def test_passband_narrows_toward_axial():
    kappas = [velocity_bandwidth(P, 0.5, theta=t).kappa_delta_v
              for t in np.linspace(0.0, math.pi / 2, 7)]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))


def test_passband_edge_is_half_maximum():
    # the defining property: matched-filter peak drops to half at the edge
    peak0 = mf_peak((0.0, 0.0), P, 0.5)
    for theta in (0.0, 0.4, 1.0, math.pi / 2):
        band = velocity_bandwidth(P, 0.5, theta=theta)
        dv = (band.delta_v * math.cos(theta), band.delta_v * math.sin(theta))
        assert mf_peak(dv, P, 0.5) == pytest.approx(0.5 * peak0, rel=1e-9)


def test_passband_interval_and_validation():
    # a filter at v_f passes v_f -+ delta_v, delta_v = kappa sigma_r / sigma_t
    band = velocity_bandwidth(P, 0.5)
    assert band.delta_v == band.kappa_delta_v * P.sigma_r / 0.5
    with pytest.raises(ValueError):
        velocity_bandwidth(P, -1.0)


VESSEL = VesselSpec(radius_r=1.0, v0=5.0, c_mb=1000.0)


def test_apparent_density_is_chord_projection():
    rho = np.linspace(-1.2, 1.2, 41)
    assert np.allclose(apparent_density(rho, VESSEL),
                       projected_density_ref(rho, VESSEL), atol=1e-12)
    assert float(apparent_density(0.0, VESSEL)) == pytest.approx(2000.0)
    assert float(apparent_density(1.0, VESSEL)) == 0.0


def test_joint_density_marginalizes_to_apparent():
    for rho in (0.0, 0.3, 0.7, 0.95):
        total = band_density_quad(rho, 0.0, VESSEL.v0, VESSEL)
        assert total == pytest.approx(float(apparent_density(rho, VESSEL)),
                                      rel=1e-10)


def test_joint_density_is_band_derivative():
    # d/dv of the in-band count recovers the joint density
    h = 1e-6
    for rho, v in [(0.0, 1.0), (0.3, 2.0), (0.5, 3.0)]:
        num = (band_density_quad(rho, 0.0, v + h, VESSEL)
               - band_density_quad(rho, 0.0, v - h, VESSEL)) / (2 * h)
        assert num == pytest.approx(float(joint_density(v, rho, VESSEL)),
                                    rel=1e-5)


def test_joint_density_edges():
    vmax = VESSEL.v0 * (1.0 - 0.3**2)
    assert float(joint_density(vmax, 0.3, VESSEL)) == math.inf
    assert float(joint_density(vmax + 1e-9, 0.3, VESSEL)) == 0.0
    assert float(joint_density(-0.1, 0.3, VESSEL)) == 0.0
    assert float(joint_density(1.0, 1.5, VESSEL)) == 0.0


def test_filtered_density_matches_band_quadrature():
    for rho in (0.0, 0.25, 0.6, 0.9):
        for v_f, dv in [(1.0, 0.5), (4.0, 1.0), (0.2, 0.6), (6.0, 0.5)]:
            want = band_density_quad(rho, v_f - dv, v_f + dv, VESSEL)
            got = float(filtered_density(rho, v_f, dv, VESSEL))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_filtered_density_validation():
    with pytest.raises(ValueError):
        filtered_density(0.0, 1.0, -0.1, VESSEL)


def test_to_attenuation_identity_at_zero():
    rep = to_attenuation((0.0, 0.0), P, T, 0.5)
    assert rep.gamma_bar == pytest.approx(1.0)
    assert np.allclose(rep.xi, np.eye(2))
    assert rep.kappa_tilde_sq == 0.0


def test_to_attenuation_carrier_symmetry():
    # pure lateral or pure axial mismatch hits both carriers equally
    for dv in [(0.7, 0.0), (0.0, 0.7)]:
        rep = to_attenuation(dv, P, T, 0.5)
        assert rep.gamma1 == pytest.approx(rep.gamma2, rel=1e-12)
    # oblique mismatch splits them
    rep = to_attenuation((0.5, 0.5), P, T, 0.5)
    assert rep.gamma1 != pytest.approx(rep.gamma2, rel=1e-3)


def test_to_lateral_suppression_beats_pre():
    # the lateral carrier gives TO real lateral selectivity where the plain
    # pre PSF only has the envelope term
    dv = (1.5, 0.0)
    pre = attenuation_pre(P, 0.5, dv).gamma
    to = to_attenuation(dv, P, T, 0.5).gamma_bar
    assert to < pre


def test_nrf_bound_values():
    spec = make_noise_spec(n0=1.0, k_g=2.0 * math.pi / 0.3, v0_max=10.0,
                           frame_rate_f=100.0)
    b = nrf_bound(spec, 0.5)
    want_flow = (2.0 / math.sqrt(math.pi)) * spec.omega_max * 0.5
    assert b.flow_form == pytest.approx(want_flow, rel=1e-12)
    assert b.flow_form == pytest.approx(118.1636, abs=1e-3)
    assert b.flow_form_db == pytest.approx(20.725, abs=1e-3)
    assert b.frame_rate_form == pytest.approx(177.2454, abs=1e-3)
    assert b.frame_rate_form_db == pytest.approx(22.486, abs=1e-3)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        make_noise_spec(n0=0.0, k_g=1.0, v0_max=1.0, frame_rate_f=1.0)
    from velofilt.theory import NoiseSpec
    with pytest.raises(ValueError):
        NoiseSpec(n0=1.0, k_g=2.0, v0_max=3.0, omega_max=5.0,
                  frame_rate_f=100.0)


def test_acquisition_time_bound():
    a = AcqBoundInput(flow_rate_q=3.0, diameter_d=1.0, c_mb=100.0, i_pix=0.1)
    assert acquisition_time_bound(a) == pytest.approx(1.0 / 30.0)
    # Q ~ d^4 at fixed pressure drop: halving d costs 8x the time
    b = AcqBoundInput(flow_rate_q=3.0 / 16.0, diameter_d=0.5, c_mb=100.0,
                      i_pix=0.1)
    assert acquisition_time_bound(b) == pytest.approx(
        8.0 * acquisition_time_bound(a))


def test_acquisition_bound_warns_on_coarse_pixels():
    with pytest.warns(UserWarning):
        AcqBoundInput(flow_rate_q=1.0, diameter_d=1.0, c_mb=10.0, i_pix=0.5)
    with pytest.raises(ValueError):
        AcqBoundInput(flow_rate_q=-1.0, diameter_d=1.0, c_mb=10.0, i_pix=0.1)


@settings(max_examples=60, deadline=None)
@given(dvx=st.floats(-3.0, 3.0), dvz=st.floats(-3.0, 3.0),
       scale=st.floats(1.0, 5.0), sigma_t=st.floats(0.05, 2.0))
# a one-ulp step along the ray, where the closed form rounds 3e-15 upwards
@example(dvx=0.0, dvz=2.0, scale=1.0000000000000002, sigma_t=2.0)
def test_gamma_monotone_along_rays(dvx, dvz, scale, sigma_t):
    g1 = attenuation_pre(P, sigma_t, (dvx, dvz)).gamma
    g2 = attenuation_pre(P, sigma_t, (scale * dvx, scale * dvz)).gamma
    # gamma is monotone in exact arithmetic; allow last-ulp rounding
    assert 0.0 < g2 <= g1 * (1.0 + 1e-12)
    assert g1 <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(dvx=st.floats(-3.0, 3.0), dvz=st.floats(-3.0, 3.0),
       theta=st.floats(0.0, math.pi))
def test_eta_bounds(dvx, dvz, theta):
    rep = attenuation_pre(P, 0.5, (dvx, dvz))
    shrink = float(eta(rep, theta))
    assert 0.0 < shrink <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(dvx=st.floats(-2.0, 2.0), dvz=st.floats(-2.0, 2.0))
def test_to_gamma_bar_bounded(dvx, dvz):
    rep = to_attenuation((dvx, dvz), P, T, 0.5)
    assert 0.0 < rep.gamma_bar <= 1.0 + 1e-12
    assert rep.gamma1 > 0 and rep.gamma2 > 0


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(-1.5, 1.5), v_f=st.floats(0.0, 8.0),
       dv=st.floats(0.0, 4.0))
def test_filtered_density_between_zero_and_apparent(rho, v_f, dv):
    filt = float(filtered_density(rho, v_f, dv, VESSEL))
    assert 0.0 <= filt <= float(apparent_density(rho, VESSEL)) + 1e-12
