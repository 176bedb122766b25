import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import autocorr_peak, eval_autocorr
from velofilt.core import make_grid
from velofilt.psf import (PsfParams, ToParams, autocorr_theory,
                          eval_post_envelope, eval_pre_envelope,
                          eval_to_envelope, eval_to_psf, render_psf,
                          to_transfer)

P = PsfParams(sigma_r=0.3, wavelength=0.3)
T = ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=0.3)


def test_envelope_peak_and_mass():
    assert eval_post_envelope(P, 0.0, 0.0) == pytest.approx(P.g_e_peak)
    assert P.g_e_peak == pytest.approx(1.0 / (2 * math.pi * 0.09))
    mass, _ = scipy.integrate.dblquad(
        lambda z, x: float(eval_post_envelope(P, x, z)),
        -2.0, 2.0, -2.0, 2.0)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_pre_envelope_is_envelope_times_carrier():
    xs = np.linspace(-0.5, 0.5, 11)
    zs = np.linspace(-0.5, 0.5, 11)
    X, Z = np.meshgrid(xs, zs)
    want = eval_post_envelope(P, X, Z) * np.cos(2 * math.pi * Z / P.wavelength)
    assert np.allclose(eval_pre_envelope(P, X, Z), want, atol=1e-14)


def test_pre_envelope_carrier_zero_crossings():
    # first axial null at a quarter wavelength
    assert eval_pre_envelope(P, 0.0, P.wavelength / 4) == pytest.approx(0.0,
                                                                        abs=1e-15)
    assert eval_pre_envelope(P, 0.0, P.wavelength / 2) < 0


def test_params_validation():
    with pytest.raises(ValueError):
        PsfParams(sigma_r=0.0, wavelength=0.3)
    with pytest.raises(ValueError):
        PsfParams(sigma_r=0.3, wavelength=-1.0)


def test_render_matches_pointwise_eval():
    grid = make_grid(21, 21, 0.05, 0.05)
    X, Z = grid.meshgrid()
    for mode, func in (("pre", eval_pre_envelope), ("post", eval_post_envelope)):
        img = render_psf(P, grid, mode=mode)
        assert img.shape == (21, 21)
        assert np.allclose(img, func(P, X, Z), atol=1e-14)


def test_to_transfer_lobes():
    kx = np.array([0.0, T.k0x, -T.k0x])
    gain = to_transfer(T, kx)
    assert gain[1] == pytest.approx(gain[2])  # even in kx
    # at a lobe centre one exponential is 1 and the other is negligible
    assert gain[1] == pytest.approx(1.0, abs=1e-6)
    # DC sits in the gap between the lobes
    assert gain[0] < 0.05 * gain[1]
    # far outside both lobes the gain dies
    assert float(to_transfer(T, np.array([5 * T.k0x]))[0]) < 1e-12


def test_to_psf_structure():
    # lateral carrier appears on top of the pre-envelope structure
    x = np.linspace(-0.6, 0.6, 41)
    vals = eval_to_psf(P, T, x, 0.0)
    assert np.allclose(vals, vals[::-1], atol=1e-12)  # symmetric in x
    env = eval_to_envelope(P, T, x, 0.0)
    assert np.all(np.abs(vals) <= env + 1e-12)
    # realized lateral wavelength is stretched by 1 + sigma_r^2/sigma_x^2
    assert T.lambda_x_tilde == pytest.approx(
        (1 + P.sigma_r**2 / T.sigma_x**2) * T.lambda_x)


def test_to_peak_fraction():
    # the lateral band-pass keeps c_to of the original peak
    peak = float(eval_to_psf(P, T, 0.0, 0.0))
    assert peak == pytest.approx(T.c_to * P.g_e_peak, rel=1e-12)
    assert 0.0 < T.c_to < 1.0


def test_autocorr_closed_form_vs_numeric():
    # R_g = (pre PSF) correlated with itself, evaluated by fine-grid sums
    grid = make_grid(161, 161, 0.02, 0.02)
    img = render_psf(P, grid, mode="pre")
    num = (img * img).sum() * grid.dx * grid.dz
    assert num == pytest.approx(autocorr_peak(autocorr_theory(P)), rel=1e-4)
    # a one-pixel axial lag against the closed form
    shifted = np.roll(img, 1, axis=0)
    num_lag = (img * shifted).sum() * grid.dx * grid.dz
    assert num_lag == pytest.approx(float(eval_autocorr(P, 0.0, grid.dz)),
                                    rel=1e-3)


def test_autocorr_peak_dominates_lags():
    mf = autocorr_theory(P)
    lags = np.linspace(-1.0, 1.0, 201)
    vals = eval_autocorr(P, np.zeros_like(lags), lags)
    assert vals.max() == pytest.approx(autocorr_peak(mf), rel=1e-9)
    # axial replicas at one wavelength sit well below the peak
    replica = float(eval_autocorr(P, 0.0, P.wavelength))
    assert 0.5 < replica / autocorr_peak(mf) < 0.9


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-1.5, 1.5), z=st.floats(-1.5, 1.5),
       frac=st.floats(0.1, 0.99))
def test_envelope_radial_monotone(x, z, frac):
    r_out = float(eval_post_envelope(P, x, z))
    r_in = float(eval_post_envelope(P, frac * x, frac * z))
    assert r_in >= r_out - 1e-15


@settings(max_examples=25, deadline=None)
@given(sigma_r=st.floats(0.05, 1.0), wavelength=st.floats(0.05, 1.0))
def test_autocorr_peak_positive_and_bounded(sigma_r, wavelength):
    p = PsfParams(sigma_r=sigma_r, wavelength=wavelength)
    mf = autocorr_theory(p)
    assert 0 < autocorr_peak(mf) <= p.g_e_peak
    # c_g underflows to 0.0 for very tight carriers; that is fine
    assert 0 <= mf.c_g <= 0.5
