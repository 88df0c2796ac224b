"""Admissibility margin at the contact-height slice of the unit ball."""

import numpy as np
import pytest

from capflow.condition import (
    ConditionError,
    condition_check,
    condition_margin,
    condition_margin_translated,
    scan_max_omega,
    slice_frame,
    slice_frames,
)
from capflow.norms import make_norm
from capflow.wulff import TranslatedNorm

SPHERE = make_norm("sphere")
A2 = make_norm("quartic_a2")
A3 = make_norm("quartic_a3", [0.3])
SPHERE4 = make_norm("sphere", dim=4)
CUSTOM_A2 = make_norm("custom", f0_expr="((x^2+y^2+z^2)*(x^2+y^2)+z^4)^(1/4)")
QUARTIC4 = make_norm(
    "custom", f0_expr="((x^2+y^2+z^2+w^2)*(x^2+y^2+z^2)+w^4)^(1/4)", dim=4
)


def a2_margin_closed_form(omega0: float) -> float:
    """Slice margin of the rotationally symmetric quartic, by hand.

    On the slice z = -omega0 of the unit ball with s = x^2 + y^2, the
    margin works out to -omega0 (2 + 3 s omega0^2) / (2 + 9 s omega0^2),
    independent of the slice angle.
    """
    # s from the level-set equation (s + w^2) s + w^4 = 1 at height w = -omega0
    w2 = omega0 * omega0
    s = (-w2 + np.sqrt(w2 * w2 + 4.0 * (1.0 - w2**2))) / 2.0
    return -omega0 * (2.0 + 3.0 * s * w2) / (2.0 + 9.0 * s * w2)


class TestFrame:
    def test_orthogonality(self):
        fr = slice_frame(A2, -0.3, 0.7)
        assert fr.nu @ fr.mu == pytest.approx(0.0, abs=1e-12)
        for t in fr.tangents:
            assert fr.nu @ t == pytest.approx(0.0, abs=1e-12)
            assert fr.mu @ t == pytest.approx(0.0, abs=1e-12)

    def test_conormal_points_down(self):
        fr = slice_frame(A2, -0.3, 1.2)
        assert fr.mu[2] < 0.0

    def test_slice_point_on_ball_at_height(self):
        fr = slice_frame(A2, -0.3, 0.4)
        assert A2.f0(fr.z) == pytest.approx(1.0, abs=1e-10)
        assert fr.z[2] == pytest.approx(0.3, abs=1e-10)

    def test_empty_slice(self):
        with pytest.raises(ConditionError):
            slice_frame(SPHERE, -1.2, 0.0)


class TestMargin:
    def test_sphere_margin_is_minus_omega(self):
        # round ball: Q = 0, so the margin reduces to -omega0
        for omega0 in (-0.5, -0.1, 0.2):
            fr = slice_frame(SPHERE, omega0, 0.3)
            assert condition_margin(SPHERE, omega0, fr) == pytest.approx(
                -omega0, abs=1e-10
            )

    @pytest.mark.parametrize("omega0", [-0.45, -0.2, 0.1, 0.35])
    def test_quartic_closed_form(self, omega0):
        fr = slice_frame(A2, omega0, 0.9)
        margin = condition_margin(A2, omega0, fr)
        assert margin == pytest.approx(a2_margin_closed_form(omega0), abs=1e-9)

    def test_translated_form_sign_agreement(self):
        for omega0 in (-0.4, -0.1, 0.1, 0.4):
            tn = TranslatedNorm(A2, omega0)
            fr = slice_frame(A2, omega0, 1.0)
            m = condition_margin(A2, omega0, fr)
            mt = condition_margin_translated(tn, fr)
            if abs(m) > 1e-6:
                assert np.sign(m) == np.sign(mt)

    def test_a3_equality_at_shift(self):
        # shifting the quartic down by z0 moves the threshold to exactly z0
        z0 = 0.3
        a3 = make_norm("quartic_a3", [z0])
        fr = slice_frame(a3, z0, 0.5)
        assert condition_margin(a3, z0, fr) == pytest.approx(0.0, abs=1e-10)


class TestCheck:
    def test_sphere_accepts_negative(self):
        rep = condition_check(SPHERE, -0.5, slice_samples=32)
        assert rep.satisfied
        assert rep.min_margin == pytest.approx(0.5, abs=1e-9)
        assert rep.both_forms_agree

    def test_quartic_rejects_positive(self):
        rep = condition_check(A2, 0.1, slice_samples=32)
        assert not rep.satisfied
        assert rep.min_margin < -1e-3

    def test_quartic_accepts_negative(self):
        rep = condition_check(A2, -0.3, slice_samples=32)
        assert rep.satisfied and rep.both_forms_agree

    def test_report_samples_complete(self):
        rep = condition_check(A2, -0.2, slice_samples=16)
        assert len(rep.samples) == 16
        assert all(np.isfinite(s["margin"]) for s in rep.samples)


class TestScan:
    def test_sphere_threshold_zero(self):
        w = scan_max_omega(SPHERE, (-0.2, 0.5), slice_samples=16)
        assert abs(w) <= 1e-3

    def test_quartic_threshold_zero(self):
        w = scan_max_omega(A2, (-0.2, 0.5), slice_samples=16)
        assert abs(w) <= 1e-3

    def test_bad_bracket(self):
        with pytest.raises(ConditionError):
            scan_max_omega(SPHERE, (0.5, -0.5))


def sample_margins(rep):
    return np.array([s["margin"] for s in rep.samples])


class TestBatchedCheck:
    @pytest.mark.parametrize("omega0", [-0.45, -0.2, 0.1, 0.35])
    def test_quartic_every_sample_closed_form(self, omega0):
        rep = condition_check(A2, omega0, slice_samples=64)
        np.testing.assert_allclose(
            sample_margins(rep), a2_margin_closed_form(omega0), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("omega0", [-0.5, -0.1, 0.2])
    def test_sphere_every_sample_minus_omega(self, omega0):
        rep = condition_check(SPHERE, omega0, slice_samples=64)
        np.testing.assert_allclose(sample_margins(rep), -omega0, rtol=0, atol=1e-10)

    def test_a3_every_sample_equality(self):
        rep = condition_check(A3, 0.3, slice_samples=64)
        assert np.abs(sample_margins(rep)).max() <= 1e-10

    @pytest.mark.parametrize(
        "norm, omega0",
        [(A2, -0.3), (A2, 0.35), (A3, 0.3), (SPHERE, 0.2), (SPHERE4, -0.3), (QUARTIC4, -0.3),
         (CUSTOM_A2, -0.3)],
    )
    def test_frame_invariants(self, norm, omega0):
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(40, norm.d))
        dirs[:, -1] = 0.0
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        fr, _, _ = slice_frames(norm, omega0, dirs)
        np.testing.assert_allclose(norm.f0_many(fr.z), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fr.z[:, -1], -omega0, rtol=0, atol=1e-12)
        assert np.abs(np.einsum("ni,ni->n", fr.nu, fr.mu)).max() <= 1e-12
        assert fr.tangents.shape == (40, norm.d - 2, norm.d)
        assert np.abs(np.einsum("ni,nmi->nm", fr.nu, fr.tangents)).max() <= 1e-12
        assert np.abs(np.einsum("ni,nmi->nm", fr.mu, fr.tangents)).max() <= 1e-12
        assert np.all(fr.mu[:, -1] < 0.0)
        # a slice point is the Cahn-Hoffman point of its own normal, which
        # stands in for a dual solve at the normals; the solve here runs to
        # round-off, since at DUAL_TOL its values carry ~1e-14 of Newton error
        f_val, zmax, _, ok = norm.support_many(fr.nu, tol=1e-15)
        assert np.all(ok)
        np.testing.assert_allclose(fr.f_of_nu, f_val, rtol=0, atol=1e-14)
        np.testing.assert_allclose(fr.z / norm.f0_many(fr.z)[:, None], zmax, rtol=0, atol=1e-14)

    def test_one_row_view_matches_batch(self):
        angles = np.array([0.4, 2.5])
        dirs = np.stack([np.cos(angles), np.sin(angles), np.zeros(2)], axis=1)
        batch, _, _ = slice_frames(A2, -0.3, dirs)
        for k, a in enumerate(angles):
            fr = slice_frame(A2, -0.3, a)
            np.testing.assert_array_equal(fr.z, batch.z[k])
            np.testing.assert_array_equal(fr.mu, batch.mu[k])
            np.testing.assert_array_equal(fr.af_mu, batch.af_mu[k])


class TestFourDimensions:
    def test_sphere_margin_is_minus_omega(self):
        rep = condition_check(SPHERE4, -0.3, slice_samples=48)
        np.testing.assert_allclose(sample_margins(rep), 0.3, rtol=0, atol=1e-10)
        assert rep.satisfied and rep.both_forms_agree

    def test_quartic_accepts_negative(self):
        rep = condition_check(QUARTIC4, -0.3, slice_samples=48)
        assert rep.satisfied and rep.both_forms_agree
