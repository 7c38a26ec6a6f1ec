"""Monte-Carlo verification of the robustness analysis."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from tagsum.errors import ValidationError
from tagsum.theory import (
    LinearRep,
    ToyDomain,
    alignment_loss_mc,
    estimate_bound_constant,
    invariant_alignment_mc,
    risk_mc,
    verify_proposition,
    verify_theorem_bound,
)


class TestAlignmentLoss:
    def test_t_zero_is_exactly_zero(self):
        estimate = alignment_loss_mc(LinearRep(t=0.0), 10_000, seed=0)
        assert estimate.value == 0.0

    def test_published_value_at_t_tenth(self):
        estimate = alignment_loss_mc(LinearRep(t=0.1), 1_000_000, seed=0)
        assert abs(estimate.value - 0.02) < 1e-3

    def test_closed_form_for_random_t(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            t = float(rng.uniform(0.01, 1.0))
            estimate = alignment_loss_mc(LinearRep(t=t), 100_000, seed=trial)
            assert abs(estimate.value - 2 * t * t) <= 3 * estimate.stderr

    def test_sample_floor(self):
        with pytest.raises(ValidationError):
            alignment_loss_mc(LinearRep(t=0.5), 100)


def closed_form_risk(t, m, weight=1.0, threshold=0.0):
    """Oracle via bivariate-normal probabilities: risk of predicting
    sign(w (z1 + t m z2) - b) against truth z1 >= 0.

    With u = b / sigma_score and rho = corr(z1, score):
    risk = Phi(u) + 1/2 - 2 Phi2(0, u; rho).
    """
    from scipy.stats import norm

    sigma = abs(weight) * math.sqrt(1 + (t * m) ** 2)
    rho = weight / sigma
    u = threshold / sigma
    joint_low = multivariate_normal.cdf([0.0, u], mean=[0, 0],
                                        cov=[[1.0, rho], [rho, 1.0]])
    return norm.cdf(u) + 0.5 - 2.0 * joint_low


class TestRisk:
    def test_identity_domain_zero_risk(self):
        estimate = risk_mc(LinearRep(t=0.1), ToyDomain(scale=0.0), 100_000, seed=0)
        assert estimate.value == 0.0

    def test_quarter_risk_at_inverse_t(self):
        estimate = risk_mc(LinearRep(t=0.1), ToyDomain(scale=10.0),
                           1_000_000, seed=1)
        assert abs(estimate.value - 0.25) < 0.005

    def test_degenerate_rep_and_domain(self):
        estimate = risk_mc(LinearRep(t=0.0), ToyDomain(scale=0.0), 10_000, seed=2)
        assert estimate.value == 0.0

    def test_against_orthant_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            t = float(rng.uniform(0.1, 1.0))
            m = float(rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(-0.3, 0.3))
            rep = LinearRep(t=t, weight=1.0, threshold=b)
            estimate = risk_mc(rep, ToyDomain(scale=m), 200_000, seed=trial)
            expected = closed_form_risk(t, m, 1.0, b)
            assert abs(estimate.value - expected) <= max(4 * estimate.stderr, 1e-3)

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError):
            LinearRep(t=0.1, weight=0.0)


class TestProposition:
    def test_published_zeta(self):
        report = verify_proposition(0.04, n_samples=1_000_000, seed=0)
        assert report.passed
        assert abs(report.alignment.value - 0.02) < 1e-3
        assert abs(report.risk_gap - 0.25) < 0.005
        assert report.alignment.value < 0.04

    def test_infinite_zeta_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            verify_proposition(math.inf, n_samples=10_000)

    def test_large_zeta(self):
        report = verify_proposition(1.0, n_samples=200_000, seed=1)
        assert report.passed

    def test_tiny_zeta_with_more_samples(self):
        report = verify_proposition(1e-4, n_samples=2_000_000, seed=2)
        assert report.passed
        assert report.alignment.value < 1e-4

    def test_rejects_nonpositive_zeta(self):
        with pytest.raises(ValidationError):
            verify_proposition(0.0)

    def test_report_text(self):
        report = verify_proposition(0.04, n_samples=100_000, seed=0)
        text = report.to_text()
        assert "PASS" in text and "0.25" in text


class TestInvariantAlignment:
    def test_monotone_in_grid(self):
        rep = LinearRep(t=0.5)
        grids = ([0.0], [0.0, 1.0], [-1.0, 0.0, 1.0], [-2.0, -1.0, 0.0, 1.0, 2.0])
        values = [invariant_alignment_mc(rep, g, 50_000, seed=4).value
                  for g in grids]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_single_domain_zero(self):
        estimate = invariant_alignment_mc(LinearRep(t=0.7), [1.5], 10_000, seed=0)
        assert estimate.value == 0.0

    def test_invariant_rep_zero(self):
        estimate = invariant_alignment_mc(LinearRep(t=0.0), [-2, 0, 2], 10_000, seed=0)
        assert estimate.value == 0.0


class TestTheoremBound:
    GRID_T = [0.0, 0.25, 0.5, 0.75, 1.0]
    GRID_C = [(1.0, 0.0), (0.5, 0.0), (2.0, 0.0), (1.0, 0.2), (1.0, -0.2)]
    SCALES = [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_full_grid_no_violations(self):
        report = verify_theorem_bound(self.GRID_T, self.GRID_C, self.SCALES,
                                      n_samples=100_000, seed=0)
        assert report.passed
        assert report.violations == 0
        assert len(report.points) == 25

    def test_invariant_rep_lhs_exactly_zero(self):
        report = verify_theorem_bound([0.0], [(1.0, 0.0)], self.SCALES,
                                      n_samples=20_000, seed=1)
        assert report.points[0].lhs == 0.0

    @pytest.mark.parametrize("scales", [[1.0], [2.0, 2.0]], ids=["one", "repeated"])
    def test_single_domain_rejected(self, scales):
        # One domain has a risk gap of 0 by construction: the bound would pass vacuously.
        with pytest.raises(ValidationError, match="two distinct scales"):
            verify_theorem_bound([0.5], [(1.0, 0.0)], scales, n_samples=20_000, seed=2)

    @pytest.mark.parametrize("t_grid, classifiers, scales", [
        ([math.inf], [(1.0, 0.0)], [0.0, 1.0]), ([math.nan], [(1.0, 0.0)], [0.0, 1.0]),
        ([0.5], [(math.inf, 0.0)], [0.0, 1.0]), ([0.5], [(1.0, -math.inf)], [0.0, 1.0]),
        ([0.5], [(1.0, 0.0)], [0.0, math.inf]), ([0.5], [(1.0, 0.0)], [0.0, math.nan]),
    ])
    def test_non_finite_grid_rejected(self, t_grid, classifiers, scales):
        with pytest.raises(ValidationError, match="finite"):
            verify_theorem_bound(t_grid, classifiers, scales, n_samples=20_000, seed=0)

    def test_unbounded_region_rejected(self):
        with pytest.raises(ValidationError) as err:
            verify_theorem_bound([0.5], [(1.0, 0.0)], self.SCALES,
                                 n_samples=10_000, truncation_radius=float("inf"))
        assert "truncation" in str(err.value)

    def test_constant_positive_and_reported(self):
        reps = [LinearRep(t=0.5, weight=1.0)]
        constant = estimate_bound_constant(reps, self.SCALES, 6.0,
                                           n_samples=50_000, seed=0)
        assert constant > 0
        report = verify_theorem_bound([0.5], [(1.0, 0.0)], self.SCALES,
                                      n_samples=20_000, seed=0)
        assert "constant" in report.to_text()
