"""Monte-Carlo verification of the shift-robustness analysis.

Setting: base data (Z1, Z2) standard bivariate normal, label Y = 1 iff
Z1 >= 0, augmentations scale the second coordinate: tau_m(Z) = (Z1, m Z2).
A linear representation g(z) = z1 + t z2 composed with a linear threshold
classifier gives closed forms for everything this module estimates, so the
Monte-Carlo machinery is checked end to end:

* average alignment loss of g under random scalings equals 2 t^2, which can
  be made arbitrarily small while the 0/1 risk still jumps by 1/4 between
  the domains m = 0 and m = 1/t — low average alignment does not bound
  cross-domain variation;
* the worst-case (supremum over a scaling grid) alignment discrepancy does
  bound cross-domain risk variation, up to a problem constant estimated from
  the decision-score density on a truncated data region.

The discrepancy entering the bound is the unsquared norm sup ||g(tau(z)) -
g(tau'(z))||: a Lipschitz-type constant relating risk changes to score
changes only exists for the first power (the squared form shrinks
quadratically as t -> 0 while the risk gap shrinks linearly, so no fixed
constant could work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ToyDomain:
    """Data distribution (Z1, m Z2) with (Z1, Z2) standard bivariate normal."""

    scale: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, 2))
        z[:, 1] *= self.scale
        return z


@dataclass(frozen=True)
class LinearRep:
    """g(z1, z2) = z1 + t z2 with an optional linear threshold classifier:
    predict 1 iff weight * g(z) >= threshold."""

    t: float
    weight: float = 1.0
    threshold: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t, self.weight, self.threshold))):
            raise ValidationError("t, weight and threshold must be finite")
        if self.t < 0:
            raise ValidationError("t must be >= 0")
        if self.weight == 0:
            raise ValidationError("classifier weight must be nonzero")

    def g(self, z: np.ndarray) -> np.ndarray:
        return z[:, 0] + self.t * z[:, 1]

    def predict(self, z: np.ndarray) -> np.ndarray:
        return (self.weight * self.g(z)) >= self.threshold

    @property
    def classifier_norm(self) -> float:
        return abs(self.weight)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    n_samples: int


def _estimate(values: np.ndarray) -> MCEstimate:
    n = values.size
    return MCEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"),
        n_samples=n,
    )


def alignment_loss_mc(rep: LinearRep, n_samples: int, seed: int = 0) -> MCEstimate:
    """E ||g(tau_a(Z)) - g(tau_b(Z))||^2 with a, b independent standard
    normal scalings; closed form 2 t^2."""
    if n_samples < 10_000:
        raise ValidationError("use at least 1e4 samples")
    rng = np.random.default_rng(seed)
    z2 = rng.standard_normal(n_samples)
    a = rng.standard_normal(n_samples)
    b = rng.standard_normal(n_samples)
    return _estimate((rep.t * z2 * (a - b)) ** 2)


def risk_mc(rep: LinearRep, domain: ToyDomain, n_samples: int, seed: int = 0) -> MCEstimate:
    """0/1 misclassification probability of the rep's classifier on the domain."""
    rng = np.random.default_rng(seed)
    z = domain.sample(rng, n_samples)
    truth = z[:, 0] >= 0
    # Labels come from the base coordinate; the domain only rescales Z2,
    # which leaves Z1 (and hence Y) untouched.
    predictions = rep.predict(z)
    return _estimate((predictions != truth).astype(np.float64))


@dataclass
class PropositionReport:
    zeta: float
    t: float
    alignment: MCEstimate
    alignment_closed_form: float
    risk_identity: MCEstimate
    risk_shifted: MCEstimate
    risk_gap: float
    risk_gap_stderr: float
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"low-average-alignment counterexample (zeta = {self.zeta:g})",
            f"  t = sqrt(zeta)/2 = {self.t:.6g}",
            f"  alignment         = {self.alignment.value:.6g} "
            f"(closed form {self.alignment_closed_form:.6g}, "
            f"stderr {self.alignment.stderr:.2g})",
            f"  alignment < zeta  : {self.alignment.value < self.zeta}",
            f"  risk at m=0       = {self.risk_identity.value:.6g}",
            f"  risk at m=1/t     = {self.risk_shifted.value:.6g}",
            f"  risk gap          = {self.risk_gap:.6g} "
            f"(stderr {self.risk_gap_stderr:.2g}, target 0.25)",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def verify_proposition(zeta: float, n_samples: int = 1_000_000,
                       seed: int = 0) -> PropositionReport:
    """Check that alignment < zeta while the cross-domain risk gap stays 1/4."""
    if not 0 < zeta < math.inf:
        raise ValidationError("zeta must be positive and finite")
    t = math.sqrt(zeta) / 2.0
    rep = LinearRep(t=t)
    alignment = alignment_loss_mc(rep, n_samples, seed=seed)
    risk0 = risk_mc(rep, ToyDomain(scale=0.0), n_samples, seed=seed + 1)
    risk1 = risk_mc(rep, ToyDomain(scale=1.0 / t), n_samples, seed=seed + 2)
    gap = abs(risk0.value - risk1.value)
    gap_stderr = math.hypot(risk0.stderr, risk1.stderr)
    passed = (alignment.value < zeta) and (gap >= 0.25 - 3.0 * gap_stderr)
    return PropositionReport(
        zeta=zeta, t=t, alignment=alignment, alignment_closed_form=2 * t * t,
        risk_identity=risk0, risk_shifted=risk1,
        risk_gap=gap, risk_gap_stderr=gap_stderr, passed=passed,
    )


def invariant_alignment_mc(
    rep: LinearRep, scales, n_samples: int, seed: int = 0
) -> MCEstimate:
    """E sup_{m, m' in grid} |g(tau_m(Z)) - g(tau_m'(Z))| — the worst-case
    (unsquared) alignment discrepancy over the scaling grid."""
    scales = np.asarray(list(scales), dtype=np.float64)
    if scales.size == 0:
        raise ValidationError("empty augmentation grid")
    rng = np.random.default_rng(seed)
    z2 = rng.standard_normal(n_samples)
    gap = float(scales.max() - scales.min())
    return _estimate(np.abs(rep.t * z2) * gap)


def estimate_bound_constant(
    reps, scales, truncation_radius: float, n_samples: int = 100_000, seed: int = 0
) -> float:
    """The problem constant of the variation bound: twice the largest decision-
    score density at the threshold across the grid.

    Risk differences are at most the probability that a score crosses its
    threshold under the perturbation, which a density-times-displacement
    argument bounds by 2 rho_max * ||c|| * E sup |Delta g|. The density is
    estimated by a Gaussian plug-in fit on samples inside the truncation
    region; on an unbounded region the estimate is meaningless, hence the
    required finite radius.
    """
    if not math.isfinite(truncation_radius) or truncation_radius <= 0:
        raise ValidationError(
            "bound constant needs a bounded data region: pass a finite "
            "truncation_radius (for standard normal data, 6.0 is ample)"
        )
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, 2))
    inside = np.linalg.norm(z, axis=1) <= truncation_radius
    z = z[inside]
    if z.shape[0] < 1000:
        raise ValidationError("truncation radius keeps too few samples")
    density_max = 0.0
    for rep in reps:
        for m in scales:
            scores = rep.weight * (z[:, 0] + rep.t * m * z[:, 1])
            mu = float(scores.mean())
            sd = float(scores.std(ddof=1))
            if sd == 0.0:
                raise ValidationError("degenerate score distribution on the grid")
            u = (rep.threshold - mu) / sd
            density = math.exp(-0.5 * u * u) / (sd * math.sqrt(2 * math.pi))
            density_max = max(density_max, density)
    return 2.0 * density_max


@dataclass
class BoundPoint:
    t: float
    weight: float
    threshold: float
    lhs: float
    bound: float
    stderr: float
    ok: bool


@dataclass
class TheoremReport:
    constant: float
    truncation_radius: float
    scales: tuple[float, ...]
    points: list[BoundPoint] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def violations(self) -> int:
        return sum(not p.ok for p in self.points)

    def to_text(self) -> str:
        lines = [
            "cross-domain variation bound check",
            f"  scaling grid: {list(self.scales)}",
            f"  estimated constant (2 x max score density at threshold, "
            f"|z| <= {self.truncation_radius:g}): {self.constant:.6g}",
        ]
        for p in self.points:
            status = "ok" if p.ok else "VIOLATION"
            lines.append(
                f"  [{status}] t={p.t:<5g} w={p.weight:<5g} b={p.threshold:<5g} "
                f"sup|dR|={p.lhs:.5f}  bound={p.bound:.5f}  stderr={p.stderr:.2g}"
            )
        lines.append(
            f"result: {'PASS' if self.passed else 'FAIL'} "
            f"({self.violations} violations / {len(self.points)} grid points)"
        )
        return "\n".join(lines)


def verify_theorem_bound(
    rep_grid,
    classifier_grid,
    scales,
    n_samples: int = 100_000,
    seed: int = 0,
    truncation_radius: float = 6.0,
) -> TheoremReport:
    """For every (t, classifier) grid point, check that the largest risk gap
    across the scaling domains is covered by constant * ||c|| * worst-case
    alignment discrepancy, allowing 3 combined standard errors."""
    if not (len(rep_grid) and len(classifier_grid)):
        raise ValidationError("the t grid and the classifier grid must be nonempty")
    if any(len(c) != 2 for c in classifier_grid):
        raise ValidationError("each classifier is a (weight, threshold) pair")
    scales = tuple(float(m) for m in scales)
    if len(set(scales)) < 2 or not all(map(math.isfinite, scales)):  # one scale: gap 0
        raise ValidationError(f"need at least two distinct scales, all finite, got {list(scales)}")
    reps = [
        LinearRep(t=float(t), weight=float(w), threshold=float(b))
        for t in rep_grid
        for (w, b) in classifier_grid
    ]
    constant = estimate_bound_constant(reps, scales, truncation_radius,
                                       n_samples=n_samples, seed=seed)
    report = TheoremReport(constant=constant,
                           truncation_radius=truncation_radius, scales=scales)
    for index, rep in enumerate(reps):
        # Common random numbers across domains: an invariant representation
        # then yields an exactly-zero risk gap, and the gap estimator's
        # variance comes only from genuinely differing predictions.
        rng = np.random.default_rng(seed + 1000 * index + 1)
        z = rng.standard_normal((n_samples, 2))
        truth = z[:, 0] >= 0
        errors = []
        for m in scales:
            scaled = z.copy()
            scaled[:, 1] *= m
            errors.append((rep.predict(scaled) != truth).astype(np.float64))
        values = [float(e.mean()) for e in errors]
        hi, lo = int(np.argmax(values)), int(np.argmin(values))
        lhs = values[hi] - values[lo]
        paired_diff = errors[hi] - errors[lo]
        lhs_stderr = float(paired_diff.std(ddof=1) / math.sqrt(n_samples))
        ial = invariant_alignment_mc(rep, scales, n_samples,
                                     seed=seed + 7 * index + 13)
        bound = constant * rep.classifier_norm * ial.value
        stderr = math.hypot(lhs_stderr, constant * rep.classifier_norm * ial.stderr)
        report.points.append(BoundPoint(
            t=rep.t, weight=rep.weight, threshold=rep.threshold,
            lhs=lhs, bound=bound, stderr=stderr,
            ok=lhs <= bound + 3.0 * stderr,
        ))
    return report
