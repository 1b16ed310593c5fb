"""Spectral densities, Fuglede-Kadison determinants and determinant class.

The central object is the spectral density of a morphism: the trace-weighted
distribution of its singular values (or eigenvalues, for self-adjoint
endomorphisms). The Fuglede-Kadison determinant is the exponential of the
logarithmic moment of that density over the strictly positive part of the
spectrum. Whether the logarithmic moment is finite cannot be read off a
finite sample directly, so :func:`classify_determinant` produces an explicit
certificate from a ladder of partial integrals plus the log-mass sitting
below a hard floor, all read off one suffix sum of the log terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import (
    DEFAULT_RANK_TOL,
    FiberValues,
    Morphism,
    check_rank_tol,
    fiber_svds,
)
from .errors import InputValidationError, NotSelfAdjointError, ShapeMismatchError

SPECTRAL_FLOOR = 1e-12
LADDER_DEPTH = 12
LADDER_WINDOW = 4
CONVERGENCE_TOL = 1e-8
DECREMENT_TOL = 1e-9
BELOW_FLOOR_SLACK = 0.5
NS_DECADES = 2.0
NS_MIN_POINTS = 8
NS_MIN_SPAN = 1.0
# the rung thresholds eps_m = 10^-m, bit-identical to ``10.0 ** (-m)``
# (``10.0 ** -np.arange(...)`` differs in the last bit at m = 5)
LADDER_EPS = tuple(10.0 ** (-m) for m in range(1, LADDER_DEPTH + 1))
# the ladder rungs, then the floor, then 0 (the Convergent log integral)
_CUTS = np.array(LADDER_EPS + (SPECTRAL_FLOOR, 0.0))


# ---------------------------------------------------------------------------
# densities


@dataclass
class SpectralDensity:
    """Trace-weighted point spectrum of a fibered operator.

    ``values`` are the strictly positive spectral points (ascending) and
    ``masses`` their trace weights; ``zero_mass`` is the weight of the
    kernel part, decided fiberwise by a relative tolerance. ``total_mass``
    equals the trace-dimension of the underlying object. Exact-zero values
    and zero masses are accepted; negative or non-finite values, masses,
    ``zero_mass`` or ``total_mass`` raise :class:`InputValidationError`.
    """

    values: np.ndarray
    masses: np.ndarray
    zero_mass: float
    total_mass: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, float)
        masses = np.asarray(self.masses, float)
        if values.ndim != 1 or masses.shape != values.shape:
            raise ShapeMismatchError(
                f"density needs 1-D values and masses of one length, "
                f"got shapes {values.shape} and {masses.shape}"
            )
        order = np.argsort(values)
        self.values, self.masses = values[order], masses[order]
        # NaN sorts last and -inf first; a NaN mass fails both comparisons
        if len(values) and not (self.values[0] >= 0.0 and self.values[-1] < math.inf
                                and masses.min() >= 0.0 and masses.max() < math.inf):
            raise InputValidationError("density values and masses must be finite and >= 0")
        if not (0.0 <= self.zero_mass < math.inf and 0.0 <= self.total_mass < math.inf):
            raise InputValidationError("zero_mass and total_mass must be finite and >= 0")

    def cumulative(self, lam: float) -> float:
        """phi(lam): total mass of spectrum in [0, lam]."""
        if lam < 0:
            return 0.0
        k = np.searchsorted(self.values, lam, side="right")
        return self.zero_mass + float(self.masses[:k].sum())

    def max_value(self) -> float:
        return float(self.values[-1]) if len(self.values) else 0.0

    def min_positive(self) -> float:
        return float(self.values[0]) if len(self.values) else math.inf

    def log_moment(self) -> float:
        """Integral of ln(lam) over the whole positive spectrum (may be -inf)."""
        sel = self.values > 0.0
        return float(np.dot(self.masses[sel], np.log(self.values[sel])))

    @classmethod
    def from_fibers(cls, kept: FiberValues, weights: np.ndarray, dims=None) -> "SpectralDensity":
        """Density of the positive values ``kept``, each of the mass of its
        fiber in ``weights``. With ``dims`` (the source dimension of each
        fiber) the dimensions the values leave over are kernel mass;
        without, there is no kernel mass."""
        masses = weights[kept.fiber]
        if dims is None:
            zero_mass, total = 0.0, float(masses.sum())
        else:
            counts = kept.counts(len(weights))
            zero_mass = float(np.dot(weights, np.subtract(dims, counts)))
            total = float(np.dot(weights, dims))
        return cls(kept.values, masses, zero_mass, total)


def singular_density(f: Morphism, tol: float = DEFAULT_RANK_TOL) -> SpectralDensity:
    """Spectral density of |f| = (f* f)^(1/2).

    The singular values are those of :func:`fiber_svds` (values only):
    per fiber, values at or below ``tol`` times the largest one count as
    kernel mass.
    """
    kept = fiber_svds(f, tol, vectors=False).kept()
    return SpectralDensity.from_fibers(kept, f.backend.fiber_weights, f.source.dim_array)


def spectral_density(m: Morphism, tol: float = DEFAULT_RANK_TOL) -> SpectralDensity:
    """Spectral density of a positive self-adjoint endomorphism.

    One batched eigenvalue call per shape group; per fiber, eigenvalues at
    or below ``tol`` times the largest magnitude count as kernel mass.
    """
    check_rank_tol(tol)
    if not m.is_endo:
        raise ShapeMismatchError("spectral density requires an endomorphism")
    values, fibers = [np.zeros(0)], [np.zeros(0, np.intp)]
    for idx, b in m.standardized_blocks().groups:
        if not b.shape[1]:
            continue
        if np.any(
            np.linalg.norm(b - np.swapaxes(b, 1, 2).conj(), axis=(1, 2))
            > 1e-8 * np.maximum(np.linalg.norm(b, axis=(1, 2)), 1.0)
        ):
            raise NotSelfAdjointError("operator is not self-adjoint")
        ev = np.linalg.eigvalsh(b)
        keep = ev > tol * np.abs(ev).max(axis=1)[:, None]
        values.append(ev[keep])
        fibers.append(np.broadcast_to(idx[:, None], ev.shape)[keep])
    kept = FiberValues(np.concatenate(values), np.concatenate(fibers))
    return SpectralDensity.from_fibers(kept, m.backend.fiber_weights, m.source.dim_array)


# ---------------------------------------------------------------------------
# Fuglede-Kadison determinant


def log_fk_det(f: Morphism) -> float:
    """log of the Fuglede-Kadison determinant of f.

    Defined as the logarithmic moment of the singular value density over the
    strictly positive spectrum: kernel directions are excluded, so this is
    the determinant of the positive part of |f|: the weighted log sum of the
    kept values of one values-only :func:`fiber_svds`, with no density.
    """
    return fiber_svds(f, vectors=False).log_det(f.backend.fiber_weights)


def fk_det(f: Morphism) -> float:
    return math.exp(log_fk_det(f))


# ---------------------------------------------------------------------------
# determinant-class certificates


@dataclass
class DetClassVerdict:
    """Certificate for finiteness of the logarithmic spectral moment.

    ``status`` is one of ``Convergent``, ``Divergent``, ``Inconclusive``.
    ``ladder`` records partial integrals I(eps_m) = integral of ln over the
    spectrum above eps_m = 10^-m; ``below_floor`` is the log-mass carried by
    spectrum in (0, floor]. Convergence requires both the ladder tail and
    the below-floor mass to be negligible; divergence requires steady mass
    flowing into every rung of the tail together with substantial log-mass
    at or below the floor.
    """

    status: str
    log_integral: float
    ladder: list = field(default_factory=list)
    below_floor: float = 0.0
    zero_mass: float = 0.0
    injective: bool = True
    dense_image: bool = True

    @property
    def convergent(self) -> bool:
        return self.status == "Convergent"


def classify_determinant(density: SpectralDensity) -> DetClassVerdict:
    """Certify whether the log moment of a sampled density converges.

    One pass takes the log terms m_k ln(lam_k) of the ascending spectrum and
    their suffix sums tails[k] = sum of terms[k:], summed from the largest
    value down (tails[n] = 0). Each partial integral I(eps) over the
    spectrum strictly above eps is then one lookup, tails[searchsorted(eps,
    "right")]: the rungs eps_m = 10^-m of the ladder, and eps = 0 for the
    full log moment. Each rung adds only negative terms to the next, so
    the ladder is exactly non-increasing, and an exact-zero value (log =
    -inf) reaches no rung. ``below_floor`` sums the terms at or below
    ``SPECTRAL_FLOOR`` directly.

    The ladder tail I(eps_8) - I(eps_12) measures how much log-mass the last
    four decades still contribute; ``below_floor`` measures everything below
    eps_12. A clean gap in the spectrum gives a zero tail and a Convergent
    verdict; mass marching through every tail rung plus a heavy below-floor
    contribution gives Divergent; anything in between stays Inconclusive.
    """
    values = density.values
    if not len(values):
        return empty_verdict(density.zero_mass)
    with np.errstate(divide="ignore"):
        terms = density.masses * np.log(values)
    tails = np.zeros(len(values) + 1)
    np.cumsum(terms[::-1], out=tails[-2::-1])
    cut = np.searchsorted(values, _CUTS, side="right")
    rungs = tails[cut[:LADDER_DEPTH]]
    ladder = list(zip(LADDER_EPS, rungs.tolist()))
    below = float(terms[:cut[LADDER_DEPTH]].sum())
    start = LADDER_DEPTH - 1 - LADDER_WINDOW
    tail_drop = rungs[start] - rungs[-1]
    decrements = rungs[start:-1] - rungs[start + 1:]
    injective = density.zero_mass <= CONVERGENCE_TOL
    if (abs(tail_drop) <= CONVERGENCE_TOL and abs(below) <= CONVERGENCE_TOL
            and injective):
        return DetClassVerdict(
            "Convergent", float(tails[cut[-1]]), ladder, below, density.zero_mass
        )
    heavy_below = (not math.isfinite(below)) or abs(below) > BELOW_FLOOR_SLACK
    steady = bool(np.all(decrements > DECREMENT_TOL))
    if (steady and heavy_below) or not injective:
        return DetClassVerdict(
            "Divergent",
            -math.inf,
            ladder,
            below,
            density.zero_mass,
            injective=injective,
        )
    return DetClassVerdict(
        "Inconclusive", math.nan, ladder, below, density.zero_mass
    )


def empty_verdict(zero_mass: float) -> DetClassVerdict:
    """:func:`classify_determinant` of a density with no values."""
    ok = zero_mass <= CONVERGENCE_TOL
    return DetClassVerdict("Convergent" if ok else "Divergent", 0.0 if ok else -math.inf,
                           [(eps, 0.0) for eps in LADDER_EPS], 0.0, zero_mass, injective=ok)


def fk_det_extended(f: Morphism, tol: float = DEFAULT_RANK_TOL):
    """Extended determinant of an (intended) weak isomorphism.

    Returns ``(log_value, verdict)``. The log value is the full logarithmic
    moment when the certificate is Convergent, -inf when Divergent, and NaN
    when Inconclusive.
    """
    density = singular_density(f, tol)
    verdict = classify_determinant(density)
    coker_mass = f.target.dim_tau - (f.source.dim_tau - density.zero_mass)
    verdict.dense_image = abs(coker_mass) <= CONVERGENCE_TOL  # a trace mass, not a rank cut
    return verdict.log_integral, verdict


def tau_isomorphism_test(f: Morphism) -> DetClassVerdict:
    """Decide whether f is an isomorphism in the trace-completed sense.

    f qualifies when it is injective with dense image and the extended
    determinant certificate is Convergent. Non-injective or non-dense inputs
    are reported as Divergent with the corresponding diagnostic flag unset
    rather than raising, so batch pipelines can inspect the verdict. The
    verdict is that of :func:`fk_det_extended`, demoted when the image is
    not dense.
    """
    _, verdict = fk_det_extended(f)
    if not verdict.dense_image and verdict.status == "Convergent":
        verdict.status = "Divergent"
        verdict.log_integral = -math.inf
    return verdict


# ---------------------------------------------------------------------------
# Novikov-Shubin type exponent


def ns_exponent(density: SpectralDensity) -> float | None:
    """Least squares slope of log(phi(lam) - phi(0)) against log(lam).

    The regression runs over the lowest ``NS_DECADES`` decades of the
    positive spectrum and needs at least ``NS_MIN_POINTS`` distinct spectral
    points spanning ``NS_MIN_SPAN`` decades, all below a tenth of the
    spectral radius; otherwise the sample is too thin to estimate an
    exponent and the result is None.
    """
    if len(density.values) == 0:
        return None
    lam_min = density.min_positive()
    lam_max = density.max_value()
    hi = min(lam_min * 10.0**NS_DECADES, 0.1 * lam_max)
    pts = np.unique(density.values[density.values <= hi])
    if len(pts) < NS_MIN_POINTS:
        return None
    span = math.log10(pts[-1] / pts[0]) if pts[0] > 0 else 0.0
    if span < NS_MIN_SPAN:
        return None
    x = np.log(pts)
    y = np.log([density.cumulative(p) - density.zero_mass for p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
