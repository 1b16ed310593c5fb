"""Spectral densities, Fuglede-Kadison determinants, and verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2torsion.backends import (
    adjoint,
    compose,
    family_backend,
    family_morphism,
    family_object,
    identity_morphism,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    scalar_morphism,
    uniform_interval_samples,
)
from l2torsion.errors import NotSelfAdjointError
from l2torsion.harness import (
    family_multiplication_map,
    random_invertible_morphism,
    standard_backends,
)
from l2torsion.spectral import (
    BELOW_FLOOR_SLACK,
    CONVERGENCE_TOL,
    DECREMENT_TOL,
    LADDER_DEPTH,
    LADDER_WINDOW,
    SPECTRAL_FLOOR,
    SpectralDensity,
    classify_determinant,
    fk_det,
    fk_det_extended,
    log_fk_det,
    ns_exponent,
    singular_density,
    spectral_density,
    tau_isomorphism_test,
)


class TestDensities:
    def test_diagonal_eigenvalues(self):
        obj = matrix_object(matrix_backend(), 3)
        f = matrix_morphism(obj, obj, np.diag([0.0, 1.0, 4.0]))
        d = spectral_density(f)
        assert d.zero_mass == pytest.approx(1.0)
        assert list(d.values) == pytest.approx([1.0, 4.0])

    def test_non_self_adjoint_rejected(self):
        obj = matrix_object(matrix_backend(), 2)
        f = matrix_morphism(obj, obj, [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotSelfAdjointError):
            spectral_density(f)

    def test_singular_density_matches_laplacian(self, rng):
        backend = standard_backends()["Family"]
        f = random_invertible_morphism(rng, backend, 3)
        sing = singular_density(f)
        lap = spectral_density(compose(adjoint(f), f))
        # singular values squared are the eigenvalues of f* f
        assert np.allclose(np.sort(sing.values) ** 2, np.sort(lap.values))

    def test_total_mass(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        d = singular_density(f)
        assert d.total_mass == pytest.approx(f.source.dim_tau)


class TestFKDeterminant:
    def test_det_of_scalar(self, backend, rng):
        obj = random_invertible_morphism(rng, backend, 2).source
        f = scalar_morphism(obj, 3.0)
        assert fk_det(f) == pytest.approx(3.0 ** obj.dim_tau, rel=1e-10)

    def test_multiplicativity(self, backend, rng):
        for _ in range(10):
            f = random_invertible_morphism(rng, backend, 3)
            g = random_invertible_morphism(rng, backend, 3)
            lhs = log_fk_det(compose(f, g))
            assert lhs == pytest.approx(log_fk_det(f) + log_fk_det(g), abs=1e-8)

    def test_group_ring_example(self):
        """Det of (3 + t) on l2(Z/2) is sqrt((3+1)(3-1)) = sqrt(8)."""
        from l2torsion.backends import (
            cyclic_group_table,
            group_backend,
            group_object,
            group_ring_morphism,
        )

        backend = group_backend(cyclic_group_table(2))
        obj = group_object(backend, 1)
        f = group_ring_morphism(obj, obj, [[[3.0, 1.0]]])
        assert fk_det(f) == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_mahler_identity_on_circle_grid(self):
        """The averaged log of |z - 1| over the circle vanishes."""
        from l2torsion.backends import circle_samples

        backend = family_backend(circle_samples(4096))
        obj = family_object(backend, 1)
        blocks = [np.array([[np.exp(1j * t) - 1.0]]) for t in backend.sample_points[:, 0]]
        f = family_morphism(obj, obj, blocks)
        assert log_fk_det(f) == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("lam", [1e6, 1e-6])
    def test_det_outside_float_range_is_none(self, lam):
        """log det = ±828.9 on 60 dimensions: exp overflows or underflows to
        0.0, a zero determinant of an invertible map; neither is a value."""
        obj = matrix_object(matrix_backend(), 60)
        assert fk_det(scalar_morphism(obj, lam)) is None

    def test_det_of_twice_the_identity(self):
        obj = matrix_object(matrix_backend(), 1)
        assert fk_det(scalar_morphism(obj, 2.0)) == pytest.approx(2.0, abs=1e-15)


def _coker_sixteenth():
    """On 16 uniform samples: the 1 x 1 block 2 on 15 fibers and [2, 0]^T on
    the last, an injective map with a cokernel of trace mass 1/16."""
    backend = family_backend(uniform_interval_samples(16))
    blocks = [np.array([[2.0]])] * 15 + [np.array([[2.0], [0.0]])]
    return family_morphism(family_object(backend, 1), family_object(backend, (1,) * 15 + (2,)),
                           blocks)


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.1])
def test_dense_image_compares_the_cokernel_mass_with_a_mass(tol):
    """The cokernel's trace mass is held to CONVERGENCE_TOL, whatever the
    relative rank cut."""
    _, verdict = fk_det_extended(_coker_sixteenth(), tol)
    assert verdict.injective and not verdict.dense_image


class TestVerdicts:
    def test_linear_fibers_convergent(self):
        f = family_multiplication_map(uniform_interval_samples(10_000)[:, 0])
        log_val, verdict = fk_det_extended(f)
        assert verdict.status == "Convergent"
        assert log_val == pytest.approx(-1.0, abs=1e-3)

    def test_exponential_decay_divergent(self):
        xs = uniform_interval_samples(10_000)[:, 0]
        with np.errstate(under="ignore"):
            f = family_multiplication_map(np.exp(-1.0 / xs))
        _, verdict = fk_det_extended(f)
        assert verdict.status == "Divergent"
        drops = [v for _, v in verdict.ladder]
        assert all(a >= b for a, b in zip(drops, drops[1:]))

    def test_non_injective_divergent_with_flags(self):
        obj = matrix_object(matrix_backend(), 2)
        f = matrix_morphism(obj, obj, np.diag([1.0, 0.0]))
        verdict = tau_isomorphism_test(f)
        assert verdict.status == "Divergent"
        assert not verdict.injective
        assert not verdict.dense_image

    def test_invertible_convergent(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        verdict = tau_isomorphism_test(f)
        assert verdict.status == "Convergent"
        assert verdict.injective and verdict.dense_image


def _reference_verdict(density):
    """The certificate with one mask, one log and one dot per partial
    integral: (status, log_integral, ladder values, below_floor)."""
    def log_moment_above(sel):
        with np.errstate(divide="ignore"):
            return float(np.dot(density.masses[sel], np.log(density.values[sel])))

    v = density.values
    rungs = [log_moment_above(v > 10.0 ** (-m)) for m in range(1, LADDER_DEPTH + 1)]
    below = log_moment_above(v <= SPECTRAL_FLOOR)
    start = LADDER_DEPTH - 1 - LADDER_WINDOW
    injective = density.zero_mass <= CONVERGENCE_TOL
    if (abs(rungs[start] - rungs[-1]) <= CONVERGENCE_TOL
            and abs(below) <= CONVERGENCE_TOL and injective):
        return "Convergent", log_moment_above(v > 0.0), rungs, below
    heavy_below = (not math.isfinite(below)) or abs(below) > BELOW_FLOOR_SLACK
    steady = all(rungs[m] - rungs[m + 1] > DECREMENT_TOL
                 for m in range(start, LADDER_DEPTH - 1))
    if (steady and heavy_below) or not injective:
        return "Divergent", -math.inf, rungs, below
    return "Inconclusive", math.nan, rungs, below


def _agree(got, ref) -> bool:
    if not math.isfinite(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def _random_density(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    values = 10.0 ** rng.uniform(rng.choice([-16.0, -8.0, -3.0]), 2.0, n)
    values[rng.random(n) < 0.1] = 10.0 ** -float(rng.integers(1, LADDER_DEPTH + 1))
    masses = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.9)
    return SpectralDensity(values, masses, float(rng.random() < 0.1), 10.0)


LADDER_EDGE_DENSITIES = {
    "empty": ([], []),
    "single": ([0.3], [1.0]),
    "on_rungs": ([1e-1, 1e-3, 1e-5, 1e-8, 1e-12, 0.5], [1.0, 2.0, 0.5, 1.0, 1.0, 1.0]),
    "at_and_below_floor": ([SPECTRAL_FLOOR, 1e-13, 1e-320, 0.0, 0.7], [1.0] * 5),
    "subnormal_only": ([1e-320], [1.0]),
    "at_least_one": ([1.0, 5.0, 1e6, 0.2], [1.0, 0.5, 2.0, 1.0]),
    "zero_masses": ([1e-9, 1e-4, 0.5, 3.0], [0.0, 1.0, 0.0, 1.0]),
}


@pytest.mark.parametrize(
    "density",
    [SpectralDensity(np.array(v, float), np.array(w, float), 0.0, float(sum(w)))
     for v, w in LADDER_EDGE_DENSITIES.values()]
    + [_random_density(seed) for seed in range(24)],
    ids=list(LADDER_EDGE_DENSITIES) + [f"seed{seed}" for seed in range(24)],
)
def test_ladder_matches_per_rung_integrals(density):
    status, log_integral, rungs, below = _reference_verdict(density)
    verdict = classify_determinant(density)
    assert verdict.status == status
    assert _agree(verdict.log_integral, log_integral)
    assert _agree(verdict.below_floor, below)
    assert [eps for eps, _ in verdict.ladder] == [10.0 ** (-m) for m in range(1, LADDER_DEPTH + 1)]
    got = [value for _, value in verdict.ladder]
    assert all(_agree(g, r) for g, r in zip(got, rungs, strict=True))
    assert all(a >= b for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("values", [[0.5, 2.0], [1e-13, 1e-6, 0.5, 2.0]])
def test_ladder_takes_one_log_in_one_errstate(monkeypatch, values):
    density = SpectralDensity(np.array(values), np.ones(len(values)), 0.0, len(values))
    calls = {"log": 0, "errstate": 0}
    real_log, real_errstate = np.log, np.errstate

    def log(*args, **kwargs):
        calls["log"] += 1
        return real_log(*args, **kwargs)

    def errstate(**kwargs):
        calls["errstate"] += 1
        return real_errstate(**kwargs)

    monkeypatch.setattr(np, "log", log)
    monkeypatch.setattr(np, "errstate", errstate)
    classify_determinant(density)
    assert calls == {"log": 1, "errstate": 1}


class TestNSExponent:
    def test_linear_density_exponent(self):
        """Fibers alpha(xi) = xi give density lambda near 0, exponent 1."""
        f = family_multiplication_map(uniform_interval_samples(20_000)[:, 0])
        d = singular_density(f)
        est = ns_exponent(d)
        assert est is not None
        assert est == pytest.approx(1.0, abs=0.1)

    def test_sqrt_density_exponent(self):
        xs = uniform_interval_samples(20_000)[:, 0]
        f = family_multiplication_map(np.sqrt(xs))
        est = ns_exponent(singular_density(f))
        assert est is not None
        assert est == pytest.approx(2.0, abs=0.2)

    def test_gapped_spectrum_has_no_exponent(self, rng):
        backend = standard_backends()["Matrix"]
        f = random_invertible_morphism(rng, backend, 3)
        assert ns_exponent(singular_density(f)) is None


@given(lam=st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_det_scalar_law(lam):
    obj = matrix_object(matrix_backend(), 3)
    f = scalar_morphism(obj, lam)
    assert log_fk_det(f) == pytest.approx(3 * math.log(lam), abs=1e-10)


@pytest.mark.parametrize("zero_mass", [0.0, 1e-300, 0.5])
def test_empty_density_verdict_is_the_full_one(monkeypatch, zero_mass):
    """A density without values gets a constant verdict, with no log taken;
    field by field it is the verdict of the full computation, run here on
    the same density with one point of mass 0 added, and it agrees with the
    per-rung reference."""
    point = SpectralDensity(np.ones(1), np.zeros(1), zero_mass, zero_mass)
    full = classify_determinant(point)
    logs = []
    real_log = np.log
    monkeypatch.setattr(np, "log", lambda *a, **k: logs.append(1) or real_log(*a, **k))
    empty = classify_determinant(SpectralDensity(np.zeros(0), np.zeros(0), zero_mass, zero_mass))
    assert not logs
    assert empty == full
    assert [type(x) for x in (empty.log_integral, empty.below_floor)] == [float, float]
    status, log_integral, rungs, below = _reference_verdict(point)
    assert (empty.status, empty.log_integral, empty.below_floor) == (status, log_integral, below)
    assert [value for _, value in empty.ladder] == rungs
    assert empty.injective == (zero_mass <= CONVERGENCE_TOL)
