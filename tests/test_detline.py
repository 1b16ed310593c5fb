"""Determinant-line elements: rebasing, push-forward, exact sequences."""

import math

import numpy as np
import pytest

from l2torsion.backends import (
    compose,
    family_backend,
    family_object,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
    zero_morphism,
)
from l2torsion.detline import (
    DetLineElement,
    Frame,
    canonical_element,
    check_exactness,
    exact_sequence_iso,
    orthogonal_section,
    push_forward,
    rebase_products,
    standard_element,
    unit_element,
)
from l2torsion.errors import NotAnIsomorphismError, NotExactError, ShapeMismatchError
from l2torsion.harness import family_multiplication_map, random_invertible_morphism
from l2torsion.spectral import fk_det_extended, log_fk_det


def _mat(n, data=None, product=None):
    backend = matrix_backend()
    obj = matrix_object(backend, n, product=product)
    return obj


class TestElements:
    def test_tensor_and_dual_cancel(self):
        obj = _mat(3)
        x = standard_element(obj, "a")
        y = x.tensor(x.dual()).simplify()
        assert y.is_scalar
        assert y.scalar_log() == pytest.approx(0.0)

    def test_unit_element_is_scalar_one(self):
        assert unit_element().scalar_value() == pytest.approx(1.0)

    @pytest.mark.parametrize("log_coeff, value", [(800.0, None), (-800.0, None), (0.0, 1.0)])
    def test_scalar_value_outside_float_range_is_none(self, log_coeff, value):
        """exp(800) overflows and exp(-800) underflows to 0.0, a zero torsion."""
        assert DetLineElement((), log_coeff).scalar_value() == value

    def test_scaled_accumulates(self):
        obj = _mat(2)
        x = standard_element(obj, "a").scaled(0.5).scaled(-0.2)
        assert x.log_coeff == pytest.approx(0.3)


class TestRebase:
    def test_rebase_against_known_determinant(self):
        """Switching to a product P rescales by det(P)^(-e/2)."""
        backend = matrix_backend()
        plain = matrix_object(backend, 2)
        scaled = matrix_object(backend, 2, product=np.diag([4.0, 9.0]))
        x = standard_element(plain, "a")
        y = rebase_products(x, "a", scaled)
        # the P-orthonormal generator is det(P)^(-1/2) times the plain one,
        # so the same element gains the factor det(P)^(1/2) = sqrt(36)
        assert y.log_coeff == pytest.approx(0.5 * math.log(36.0))

    def test_rebase_round_trip(self, rng):
        backend = matrix_backend()
        p = rng.normal(size=(3, 3))
        p = p @ p.T + 3 * np.eye(3)
        plain = matrix_object(backend, 3)
        other = matrix_object(backend, 3, product=p)
        x = standard_element(plain, "a")
        back = rebase_products(rebase_products(x, "a", other), "a", plain)
        assert back.log_coeff == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("other", [
        lambda: matrix_object(matrix_backend(), 3),
        lambda: matrix_object(matrix_backend(scale=2.0), 2),
        lambda: family_object(family_backend(uniform_interval_samples(3)), (2, 2, 1)),
    ])
    def test_rebase_onto_another_space_raises(self, other):
        x = standard_element(matrix_object(matrix_backend(), 2), "a")
        with pytest.raises(ShapeMismatchError, match="different space"):
            rebase_products(x, "a", other())

    def test_rebase_compares_family_dimensions_fiber_by_fiber(self):
        backend = family_backend(uniform_interval_samples(3))
        plain = family_object(backend, np.array([2, 1, 2]))
        x = standard_element(plain, "a")
        same = family_object(backend, [2, 1, 2], products=[np.diag([4.0, 1.0]), None, None])
        y = rebase_products(x, "a", same)
        assert y.log_coeff == pytest.approx(0.5 * math.log(4.0) / 3)
        for dims in ((2, 2, 2), (1, 1, 2), (2, 1, 3)):
            with pytest.raises(ShapeMismatchError, match="different space"):
                rebase_products(x, "a", family_object(backend, dims))


class TestPushForward:
    def test_push_forward_multiplies_by_det(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        x = standard_element(f.source, "src")
        y = push_forward(x, f, new_label="dst")
        assert y.log_coeff == pytest.approx(log_fk_det(f), abs=1e-10)

    def test_push_forward_respects_exponent(self, rng):
        backend = matrix_backend()
        f = random_invertible_morphism(rng, backend, 2)
        x = DetLineElement(((Frame(f.source, "s"), -1),), 0.0)
        y = push_forward(x, f, new_label="t")
        assert y.log_coeff == pytest.approx(-log_fk_det(f), abs=1e-10)

    def test_push_forward_rejects_kernel(self):
        obj = _mat(2)
        f = matrix_morphism(obj, obj, np.diag([1.0, 0.0]))
        x = standard_element(obj, "s")
        with pytest.raises(NotAnIsomorphismError):
            push_forward(x, f, new_label="t")

    def test_canonical_element_of_invertible(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        x = canonical_element(f)
        assert x.log_coeff == pytest.approx(log_fk_det(f), abs=1e-10)

    def test_push_forward_along_inconclusive_map_is_nan(self):
        """An injective dense map whose determinant is not certified moves
        the coefficient to NaN, as canonical_element reports it."""
        xs = uniform_interval_samples(256)[:, 0]
        f = family_multiplication_map(10.0 ** (-9.5 * xs))
        assert fk_det_extended(f)[1].status == "Inconclusive"
        y = push_forward(standard_element(f.source, "s"), f, new_label="t")
        assert math.isnan(y.log_coeff)
        assert math.isnan(canonical_element(f).log_coeff)


def _split_triple(rng, k=2, m=5):
    """A random short exact sequence 0 -> C^k -> C^m -> C^(m-k) -> 0."""
    backend = matrix_backend()
    sub = matrix_object(backend, k)
    mid = matrix_object(backend, m)
    quo = matrix_object(backend, m - k)
    g = rng.normal(size=(m, m)) + 0.5 * np.eye(m)
    alpha = matrix_morphism(sub, mid, g[:, :k])
    # beta kills the image of alpha
    q = np.linalg.qr(g[:, :k])[0]
    proj = np.eye(m) - q @ q.conj().T
    basis = np.linalg.qr(proj @ rng.normal(size=(m, m - k)))[0]
    beta = matrix_morphism(mid, quo, basis.conj().T)
    return alpha, beta


class TestExactSequences:
    def test_check_exactness_accepts_split(self, rng):
        alpha, beta = _split_triple(rng)
        check_exactness(alpha, beta)

    def test_check_exactness_rejects_nonexact(self, rng):
        backend = matrix_backend()
        a = matrix_object(backend, 2)
        b = matrix_object(backend, 3)
        alpha = matrix_morphism(a, b, rng.normal(size=(3, 2)))
        beta = matrix_morphism(b, a, rng.normal(size=(2, 3)))
        with pytest.raises(NotExactError):
            check_exactness(alpha, beta)

    def test_orthogonal_section_is_right_inverse(self, rng):
        alpha, beta = _split_triple(rng)
        gamma = orthogonal_section(beta)
        comp = compose(beta, gamma)
        assert np.allclose(comp.blocks[0], np.eye(3), atol=1e-10)

    def test_iso_keeps_coefficient(self, rng):
        alpha, beta = _split_triple(rng)
        x = standard_element(alpha.target, "total")
        y = exact_sequence_iso(alpha, beta, x)
        assert y.log_coeff == pytest.approx(x.log_coeff)
        labels = sorted(fr.label for fr, _ in y.word)
        assert labels == ["quot", "sub"]

    @pytest.mark.parametrize("rel", [1e-12, -3e-11, 1e-6])
    def test_iso_rebases_nearby_products_by_their_factor(self, rng, rel):
        """A frame over products that differ from the total's, even by less
        than 1e-10, is rebased by the exact factor -(n/2) log(1 + rel)."""
        alpha, beta = _split_triple(rng)
        n = alpha.target.dim_tau
        near = matrix_object(alpha.target.backend, int(n), product=(1.0 + rel) * np.eye(int(n)))
        y = exact_sequence_iso(alpha, beta, standard_element(near, "total"))
        assert y.log_coeff != 0.0
        assert y.log_coeff == pytest.approx(-0.5 * n * math.log1p(rel), rel=1e-3)
        same = exact_sequence_iso(alpha, beta, standard_element(alpha.target, "total"))
        assert same.log_coeff == 0.0

    def test_iso_rebased_to_native_measures_base_change(self, rng):
        """Rebasing the split to native frames recovers det of [alpha, gamma]."""
        alpha, beta = _split_triple(rng)
        gamma = orthogonal_section(beta)
        x = standard_element(alpha.target, "total")
        y = exact_sequence_iso(alpha, beta, x)
        y = rebase_products(y, "sub", alpha.source)
        y = rebase_products(y, "quot", beta.target)
        t = np.hstack([alpha.blocks[0], gamma.blocks[0]])
        expected = -math.log(abs(np.linalg.det(t)))
        assert y.log_coeff == pytest.approx(expected, abs=1e-10)
