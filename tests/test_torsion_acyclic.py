"""The closed form of the torsion of a strictly acyclic complex.

``torsion_acyclic`` reads log Det(Delta_i) as twice the log moment of the
singular values of the stacked factor F_i = [d_i; d_{i-1}^*], for which
Delta_i = F_i^* F_i in standardized coordinates. These tests hold it to the
exact value where the squared Laplacian loses digits, to the Laplacian
itself (kept here as the reference) on every backend and on ragged families
with products, and to one values-only SVD per degree and nothing else.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from l2torsion import backends
from l2torsion.backends import (
    DEFAULT_RANK_TOL,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
)
from l2torsion.errors import NotAcyclicError
from l2torsion.extcoh import ChainComplexC
from l2torsion.harness import (
    random_acyclic_complex,
    random_complex_with_cohomology,
    standard_backends,
)
from l2torsion.spectral import singular_density
from l2torsion.torsion import torsion_acyclic
from test_golden import _lift
from test_stacked_fibers import _family_complex, _products, _ragged_fibers, _unitary


def _via_laplacian(c, tol=DEFAULT_RANK_TOL):
    """(1/2) sum_i (-1)^i i log Det(Delta_i), with Delta_i formed as the
    operator d_i^* d_i + d_{i-1} d_{i-1}^* and its eigenvalues at or below
    tol times the largest of their fiber counted as kernel."""
    total = 0.0
    for i in range(c.length):
        density = singular_density(c.laplacian(i), tol)
        if density.zero_mass > 1e-8:
            raise NotAcyclicError(f"Laplacian in degree {i} has a kernel")
        total += 0.5 * (-1) ** i * i * density.log_moment()
    return total


def _assert_agrees(c):
    reference = _via_laplacian(c)
    assert torsion_acyclic(c, cross_check=False) == pytest.approx(
        reference, rel=0.0, abs=1e-9 * max(1.0, abs(reference)))


@pytest.mark.parametrize("ratio", [1e-4, 10.0 ** -4.75])
@pytest.mark.parametrize("seed", range(20))
def test_ill_conditioned_two_term_complex_is_exact(seed, ratio):
    """d = U diag(1, 0.5, ratio) V: the torsion is -log|det d| exactly. The
    Laplacian d d^* squares the condition number (to about 3e9 here) and
    lost up to 1e-7 of it, enough to fail the 1e-8 cross-check."""
    rng = np.random.default_rng(seed)
    d = _unitary(rng, 3) @ np.diag([1.0, 0.5, ratio]) @ _unitary(rng, 3)
    obj = matrix_object(matrix_backend(), 3)
    c = ChainComplexC((obj, obj), (matrix_morphism(obj, obj, d),))
    assert torsion_acyclic(c) == pytest.approx(-math.log(0.5 * ratio), rel=0.0, abs=1e-10)


@pytest.mark.parametrize("kind", ["Matrix", "FiniteGroup", "Family"])
@pytest.mark.parametrize("seed", range(4))
def test_agrees_with_the_laplacian_on_every_backend(kind, seed):
    rng = np.random.default_rng(seed)
    backend = standard_backends()[kind]
    _assert_agrees(_lift(rng, random_acyclic_complex(rng, int(rng.integers(2, 5)), 3), backend))


@pytest.mark.parametrize("with_products", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_agrees_with_the_laplacian_on_ragged_families(seed, with_products):
    rng = np.random.default_rng(seed)
    dims, diffs = _ragged_fibers(rng, 9)
    products = _products(rng, dims) if with_products else None
    _assert_agrees(_family_complex(uniform_interval_samples(9), dims, diffs, products))


@pytest.mark.parametrize("seed", range(6))
def test_both_forms_reject_cohomology(seed):
    rng = np.random.default_rng(seed)
    c = random_complex_with_cohomology(rng, int(rng.integers(1, 5)))
    with pytest.raises(NotAcyclicError):
        _via_laplacian(c)
    with pytest.raises(NotAcyclicError):
        torsion_acyclic(c, cross_check=False)


def test_one_values_only_svd_per_degree_and_no_operator_algebra(monkeypatch):
    calls = Counter()
    modules = [backends] + [sys.modules[f"l2torsion.{m}"]
                            for m in ("extcoh", "spectral", "torsion")]

    def count(owner, name, key=None):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key or name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for module in modules:
        for name in ("compose", "adjoint", "add", "fiber_svds"):
            if hasattr(module, name):
                count(module, name)
    count(ChainComplexC, "laplacian")
    count(ChainComplexC, "__post_init__", "ChainComplexC")

    rng = np.random.default_rng(3)
    for c in [random_acyclic_complex(rng, 4, 3)] + [
            _lift(rng, random_acyclic_complex(rng, 3, 2), backend)
            for backend in standard_backends().values()]:
        calls.clear()
        torsion_acyclic(c, cross_check=False)
        assert calls == Counter(fiber_svds=c.length)
