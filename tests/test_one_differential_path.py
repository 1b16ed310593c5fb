"""The one-differential path of ``torsion()`` does each piece of per-fiber
work once, with every number as the longer forms kept here give it.

- The large part's Laplacian check takes one values-only SVD for both
  degrees of a two-object complex: F_0 = d_0 and F_1 = d_0^* share their
  singular values. The per-degree form is kept here as the reference.
- The Laplacian's rank cut reads each fiber's largest kept value off the
  SVD groups instead of scattering the values; the scatter-max is kept here
  as the reference.
- ``frobenius`` of 1 x 1 blocks and ``FiberSVD.kept`` of one group skip a
  reduction and a concatenation; the long forms are kept here as the
  reference.
- The large part groups fibers by the ranks, and by the dimensions where
  they vary, without the harmonic widths.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from l2torsion import backends
from l2torsion.backends import (
    DEFAULT_RANK_TOL,
    Fibers,
    FiberSVD,
    align,
    fiber_svds,
    frobenius,
    hermitian,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
)
from l2torsion.cellular import circle_complex, circle_regular_representation, cochain_complex
from l2torsion.errors import NotAcyclicError
from l2torsion.extcoh import ChainComplexC
from l2torsion.harness import (
    family_multiplication_map,
    random_acyclic_complex,
    random_complex_with_cohomology,
)
from l2torsion.torsion import _laplacian_cut, _laplacian_torsion, hodge_split, torsion
from test_stacked_fibers import (
    _family_complex,
    _fiber_complex,
    _products,
    _ragged_fibers,
    _spread,
)

torsion_module = sys.modules["l2torsion.torsion"]


def _family_grid_complexes(n=1024):
    """The two complexes of the family_grid benchmark: the circle with
    regular coefficients and the e^(-1/x) family, which is not of
    determinant class."""
    circle = cochain_complex(circle_complex(), circle_regular_representation(n))
    samples = uniform_interval_samples(n)[np.random.default_rng(1).permutation(n)]
    with np.errstate(over="ignore", under="ignore"):
        d = family_multiplication_map(np.exp(-1.0 / samples[:, 0]), samples)
    return [circle, ChainComplexC((d.source, d.target), (d,))]


# ---------------------------------------------------------------------------
# count guards


def test_family_grid_torsion_scatters_nothing():
    calls = Counter()

    def spy(frame, event, arg):
        if event == "c_call" and getattr(arg, "__self__", None) is np.maximum:
            calls[arg.__name__] += 1

    for c in _family_grid_complexes():
        sys.setprofile(spy)
        try:
            torsion(c)
        finally:
            sys.setprofile(None)
    assert calls["at"] == 0


def test_family_grid_laplacian_check_takes_one_svd(monkeypatch):
    counts, svds = [], Counter()
    real_svds, real_check = torsion_module.fiber_svds, torsion_module._laplacian_torsion

    def counted_svds(*args, **kwargs):
        svds["calls"] += 1
        return real_svds(*args, **kwargs)

    def counted_check(*args, **kwargs):
        before = svds["calls"]
        out = real_check(*args, **kwargs)
        counts.append(svds["calls"] - before)
        return out

    monkeypatch.setattr(torsion_module, "fiber_svds", counted_svds)
    monkeypatch.setattr(torsion_module, "_laplacian_torsion", counted_check)
    for c in _family_grid_complexes():
        torsion(c)
    assert counts == [1, 1]


# ---------------------------------------------------------------------------
# bitwise oracles


def _scatter_cut(singular, n, tol):
    """The Laplacian's rank cut with the largest values scattered per fiber."""
    top = [np.zeros(n) for _ in range(len(singular) + 1)]
    for i, v in enumerate(singular):
        for t in top[i:i + 2]:
            np.maximum.at(t, v.fiber, v.values)
    return [tuple((v.values / t[v.fiber]) ** 2 > tol for t in top[i:i + 2])
            for i, v in enumerate(singular)]


def _cut_inputs():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        dims, diffs = _ragged_fibers(rng, 9)
        for products in (None, _products(rng, dims)):
            yield _family_complex(uniform_interval_samples(9), dims, diffs, products)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield random_acyclic_complex(rng, int(rng.integers(2, 5)))
        yield random_complex_with_cohomology(rng, int(rng.integers(1, 5)))


@pytest.mark.parametrize("tol", [DEFAULT_RANK_TOL, 1e-3, 0.5])
def test_laplacian_cut_matches_the_scatter_max(tol):
    for c in _cut_inputs():
        split = hodge_split(c)
        got = _laplacian_cut(split.svds, split.singular, tol)
        want = _scatter_cut(split.singular, c.backend.n_fibers, tol)
        assert len(got) == len(want)
        for pair, ref in zip(got, want):
            for mask, expected in zip(pair, ref):
                assert mask.dtype == expected.dtype and np.array_equal(mask, expected)


def test_frobenius_of_scalars_is_the_hypot_reduction():
    magnitudes = np.array([0.0, 1e-300, -1e-300, 1e-170, 1e300, 1.0, -0.0])
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False))
    for values in (magnitudes.astype(complex), magnitudes * phases,
                   np.outer(magnitudes, phases).ravel()):
        stack = values.reshape(-1, 1, 1)
        reference = np.hypot.reduce(np.abs(stack).reshape(len(stack), -1), axis=1,
                                    initial=0.0)
        got = frobenius(stack)
        assert got.dtype == reference.dtype and got.tobytes() == reference.tobytes()


def _concatenated(svd):
    """FiberSVD.kept by concatenating every group."""
    return (np.concatenate([np.zeros(0)] + [s[:, :r].ravel() for _, _, s, _, r in svd.groups]),
            np.concatenate([np.zeros(0, np.intp)]
                           + [np.repeat(idx, r) for idx, _, _, _, r in svd.groups]))


def _blocks_of_rank(rng, k, rank, shape=(2, 3)):
    return [_spread(rng, 3)[:shape[0], :shape[1]] @ np.diag([1.0] * rank + [0.0] * (3 - rank))
            for _ in range(k)]


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("several", [False, True])
def test_kept_matches_the_concatenation(rank, several):
    rng = np.random.default_rng(rank)
    blocks = _blocks_of_rank(rng, 5, rank)
    if several:  # other shapes and ranks on the odd fibers
        blocks[1::2] = _blocks_of_rank(rng, 2, (rank + 1) % 3, (3, 3))
    for vectors in (False, True):
        svd = fiber_svds(Fibers.from_list(blocks), vectors=vectors)
        assert (len(svd.groups) > 1) == several
        assert all(r == rank for *_, r in svd.groups[:1])
        kept, (values, fiber) = svd.kept(), _concatenated(svd)
        assert kept.values.dtype == values.dtype and kept.values.tobytes() == values.tobytes()
        assert kept.fiber.dtype == fiber.dtype and np.array_equal(kept.fiber, fiber)
    one = FiberSVD(((backends.fiber_range(4), None, np.ones((4, 2)), None, 1),), np.ones(4, int))
    assert one.kept().fiber is one.groups[0][0]


# ---------------------------------------------------------------------------
# the Laplacian check of a two-object complex


def _per_degree(std, dims, weights, tol):
    """The Laplacian torsion with one values-only SVD per degree."""
    total = 0.0
    for i, dim in enumerate(dims):
        parts = std[i:i + 1] + [b.map(hermitian) for b in std[max(i - 1, 0):i]]
        if parts:
            f = Fibers([(idx, np.concatenate(st, axis=1)) for idx, st in align(*parts)],
                       len(weights))
            svd = fiber_svds(f, math.sqrt(tol), vectors=False)
            kernel, log_det = svd.kernel_mass(weights, dim), svd.log_det(weights)
        else:
            kernel, log_det = float(np.dot(weights, dim)), 0.0
        if kernel > 1e-8:
            raise NotAcyclicError(f"Laplacian in degree {i} has a kernel")
        total += (-1) ** i * i * log_det
    return total


def _two_object_complexes(seed):
    """Two-object complexes on every kind of fiber grouping, with and
    without products; about half have a kernel."""
    rng = np.random.default_rng(seed)
    for square in (True, False):
        a = int(rng.integers(1, 5))
        b = a if square else a + 1
        source, target = matrix_object(matrix_backend(), a), matrix_object(matrix_backend(), b)
        d = rng.normal(size=(b, a)) + 1j * rng.normal(size=(b, a))
        yield ChainComplexC((source, target), (matrix_morphism(source, target, d),))
    k = 9
    samples = uniform_interval_samples(k)
    for ragged in (False, True):
        a = rng.integers(1, 4, size=k) if ragged else np.full(k, 2)
        for square in (True, False):
            b = a if square else a + (np.arange(k) % 2)
            dims = [a, b]
            diffs = [[_spread(rng, 4)[:b[f], :a[f]] for f in range(k)]]
            for products in (None, _products(rng, dims)):
                yield _family_complex(samples, dims, diffs, products)


@pytest.mark.parametrize("seed", range(4))
def test_laplacian_torsion_matches_the_per_degree_form(seed):
    outcomes = Counter()
    for c in _two_object_complexes(seed):
        args = ([d.standardized_blocks() for d in c.diffs], [o.dim_array for o in c.objects],
                c.backend.fiber_weights, DEFAULT_RANK_TOL)
        try:
            reference = _per_degree(*args)
        except NotAcyclicError:
            with pytest.raises(NotAcyclicError):
                _laplacian_torsion(*args)
            outcomes["kernel"] += 1
            continue
        got = _laplacian_torsion(*args)
        assert abs(got - reference) <= 1e-13 * max(1.0, abs(reference))
        outcomes["acyclic"] += 1
    assert outcomes["kernel"] and outcomes["acyclic"]


def test_laplacian_torsion_of_scalar_fibers_is_bit_identical():
    for c in _family_grid_complexes(64):
        args = ([d.standardized_blocks() for d in c.diffs], [o.dim_array for o in c.objects],
                c.backend.fiber_weights, DEFAULT_RANK_TOL)
        assert _laplacian_torsion(*args) == _per_degree(*args)


# ---------------------------------------------------------------------------
# grouping of the large part


@pytest.mark.parametrize("with_products", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_ragged_one_differential_family_splits_like_its_fibers(seed, with_products):
    """Rank-one fibers of dimensions 1..3: the ranks agree across fibers and
    the dimensions do not, so the large part must group by dimension."""
    rng = np.random.default_rng(seed)
    k = 9
    samples = uniform_interval_samples(k)
    a, b = rng.integers(1, 4, size=k), rng.integers(1, 4, size=k)
    dims = [a, b]
    diffs = [[np.outer(_spread(rng, 3)[:b[f], 0], _spread(rng, 3)[0, :a[f]]) for f in range(k)]]
    products = _products(rng, dims) if with_products else None
    c = _family_complex(samples, dims, diffs, products)
    assert (hodge_split(c).svds[0].rank == 1).all()
    assert len(c.diffs[0].standardized_blocks().groups) > 1
    report = torsion(c)
    assert report.checks["large_part_formulas"] <= 1e-12
    oracle = sum(w * torsion(_fiber_complex(dims, diffs, f, products),
                             epsilon=report.epsilon).log_rho_large
                 for f, w in enumerate(samples[:, 1]))
    assert report.log_rho_large == pytest.approx(oracle, rel=0.0, abs=1e-12)

