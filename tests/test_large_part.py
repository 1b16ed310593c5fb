"""The large part of the epsilon split, cross-checked on its compressed stacks.

``torsion()`` reads the part above epsilon straight off the per-group stacks
that ``_split_parts`` compresses: no subcomplex object is built, the
Laplacian formula runs on the stacks, and each part gets the d^2 = 0 check
of ``ChainComplexC`` through ``check_d_squared``. These tests hold that path
to ``torsion_acyclic`` of the large subcomplex that ``split_complex`` builds,
bit for bit, and count what it constructs. They also hold the direct sum of
objects to the factors of its product and ``_fold`` to the verdicts of the
split.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from l2torsion.backends import (
    HObject,
    SubObject,
    align,
    direct_sum_objects,
    family_backend,
    family_morphism,
    family_object,
    hermitian,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    scale_morphism,
    uniform_interval_samples,
)
from l2torsion.cellular import circle_complex, circle_regular_representation, cochain_complex
from l2torsion.errors import NotAChainComplexError
from l2torsion.extcoh import ChainComplexC, check_d_squared
from l2torsion.harness import random_acyclic_complex, random_complex_with_cohomology
from l2torsion.torsion import default_epsilon, nu_map, split_complex, torsion, torsion_acyclic

torsion_module = sys.modules["l2torsion.torsion"]


def _positive(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a.conj().T @ a + 0.5 * np.eye(n)


def _ragged_family(rng, k, products):
    """A Family complex C^0 -> C^1 -> C^2 on k fibers whose ranks and
    harmonic dimensions differ across fibers, with singular values spread
    over four decades, and positive definite products on every other fiber
    when ``products``."""
    dims, d0, d1 = [[], [], []], [], []
    for _ in range(k):
        r0, r1 = (int(r) for r in rng.integers(1, 3, size=2))
        h = rng.integers(0, 2, size=3)
        n = (r0 + h[0], r0 + r1 + h[1], r1 + h[2])
        q = np.linalg.qr(rng.normal(size=(n[1], n[1])))[0]
        m0 = np.zeros((n[1], n[0]))
        m0[:r0, :r0] = np.diag(10.0 ** rng.uniform(-2.0, 2.0, r0))
        m1 = np.zeros((n[2], n[1]))
        m1[:r1, r0:r0 + r1] = np.diag(10.0 ** rng.uniform(-2.0, 2.0, r1))
        d0.append(q @ m0)
        d1.append(m1 @ q.T)
        for deg in range(3):
            dims[deg].append(int(n[deg]))
    backend = family_backend(uniform_interval_samples(k))
    objects = [
        family_object(backend, tuple(d), [
            _positive(rng, n) if products and f % 2 else None for f, n in enumerate(d)])
        for d in dims
    ]
    return ChainComplexC(tuple(objects), (
        family_morphism(objects[0], objects[1], d0),
        family_morphism(objects[1], objects[2], d1),
    ))


def _complexes():
    rng = np.random.default_rng(17)
    out = []
    for length in range(2, 6):
        out.append(random_acyclic_complex(rng, length, max_rank=3))
        out.append(random_complex_with_cohomology(rng, length))
    out += [_ragged_family(rng, 7, products) for products in (False, True)]
    return out


@pytest.fixture
def laplacian_values(monkeypatch):
    """The values the Laplacian formula returns from now on."""
    seen = []
    real = torsion_module._laplacian_torsion

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(torsion_module, "_laplacian_torsion", recorded)
    return seen


@pytest.mark.parametrize("factor", [None, 3.0, 1.0 / 3.0, 1e-3])
@pytest.mark.parametrize("case", range(10))
def test_large_part_check_matches_torsion_acyclic_of_the_large_subcomplex(
        case, factor, laplacian_values):
    c = _complexes()[case]
    eps = None if factor is None else default_epsilon(c) * factor
    laplacian_values.clear()
    report = torsion(c, epsilon=eps)
    seen = list(laplacian_values)
    _, large, _, _ = split_complex(c, report.epsilon)
    want = torsion_acyclic(large, cross_check=False)
    if not any(o.dim_tau > 0 for o in large.objects):
        assert seen == [] and "large_part_formulas" not in report.checks
        return
    assert seen == [want]
    assert report.checks["large_part_formulas"] == abs(report.log_rho_large - want)


def _counted(monkeypatch, owner, name, calls, key):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _circle(grid):
    return cochain_complex(circle_complex(), circle_regular_representation(grid))


def _two_term(values):
    obj = matrix_object(matrix_backend(), len(values))
    return ChainComplexC((obj, obj), (matrix_morphism(obj, obj, np.diag(values)),))


@pytest.mark.parametrize("make", [
    lambda: _circle(64),
    lambda: _two_term([1.0, 3e-6, 2.0]),
    lambda: random_acyclic_complex(np.random.default_rng(0), 2, 3),
    lambda: random_acyclic_complex(np.random.default_rng(1), 4, 3),
    lambda: random_complex_with_cohomology(np.random.default_rng(2), 3),
    lambda: _ragged_family(np.random.default_rng(3), 5, True),
], ids=["circle", "two_term", "acyclic_2", "acyclic_4", "cohomology_3", "ragged_products"])
def test_torsion_builds_no_subcomplex(make, monkeypatch):
    """torsion() builds no ChainComplexC and no SubObject: both parts are
    taken in standardized coordinates. With two or more differentials the
    d^2 = 0 check runs on both parts; with one it has nothing to compose."""
    c = make()
    calls = Counter()
    _counted(monkeypatch, ChainComplexC, "__post_init__", calls, "ChainComplexC")
    _counted(monkeypatch, SubObject, "__post_init__", calls, "SubObject")
    _counted(monkeypatch, torsion_module, "check_d_squared", calls, "check_d_squared")
    report = torsion(c)
    assert "large_part_formulas" in report.checks
    assert calls["ChainComplexC"] == 0
    assert calls["SubObject"] == 0
    assert calls["check_d_squared"] == (2 if len(c.diffs) > 1 else 0)


def test_both_parts_are_checked_against_the_norm_of_the_complex(monkeypatch):
    """Each part's check sees the norms of its own compressed maps and the
    largest norm of the complex's differentials as the reference."""
    c = random_complex_with_cohomology(np.random.default_rng(4), 4)
    seen = []
    real = torsion_module.check_d_squared

    def recorded(norms, pairs, check_norm):
        seen.append((list(norms), check_norm))
        return real(norms, pairs, check_norm)

    monkeypatch.setattr(torsion_module, "check_d_squared", recorded)
    report = torsion(c)
    small, large, _, _ = split_complex(c, report.epsilon)
    assert [norms for norms, _ in seen] == [
        [d.norm() for d in part.diffs] for part in (large, small)]
    assert all(ref == max(d.norm() for d in c.diffs) for _, ref in seen)
    assert small.check_norm == large.check_norm == seen[0][1]


def _pairs(diffs):
    return [align(a.blocks, b.blocks) for b, a in zip(diffs, diffs[1:])]


def test_check_d_squared_rejects_what_the_constructor_rejects():
    obj1, obj2 = matrix_object(matrix_backend(), 1), matrix_object(matrix_backend(), 2)
    d0 = matrix_morphism(obj1, obj2, [[1e155], [0.0]])
    ok = matrix_morphism(obj2, obj1, [[0.0, 1e155]])
    bad = matrix_morphism(obj2, obj1, [[1e155, 1e155]])
    square = matrix_morphism(obj2, obj2, [[1.0, 1.0], [0.0, 1.0]])
    for objects, diffs, fine in [
        ((obj1, obj2, obj1), (d0, ok), True),
        ((obj1, obj2, obj1), (d0, bad), False),
        ((obj2, obj2, obj2), (square, square), False),
        ((obj2, obj2, obj2, obj2), (square, scale_morphism(square, 0.0), square), True),
    ]:
        norms = [d.norm() for d in diffs]
        if fine:
            ChainComplexC(objects, diffs)
            check_d_squared(norms, _pairs(diffs))
            continue
        with pytest.raises(NotAChainComplexError):
            ChainComplexC(objects, diffs)
        with pytest.raises(NotAChainComplexError):
            check_d_squared(norms, _pairs(diffs))


def test_check_d_squared_reads_the_reference_norm():
    """A product of rounding size against small maps passes only when the
    reference norm says the maps were compressed out of larger ones."""
    obj = matrix_object(matrix_backend(), 2)
    a = matrix_morphism(obj, obj, [[1e-3, 0.0], [0.0, 0.0]])
    b = matrix_morphism(obj, obj, [[1e-3, 0.0], [0.0, 0.0]])
    norms = [a.norm(), b.norm()]
    with pytest.raises(NotAChainComplexError):
        check_d_squared(norms, _pairs((a, b)))
    check_d_squared(norms, _pairs((a, b)), check_norm=1e3)
    ChainComplexC((obj, obj, obj), (a, b), check_norm=1e3)


# ---------------------------------------------------------------------------
# _fold and the verdicts of the split


@pytest.mark.parametrize("seed", range(4))
def test_nu_map_classifies_each_differential_once(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    c = (random_acyclic_complex if seed % 2 else random_complex_with_cohomology)(rng, 4)
    calls = Counter()
    _counted(monkeypatch, torsion_module, "classify_determinant", calls, "classify")
    nu_map(c)
    assert calls["classify"] == len(c.diffs)


def test_torsion_classifies_each_differential_once(monkeypatch):
    """Every part of the epsilon split folds on the split's verdicts, at
    the default epsilon and at a user epsilon on either side of it."""
    c = random_complex_with_cohomology(np.random.default_rng(4), 4)
    eps = default_epsilon(c)
    calls = Counter()
    _counted(monkeypatch, torsion_module, "classify_determinant", calls, "classify")
    for epsilon in (None, 3.0 * eps, eps / 3.0):
        calls.clear()
        torsion(c, epsilon=epsilon)
        assert calls["classify"] == len(c.diffs), epsilon


@pytest.mark.parametrize("lam", [1e-9, 1e-10, 1e-13])
def test_large_part_below_the_ladder_rungs_folds(lam):
    """d = lam diag(1, 2) is acyclic, but both values lie below 1e-8,
    where the certificate's ladder reads its tail. The large part, here
    2 lam, is a plain log sum; the small part keeps its frames exactly
    when the split's verdict on d is not Convergent."""
    report = torsion(_two_term([lam, 2.0 * lam]))
    assert report.log_rho_large == pytest.approx(-math.log(2.0 * lam), rel=1e-12, abs=0.0)
    labels = [frame.label for frame, _ in report.combined.word]
    assert (labels == ["H:W0", "H:B1"]) == (not report.detclass[1].convergent)
    assert labels in (["H:W0", "H:B1"], [])


# ---------------------------------------------------------------------------
# direct sums of objects


@pytest.fixture
def linalg_calls(monkeypatch):
    calls = Counter()
    for name in dir(np.linalg):
        real = getattr(np.linalg, name)
        if not name.startswith("_") and callable(real) and not isinstance(real, type):
            _counted(monkeypatch, np.linalg, name, calls, name)
    return calls


def _with_product(rng, backend, dims):
    return HObject(backend, dims, [_positive(rng, d) if d else None for d in dims])


@pytest.mark.parametrize("standard", [None, "left", "right"])
def test_direct_sum_reuses_the_factors_of_its_parts(standard, linalg_calls):
    rng = np.random.default_rng(8)
    backend = family_backend(uniform_interval_samples(4))
    a = (HObject(backend, (1, 2, 0, 2)) if standard == "left"
         else _with_product(rng, backend, (1, 2, 0, 2)))
    b = (HObject(backend, (2, 2, 1, 0)) if standard == "right"
         else _with_product(rng, backend, (2, 2, 1, 0)))
    a.factors(), b.factors()
    linalg_calls.clear()
    s = direct_sum_objects(a, b)
    upper, inverse = s.factors()
    assert sum(linalg_calls.values()) == 0
    # the sum factored from scratch
    fresh = HObject(backend, s.dim_array, s.gram)
    for f in range(4):
        assert np.array_equal(s.gram[f], fresh.gram[f])
        ref_upper, ref_inverse = fresh.factors()[0][f], fresh.factors()[1][f]
        for got, ref in ((upper[f], ref_upper), (inverse[f], ref_inverse)):
            assert np.allclose(got, ref, rtol=0.0, atol=1e-14 * max(1.0, abs(ref).max()))
        assert np.allclose(hermitian(upper[f]) @ upper[f], s.gram[f], rtol=0.0, atol=1e-12)


def test_direct_sum_of_standard_objects_stays_standard():
    backend = matrix_backend()
    s = direct_sum_objects(matrix_object(backend, 2), matrix_object(backend, 3))
    assert s.gram is None and s.factors() is None and s.dims == (5,)
