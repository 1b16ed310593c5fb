"""Fiber data kept in numpy arrays, each fiber set sorted at most once.

An object keeps its fiber dimensions as one integer array, ``partition``
groups fibers with one stable argsort, and the log-determinants that need
no order (the Laplacian cross-check of the large part, the unimodularity
defect of a representation, ``log_fk_det``) are read off the kept values of
a values-only SVD without building a sorted density. These tests hold the new code to
references written the old way, and pin the sorting a torsion call does.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from l2torsion import spectral
from l2torsion.backends import (
    HObject,
    cyclic_group_table,
    family_backend,
    family_object,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    partition,
    uniform_interval_samples,
)
from l2torsion.cellular import (
    circle_complex,
    circle_regular_representation,
    combinatorial_torsion,
    cochain_complex,
    finite_pi,
    infinite_cyclic_pi,
    matrix_representation,
    re_lift,
    regular_representation,
)
from l2torsion.errors import InputValidationError
from l2torsion.extcoh import ChainComplexC, cohomology
from l2torsion.harness import family_multiplication_map, random_complex_with_cohomology
from l2torsion.spectral import log_fk_det
from l2torsion.torsion import torsion, torsion_acyclic

GRID = 1024


def _unique_partition(keys):
    """The grouping as np.unique gives it: [(idx, key)] with the keys
    ascending and each idx ascending."""
    values, inverse = np.unique(keys, return_inverse=True)
    return [(np.flatnonzero(inverse == k), v) for k, v in enumerate(values)]


NEAR_TOP = (1 << 62) - 3


@pytest.mark.parametrize("keys", [
    [],
    [7],
    [4, 4, 4, 4],
    [-3, 5, -3, 0, 5, -8],
    [NEAR_TOP, 0, NEAR_TOP + 2, -NEAR_TOP, NEAR_TOP, 1],
])
def test_partition_matches_unique_on_edge_cases(keys):
    keys = np.array(keys, dtype=np.int64)
    got, want = partition(keys), _unique_partition(keys)
    assert len(got) == len(want)
    for (idx, key), (ref_idx, ref_key) in zip(got, want):
        assert np.array_equal(idx, ref_idx) and key == ref_key


@pytest.mark.parametrize("seed", range(30))
def test_partition_matches_unique_on_random_keys(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    keys = rng.integers(-4, 5, n) * int(rng.choice([1, 1000, 1 << 58]))
    got, want = partition(keys.astype(np.int64)), _unique_partition(keys)
    assert [int(k) for _, k in got] == [int(k) for _, k in want]
    for (idx, _), (ref_idx, _) in zip(got, want):
        assert np.array_equal(idx, ref_idx)


def _old_dims(dims):
    """The tuple the object stored before its dimensions became an array."""
    if isinstance(dims, np.ndarray):
        return tuple(dims.astype(int, copy=False).reshape(-1).tolist())
    return tuple(map(int, dims))


SAMPLES = uniform_interval_samples(6)


@pytest.mark.parametrize("dims", [
    (1, 2, 0, 3, 2, 2),
    [2, 2, 2, 2, 2, 2],
    np.array([3, 1, 4, 1, 5, 0]),
    np.array([[1, 2, 1], [2, 1, 0]], dtype=np.int32),
    (np.int64(2), 1, np.int8(0), 3, 3, 2),
    (2.0, 1.0, 0.0, 4.0, 1.0, 1.0),
])
def test_dims_read_as_before(dims):
    obj = HObject(family_backend(SAMPLES), dims)
    assert obj.dims == _old_dims(dims)
    assert all(type(d) is int for d in obj.dims)
    assert obj.dim_array.dtype == int and obj.dim_array.shape == (6,)
    uniform = obj.dims[0] if len(set(obj.dims)) == 1 else None
    assert obj.uniform_dim == uniform


def test_same_space_truth_table():
    backend = family_backend(SAMPLES)
    ragged = np.array([1, 2, 0, 3, 2, 2])
    a = HObject(backend, ragged)
    cases = [
        (HObject(backend, ragged), True),  # the same array
        (HObject(backend, ragged.copy()), True),  # equal dims, distinct arrays
        (HObject(family_backend(SAMPLES.copy()), tuple(ragged)), True),  # equal backend
        (HObject(backend, [1, 2, 0, 3, 2, 1]), False),  # one fiber differs
        (HObject(backend, [2] * 6), False),  # uniform against ragged
        (HObject(family_backend(SAMPLES, scale=2.0), ragged), False),  # other trace
        (HObject(family_backend(SAMPLES[:5]), ragged[:5]), False),  # other length
        (HObject(matrix_backend(), (1,)), False),  # other backend kind
    ]
    for other, same in cases:
        assert a.same_space(other) is same and other.same_space(a) is same
    assert a.same_space(a)
    uniform = family_object(backend, 2)
    assert uniform.same_space(family_object(backend, 2))
    assert not uniform.same_space(family_object(backend, 3))


# ---------------------------------------------------------------------------
# call counts on the 1024-fiber inputs of the family benchmark


def _divergent():
    samples = uniform_interval_samples(GRID)
    with np.errstate(over="ignore", under="ignore"):
        values = np.exp(-1.0 / samples[:, 0])
    d = family_multiplication_map(values, samples)
    return ChainComplexC((d.source, d.target), (d,))


def _circle():
    return re_lift(circle_complex(), {"v": 2, "e": -1})


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts of np.argsort and np.unique calls, and of SpectralDensity
    constructions."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("argsort", "unique"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    monkeypatch.setattr(spectral.SpectralDensity, "__post_init__", counted(
        "density", spectral.SpectralDensity.__post_init__))
    return calls


def test_no_unique_call_on_the_family_benchmark_ops(numpy_calls):
    divergent = _divergent()
    circle, rep = _circle(), circle_regular_representation(GRID)
    numpy_calls.clear()
    assert torsion(divergent).detclass[1].status == "Divergent"
    report = combinatorial_torsion(circle, rep)
    assert abs(report.scalar_value - 1.0) < 1.01 * np.log(2.0) / GRID
    assert numpy_calls["unique"] == 0


def test_argsort_calls_per_torsion_are_pinned(numpy_calls):
    """Per torsion() call: one stable argsort per partition that meets more
    than one key, and one sort per certificate density. The divergent
    complex has fibers of two ranks, so its groupings are not trivial: the
    ranks of its SVD and the fibers of its large part. No Hodge frame is
    aligned or grouped, since a complex with one differential builds none."""
    divergent = _divergent()
    circle = cochain_complex(_circle(), circle_regular_representation(GRID))
    counts = []
    for c in (divergent, circle):
        numpy_calls.clear()
        torsion(c)
        counts.append((numpy_calls["argsort"], numpy_calls["density"]))
    assert counts == [(2, 1), (1, 1)]


def test_laplacian_cross_check_builds_no_density(numpy_calls, monkeypatch):
    torsion_module = sys.modules["l2torsion.torsion"]
    real = torsion_module._laplacian_torsion
    inside = Counter()

    def spied(*args):
        before = numpy_calls["density"]
        out = real(*args)
        inside["calls"] += 1
        inside["density"] += numpy_calls["density"] - before
        return out

    monkeypatch.setattr(torsion_module, "_laplacian_torsion", spied)
    circle = cochain_complex(_circle(), circle_regular_representation(GRID))
    assert torsion(circle).checks["large_part_formulas"] < 1e-12
    torsion(_divergent())
    torsion_acyclic(circle, cross_check=False)
    assert inside == {"calls": 3, "density": 0}


def test_unimodular_defect_builds_no_density(numpy_calls):
    reps = [circle_regular_representation(GRID),
            regular_representation(finite_pi(cyclic_group_table(5)))]
    numpy_calls.clear()
    for rep in reps:
        assert rep.unimodular_defect() < 1e-8
    assert numpy_calls["density"] == 0


def test_log_fk_det_builds_no_density(numpy_calls):
    maps = [_divergent().diffs[0], matrix_morphism(
        matrix_object(matrix_backend(), 3), matrix_object(matrix_backend(), 2),
        [[2.0, 1.0, 0.0], [0.0, 0.5, 0.0]])]
    wants = [spectral.singular_density(f).log_moment() for f in maps]
    numpy_calls.clear()
    for f, want in zip(maps, wants):
        assert log_fk_det(f) == pytest.approx(want, rel=1e-13)
    assert numpy_calls["density"] == 0


def test_cohomology_sorts_only_the_densities_of_the_split(numpy_calls):
    """The Novikov-Shubin exponents read the densities the split built for
    its verdicts."""
    c = random_complex_with_cohomology(np.random.default_rng(5), 4)
    numpy_calls.clear()
    cohomology(c)
    assert numpy_calls["density"] == len(c.diffs)


@pytest.mark.parametrize("rep", [
    circle_regular_representation(64),
    regular_representation(finite_pi(cyclic_group_table(4))),
    matrix_representation(infinite_cyclic_pi(), {1: np.array([[2.0, 1.0], [0.0, 0.25]])}),
    matrix_representation(infinite_cyclic_pi(), {1: np.diag([3.0, 1.0])}),
])
def test_unimodular_defect_is_the_largest_log_determinant(rep):
    want = max(abs(log_fk_det(rep.image(g))) for g in rep.generators)
    assert rep.unimodular_defect() == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_singular_image_is_not_unimodular():
    rep = matrix_representation(finite_pi(cyclic_group_table(2)),
                                [np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(InputValidationError, match="singular"):
        rep.unimodular_defect()
