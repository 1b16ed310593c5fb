"""One fiberwise SVD and one rank cut behind every morphism decomposition.

``backends.fiber_svds`` is the only place that decomposes a morphism and
decides its rank; densities, kernel/image frames, extended objects,
sections and exactness all read it. Groups of 1 x 1 blocks take the closed
form instead of a LAPACK call, and are held to np.linalg.svd here.
"""

import numpy as np
import pytest

from l2torsion import backends
from l2torsion.backends import (
    DEFAULT_RANK_TOL,
    family_backend,
    family_morphism,
    family_object,
    fiber_svds,
    kernel_and_image_closure,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    trace,
    uniform_interval_samples,
    zero_morphism,
)
from l2torsion.cellular import circle_complex, circle_regular_representation, cochain_complex
from l2torsion.detline import check_exactness, orthogonal_section
from l2torsion.errors import NotExactError
from l2torsion.extcoh import extended_object, zero_object
from l2torsion.harness import family_multiplication_map
from l2torsion.spectral import singular_density
from l2torsion.torsion import torsion

# singular values at the default cut 1e-10 * (largest value) and one part in
# 1e6 on either side of it
AROUND_CUT = (1.0, 1e-10, 1e-10 * (1 + 1e-6), 1e-10 * (1 - 1e-6))


def _matrix_map(values):
    obj = matrix_object(matrix_backend(), len(values))
    return matrix_morphism(obj, obj, np.diag(values))


def _family_map(values, ragged):
    """The diagonal map on four fibers; ``ragged`` gives the last fiber an
    extra zero column, so the fibers no longer share a shape."""
    backend = family_backend(uniform_interval_samples(4))
    n = len(values)
    extra = (0, 0, 0, 1) if ragged else (0, 0, 0, 0)
    source = family_object(backend, tuple(n + e for e in extra))
    target = family_object(backend, n)
    blocks = [np.hstack([np.diag(values), np.zeros((n, e))]) for e in extra]
    return family_morphism(source, target, blocks)


MAPS = {
    "Matrix": _matrix_map,
    "Family": lambda values: _family_map(values, ragged=False),
    "Family-ragged": lambda values: _family_map(values, ragged=True),
}


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the arrays handed to np.linalg.svd from now on."""
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("kind", ["Matrix", "Family"])
def test_extended_object_takes_one_svd(kind, svd_calls):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 3))  # rank 2, 4 x 3
    if kind == "Matrix":
        f = matrix_morphism(matrix_object(matrix_backend(), 3),
                            matrix_object(matrix_backend(), 4), a)
    else:
        backend = family_backend(uniform_interval_samples(16))
        f = family_morphism(family_object(backend, 3), family_object(backend, 4),
                            [(1 + k) * a for k in range(16)])
    x = extended_object(f)
    assert svd_calls == [(1, 4, 3) if kind == "Matrix" else (16, 4, 3)]
    assert x.source.dims == (2,) * f.backend.n_fibers
    assert x.projective_dim == pytest.approx(2 * sum(f.backend.fiber_weights))


@pytest.mark.parametrize("kind", sorted(MAPS))
def test_check_exactness_builds_no_subobject(kind, monkeypatch):
    f = MAPS[kind]((1.0, 2.0))
    made = []
    real = backends.SubObject.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(backends.SubObject, "__post_init__", counted)
    zero = zero_object(f.backend)
    for alpha, beta in ((zero_morphism(zero, f.source), f),
                        (f, zero_morphism(f.target, zero))):
        try:
            check_exactness(alpha, beta)
        except NotExactError:
            pass
    assert made == []


@pytest.mark.parametrize("values", [AROUND_CUT, (1.0, 1e-10 * (1 + 1e-6)), (1.0, 1e-10)])
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_every_reading_shares_the_rank_cut(kind, values):
    f = MAPS[kind](values)
    weights = f.backend.fiber_weights
    source, target = np.array(f.source.dims), np.array(f.target.dims)
    rank = np.array([r for r, *_ in fiber_svds(f)])
    assert np.array_equal(rank, [r for r, *_ in fiber_svds(f, vectors=False)])
    # a value equal to the cut counts as zero; 1 + 1e-6 times it does not
    assert np.array_equal(rank, [sum(v > 1e-10 for v in values)] * len(rank))

    assert singular_density(f).zero_mass == pytest.approx(np.dot(weights, source - rank))
    ker, im = kernel_and_image_closure(f)
    assert ker.space.dims == tuple(source - rank)
    assert im.space.dims == tuple(rank)
    x = extended_object(f)
    assert x.source.dims == tuple(rank)
    assert x.projective_dim == pytest.approx(np.dot(weights, target - rank))
    section = orthogonal_section(f)
    assert trace(f @ section) == pytest.approx(np.dot(weights, rank), abs=1e-8)

    zero = zero_object(f.backend)
    injective = np.array_equal(rank, source)
    try:
        check_exactness(f, zero_morphism(f.target, zero))
        exact = True
    except NotExactError:
        exact = False
    assert exact == injective


# 1 x 1 blocks across the float range, complex phases, and (at scale 1)
# values at the rank cut 1e-10 and one part in 1e6 above it
SCALARS = np.array([
    0.0, 1e-300, -1e-300, 1e-170, 1e300, -1e300, 3 + 4j, -2j, np.exp(2.5j),
    1e-200 * np.exp(-1j), 1e-10, -1e-10, 1e-10 * (1 + 1e-6), 1e-10j * (1 + 1e-6),
])


@pytest.mark.parametrize("scale, ranks", [
    (0.0, [0] + [1] * 13),
    (1.0, [0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1]),
])
@pytest.mark.parametrize("vectors", [True, False])
def test_scalar_blocks_match_lapack(vectors, scale, ranks, svd_calls):
    f = family_multiplication_map(SCALARS)
    scale = np.full(len(SCALARS), scale)
    got = list(fiber_svds(f, scale=scale, vectors=vectors))
    assert svd_calls == []

    s_ref = np.linalg.svd(SCALARS.reshape(-1, 1, 1), compute_uv=False)
    rank_ref = np.count_nonzero(
        s_ref > DEFAULT_RANK_TOL * np.maximum(s_ref, scale[:, None]), axis=1)
    assert [r for r, *_ in got] == rank_ref.tolist() == ranks
    for (r, u, s, vh), a, sr in zip(got, SCALARS, s_ref):
        np.testing.assert_allclose(s, sr, rtol=1e-15, atol=0)
        if not vectors:
            assert u is None and vh is None
            continue
        assert u.shape == vh.shape == (1, 1)
        assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-15)
        assert vh[0, 0] == 1.0
        assert abs(u[0, 0] * s[0] * vh[0, 0] - a) <= 1e-15 * abs(a)


def test_scalar_norm_matches_lapack():
    f = family_multiplication_map(SCALARS)
    assert f.norm() == 1e300
    for a in SCALARS:
        obj = matrix_object(matrix_backend(), 1)
        m = matrix_morphism(obj, obj, [[a]])
        assert m.norm() == pytest.approx(np.linalg.norm([[a]], 2), rel=1e-15, abs=0)


def test_circle_takes_no_scalar_svd(svd_calls, monkeypatch):
    """Neither fiber_svds nor Morphism.norm hands a stack of 1 x 1 blocks
    to LAPACK on the circle with regular coefficients."""
    norm_calls = []
    real = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            norm_calls.append(np.shape(x))
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    c = cochain_complex(circle_complex(), circle_regular_representation(1024))
    report = torsion(c)
    assert report.scalar_value == pytest.approx(1.0, abs=1e-3)
    assert [sh for sh in svd_calls + norm_calls if sh[-2:] == (1, 1)] == []
