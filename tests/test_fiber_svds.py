"""One fiberwise SVD and one rank cut behind every morphism decomposition.

``backends.fiber_svds`` is the only place that decomposes a morphism and
decides its rank; densities, kernel/image frames, extended objects,
sections and exactness all read it.
"""

import numpy as np
import pytest

from l2torsion import backends
from l2torsion.backends import (
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
from l2torsion.detline import check_exactness, orthogonal_section
from l2torsion.errors import NotExactError
from l2torsion.extcoh import extended_object, zero_object
from l2torsion.spectral import singular_density

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
