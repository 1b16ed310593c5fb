"""Morphisms round-trip through their JSON.

The declared dimensions fix the shape of every block, empty ones included,
and an object whose products are not all standard carries them, one matrix
per fiber, so that the round trip keeps the Fuglede-Kadison determinant.
The JSON text of ``dumps`` is that of ``json.dumps(indent=2,
sort_keys=True)``, byte for byte, errors included.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2torsion.backends import (
    BackendKind,
    HObject,
    Morphism,
    adjoint,
    compose,
    cyclic_group_table,
    dihedral_group_table,
    expand_group_matrix,
    family_backend,
    family_morphism,
    family_object,
    group_backend,
    group_object,
    group_ring_morphism,
    kernel_and_image_closure,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
)
from l2torsion.errors import ShapeMismatchError
from l2torsion.serialize import dumps, morphism_from_json, morphism_to_json
from l2torsion.spectral import log_fk_det

BACKENDS = {
    "Matrix": matrix_backend(),
    "cyclic": group_backend(cyclic_group_table(3), scale=2.0),
    "dihedral": group_backend(dihedral_group_table(3)),
    "Family": family_backend(uniform_interval_samples(4)),
}

# ranks per fiber of (source, target), over the group ring on FiniteGroup
RANKS = {
    "square": ((2,), (2,)),
    "onto zero": ((2,), (0,)),
    "from zero": ((0,), (2,)),
}
FAMILY_RANKS = {
    "square": ((2, 2, 2, 2), (2, 2, 2, 2)),
    "onto zero": ((2, 1, 2, 1), (0, 0, 0, 0)),
    "from zero": ((0, 0, 0, 0), (1, 2, 1, 2)),
    "mixed": ((2, 0, 1, 2), (0, 2, 1, 1)),
}


def _gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _positive(rng, k):
    a = _gaussian(rng, k, k)
    return a.conj().T @ a + 0.5 * np.eye(k)


def _object(rng, backend, ranks, products):
    """An object of the given ranks, with a random positive definite
    product on every fiber when ``products``; on FiniteGroup the product
    is a group-ring matrix."""
    if backend.kind is BackendKind.FINITE_GROUP:
        (rank,), order = ranks, backend.group_order
        if not products:
            return HObject(backend, (rank * order,))
        e = expand_group_matrix(backend.group_table, _gaussian(rng, rank, rank, order))
        return HObject(backend, (rank * order,), [e.conj().T @ e + np.eye(rank * order)])
    if not products:
        return HObject(backend, ranks)
    return HObject(backend, ranks, [_positive(rng, k) for k in ranks])


def _morphism(rng, source, target):
    backend = source.backend
    if backend.kind is BackendKind.FINITE_GROUP:
        order = backend.group_order
        coeffs = _gaussian(rng, target.dims[0] // order, source.dims[0] // order, order)
        return Morphism(source, target, (expand_group_matrix(backend.group_table, coeffs),))
    return Morphism(source, target, [_gaussian(rng, t, s)
                                     for t, s in zip(target.dims, source.dims)])


def _round_trip(m):
    return morphism_from_json(json.loads(dumps(morphism_to_json(m))))


def _cases():
    for name in BACKENDS:
        for shape in FAMILY_RANKS if name == "Family" else RANKS:
            for products in (False, True):
                yield name, shape, products


@pytest.mark.parametrize("name,shape,products", list(_cases()))
def test_morphism_round_trip(name, shape, products):
    backend = BACKENDS[name]
    src_ranks, tgt_ranks = (FAMILY_RANKS if name == "Family" else RANKS)[shape]
    rng = np.random.default_rng(len(name) + 7 * len(shape))
    source = _object(rng, backend, src_ranks, products)
    target = _object(rng, backend, tgt_ranks, products)
    m = _morphism(rng, source, target)
    back = _round_trip(m)
    assert back.backend.same_as(backend)
    for old, new in ((m.source, back.source), (m.target, back.target)):
        assert new.dims == old.dims
        assert (new.gram is None) == (old.gram is None) == (not products)
        if products:
            for p, q in zip(old.gram, new.gram):
                assert p.shape == q.shape and np.allclose(p, q, rtol=0.0, atol=1e-14)
    for a, b in zip(m.blocks, back.blocks):
        assert a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=1e-14)
    assert log_fk_det(back) == pytest.approx(log_fk_det(m), rel=0.0, abs=1e-14)


def test_products_survive_the_round_trip():
    """The product 3 I on the second fiber of the source gives log Det
    -(1/3) log 3; dropping it on the way through JSON gave 0."""
    backend = family_backend(uniform_interval_samples(3))
    source = family_object(backend, [1, 2, 1], [None, 3 * np.eye(2), None])
    target = family_object(backend, [1, 2, 1])
    m = family_morphism(source, target, [np.eye(1), np.eye(2), np.eye(1)])
    assert log_fk_det(m) == pytest.approx(-math.log(3.0) / 3, abs=1e-15)
    assert log_fk_det(_round_trip(m)) == log_fk_det(m)


def test_standard_objects_write_the_same_json():
    obj = matrix_object(matrix_backend(), 2)
    m = matrix_morphism(obj, obj, np.diag([3.0, 2.0]))
    assert morphism_to_json(m) == {
        "backend": {"kind": "Matrix", "scale": 1.0},
        "source_dims": [2],
        "target_dims": [2],
        "data": [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    }


def test_a_block_that_is_no_group_ring_matrix_is_not_written():
    """The kernel inclusion of 1 - t on Z/4 has source dimension 1, which
    was written as rank 0 and read back as a 4 x 0 map; a random block that
    does not commute with the group action was written as its identity
    column and read back off by 3.6."""
    backend = group_backend(cyclic_group_table(4))
    obj = group_object(backend, 1)
    inclusion = kernel_and_image_closure(
        group_ring_morphism(obj, obj, [[[1.0, -1.0, 0.0, 0.0]]]))[0].include()
    assert inclusion.source.dims == (1,)
    off_action = Morphism(obj, obj, (np.random.default_rng(0).normal(size=(4, 4)),))
    for m in (inclusion, off_action):
        with pytest.raises(ShapeMismatchError):
            morphism_to_json(m)


@pytest.mark.parametrize("table", [cyclic_group_table(4), dihedral_group_table(3)],
                         ids=["Z/4", "D6"])
def test_group_ring_composites_and_adjoints_round_trip(table):
    backend = group_backend(table)
    order = backend.group_order
    rng = np.random.default_rng(order)
    a, b, c = (group_object(backend, k) for k in (1, 2, 3))
    f = group_ring_morphism(b, c, _gaussian(rng, 3, 2, order))
    g = group_ring_morphism(a, b, _gaussian(rng, 2, 1, order))
    for m in (f, g, compose(f, g), adjoint(f), adjoint(compose(f, g))):
        back = _round_trip(m)
        assert back.source.dims == m.source.dims and back.target.dims == m.target.dims
        scale = max(1.0, np.linalg.norm(m.blocks[0]))
        assert np.abs(back.blocks[0] - m.blocks[0]).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the JSON text is the standard library's, byte for byte


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # nan and +-inf included
    st.floats(allow_nan=False).map(np.float64),
    st.text(),  # non-ASCII and control characters included
)
_PAYLOADS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner),
    st.lists(inner).map(tuple),
    st.lists(st.floats()),
    st.dictionaries(st.text(), inner),
    # keys the writer leaves to the standard library, one sortable kind each
    st.dictionaries(st.one_of(st.integers(), st.booleans()), inner),
    st.dictionaries(st.floats(allow_nan=False), inner),
    st.dictionaries(st.none(), inner),
), max_leaves=40)


@given(obj=_PAYLOADS)
@settings(max_examples=200, deadline=None)
def test_dumps_is_the_standard_library_text(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [
    {"a": np.int64(3)},  # a type json does not write
    [1.0, object()],
    {"a": 1, 2: 3},  # keys that do not sort together
])
def test_dumps_raises_what_the_standard_library_raises(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(want.value)


def test_dumps_reports_a_cycle_as_the_standard_library_does():
    obj = {"a": []}
    obj["a"].append(obj)
    with pytest.raises(ValueError, match="Circular reference detected"):
        dumps(obj)


def test_dumps_writes_every_cli_example_as_the_standard_library():
    from l2torsion.cli import EXAMPLES

    for build in EXAMPLES.values():
        obj = build()
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
