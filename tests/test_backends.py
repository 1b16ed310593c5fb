"""Objects, morphisms, trace, and adjoints over the three backends."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2torsion.backends import (
    adjoint,
    compose,
    cyclic_group_table,
    dihedral_group_table,
    expand_group_matrix,
    extract_group_coeffs,
    family_backend,
    family_morphism,
    family_object,
    group_backend,
    group_object,
    group_ring_morphism,
    identity_morphism,
    Morphism,
    kernel_and_image_closure,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    orthocomplement,
    scalar_morphism,
    subobject_from_std_frames,
    trace,
    uniform_interval_samples,
)
from l2torsion.errors import InputValidationError, ShapeMismatchError
from l2torsion.harness import random_invertible_morphism


def _random_object(backend, rng, rank=3):
    from l2torsion.backends import BackendKind, HObject

    if backend.kind is BackendKind.MATRIX:
        return matrix_object(backend, rank)
    if backend.kind is BackendKind.FINITE_GROUP:
        return group_object(backend, rank)
    return family_object(backend, rank)


class TestGroupTables:
    def test_cyclic_table_is_a_group(self):
        group_backend(cyclic_group_table(7))  # constructor validates axioms

    def test_dihedral_table_is_a_group(self):
        group_backend(dihedral_group_table(4))

    def test_broken_table_rejected(self):
        table = cyclic_group_table(4)
        table[2, 3] = 2  # breaks cancellation
        with pytest.raises(InputValidationError):
            group_backend(table)


class TestTrace:
    def test_identity_trace_is_dim_tau(self, backend, rng):
        obj = _random_object(backend, rng)
        assert trace(identity_morphism(obj)) == pytest.approx(obj.dim_tau)

    def test_trace_is_symmetric(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        g = random_invertible_morphism(rng, backend, 3)
        assert trace(compose(f, g)) == pytest.approx(trace(compose(g, f)))

    def test_group_ring_trace_reads_identity_coefficient(self):
        backend = group_backend(cyclic_group_table(4))
        obj = group_object(backend, 1)
        coeffs = np.zeros((1, 1, 4), complex)
        coeffs[0, 0, 0] = 2.5  # identity
        coeffs[0, 0, 1] = -1.0  # shifted, trace-free
        f = group_ring_morphism(obj, obj, coeffs)
        assert trace(f) == pytest.approx(2.5)


class TestAdjoint:
    def test_adjoint_pairing(self, backend, rng):
        """<f x, y> = <x, f* y> for the standardized inner products."""
        f = random_invertible_morphism(rng, backend, 3)
        fs = adjoint(f)
        for fi in range(backend.n_fibers):
            p_t = f.target.product_matrix(fi)
            p_s = f.source.product_matrix(fi)
            lhs = f.blocks[fi].conj().T @ p_t
            rhs = p_s @ fs.blocks[fi]
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.linalg.norm(lhs)))

    def test_double_adjoint(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 2)
        ff = adjoint(adjoint(f))
        for a, b in zip(f.blocks, ff.blocks):
            assert np.allclose(a, b)


def _loop_expand(table, ring_matrix):
    """Reference: the per-entry, per-element expansion loop."""
    ring_matrix = np.asarray(ring_matrix, dtype=complex)
    kt, ks, n = ring_matrix.shape
    out = np.zeros((kt * n, ks * n), dtype=complex)
    cols = np.arange(n)
    for i in range(kt):
        for j in range(ks):
            for g in range(n):
                c = ring_matrix[i, j, g]
                if c != 0:
                    out[i * n + table[g], j * n + cols] += c
    return out


def _loop_extract(table, block):
    """Reference: the identity column of each block, one at a time."""
    n = table.shape[0]
    kt, ks = block.shape[0] // n, block.shape[1] // n
    out = np.zeros((kt, ks, n), dtype=complex)
    for i in range(kt):
        for j in range(ks):
            out[i, j] = block[i * n : (i + 1) * n, j * n]
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


class TestGroupRingExpansion:
    @pytest.mark.parametrize("table", [cyclic_group_table(6), dihedral_group_table(4),
                                       cyclic_group_table(1)], ids=["Z/6", "D8", "Z/1"])
    def test_expansion_matches_the_loop_bit_for_bit(self, table, rng):
        n = table.shape[0]
        for kt, ks in [(1, 1), (2, 3), (0, 2), (2, 0)]:
            coeffs = rng.integers(-2, 3, size=(kt, ks, n)) + 1j * rng.integers(-1, 2, size=(kt, ks, n))
            coeffs = coeffs * rng.choice([1.0, -1.0], size=coeffs.shape)  # zeros of both signs
            coeffs.flat[::3] = complex(-0.0, -0.0)
            coeffs.flat[1::5] = complex(0.0, -0.0)
            block = expand_group_matrix(table, coeffs)
            assert _same_bits(block, _loop_expand(table, coeffs))
            noisy = block + rng.normal(size=block.shape)
            noisy[: 2 * n : 2] = -0.0
            assert _same_bits(extract_group_coeffs(table, noisy), _loop_extract(table, noisy))

    def test_expand_then_extract_roundtrip(self, rng):
        table = cyclic_group_table(5)
        coeffs = rng.normal(size=(2, 3, 5)) + 1j * rng.normal(size=(2, 3, 5))
        block = expand_group_matrix(table, coeffs)
        back = extract_group_coeffs(table, block)
        assert np.allclose(coeffs, back)

    def test_expansion_is_multiplicative(self, rng):
        table = dihedral_group_table(3)
        n = table.shape[0]
        a = rng.normal(size=(2, 2, n))
        b = rng.normal(size=(2, 2, n))
        prod = expand_group_matrix(table, a) @ expand_group_matrix(table, b)
        # the product of expansions is itself an expansion
        assert np.allclose(
            prod, expand_group_matrix(table, extract_group_coeffs(table, prod))
        )


class TestSubObjects:
    def test_standard_products_skip_identity_factors(self, rng):
        # mixes a standard and a non-standard product on the two sides; the
        # standard side must give exactly what the identity factor gave
        backend = matrix_backend()
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        plain = matrix_object(backend, 2)
        weighted = matrix_object(backend, 3, a.conj().T @ a + np.eye(3))
        blk = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        f = matrix_morphism(plain, weighted, blk)
        g = matrix_morphism(weighted, plain, blk.T)
        eye2 = np.eye(2, dtype=complex)
        s = weighted.std_factor(0)
        assert np.array_equal(
            f.standardized_blocks()[0], s @ blk @ np.linalg.inv(eye2)
        )
        assert np.array_equal(
            g.standardized_blocks()[0], eye2 @ blk.T @ np.linalg.inv(s)
        )
        frames = [rng.normal(size=(2, 1)) + 0j]
        sub = subobject_from_std_frames(plain, frames)
        assert np.array_equal(sub.project().blocks[0], frames[0].conj().T @ eye2)

    def test_kernel_image_dims_of_diagonal(self):
        backend = matrix_backend()
        obj = matrix_object(backend, 3)
        f = matrix_morphism(obj, obj, np.diag([2.0, 1.0, 0.0]))
        ker, im = kernel_and_image_closure(f)
        assert ker.space.dims == (1,)
        assert im.space.dims == (2,)

    def test_orthocomplement_dims(self, backend, rng):
        obj = _random_object(backend, rng, rank=4)
        frames = [
            np.linalg.qr(rng.normal(size=(d, min(2, d))))[0] for d in obj.dims
        ]
        # turn the frames into product-orthonormal columns
        sub = subobject_from_std_frames(
            obj, [obj.std_factor(i) @ fr * 0 + fr for i, fr in enumerate(frames)]
        )
        comp = orthocomplement(sub)
        for ds, dc, d in zip(sub.space.dims, comp.space.dims, obj.dims):
            assert ds + dc == d

    def test_include_then_project_is_identity(self, rng):
        backend = matrix_backend()
        obj = matrix_object(backend, 4)
        q = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        sub = subobject_from_std_frames(obj, [q])
        roundtrip = compose(sub.project(), sub.include())
        assert np.allclose(roundtrip.blocks[0], np.eye(2), atol=1e-12)


def test_norm_is_taken_once_and_never_at_construction(monkeypatch, backend, rng):
    f = random_invertible_morphism(rng, backend, 3)
    want = float(max(np.linalg.svd(b, compute_uv=False).max() for b in f.blocks))
    calls = []
    real = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    m = Morphism(f.source, f.target, f.blocks)
    assert calls == []
    assert m.norm() == pytest.approx(want, rel=1e-12)
    first = len(calls)
    assert first >= 1
    assert m.norm() == m.norm()
    assert len(calls) == first


class TestValidation:
    def test_shape_mismatch_raises(self):
        backend = matrix_backend()
        a, b = matrix_object(backend, 2), matrix_object(backend, 3)
        with pytest.raises(ShapeMismatchError):
            matrix_morphism(a, b, np.zeros((2, 2)))

    def test_family_needs_matching_fibers(self):
        backend = family_backend(uniform_interval_samples(4))
        obj = family_object(backend, 2)
        with pytest.raises(ShapeMismatchError):
            family_morphism(obj, obj, [np.zeros((2, 2))] * 3)

    def test_nonpositive_product_rejected(self):
        backend = matrix_backend()
        with pytest.raises(InputValidationError):
            matrix_object(backend, 2, product=np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(InputValidationError):
            matrix_backend(scale)
        with pytest.raises(InputValidationError):
            family_backend(uniform_interval_samples(4), scale)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_sample_rejected(self, column, value):
        samples = uniform_interval_samples(4)
        samples[2, column] = value
        with pytest.raises(InputValidationError):
            family_backend(samples)


@given(lam=st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_scalar_morphism_trace(lam):
    obj = matrix_object(matrix_backend(), 3)
    assert trace(scalar_morphism(obj, lam)) == pytest.approx(3 * lam)
