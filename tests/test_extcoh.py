"""Extended objects, chain complexes, and extended cohomology."""

import math

import numpy as np
import pytest

from l2torsion.backends import (
    identity_morphism,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
    zero_morphism,
)
from l2torsion.errors import (
    InconclusiveVerdictError,
    NoCanonicalElementError,
    NotAChainComplexError,
)
from l2torsion.extcoh import (
    ChainComplexC,
    canonical_trivialization,
    cohomology,
    det_line_of_extended,
    determinant_class_test,
    direct_sum_complexes,
    extended_object,
    extended_pushforward,
    kernel_cokernel_lines,
    zero_object,
)
from l2torsion.harness import (
    family_multiplication_map,
    random_acyclic_complex,
    random_complex_with_cohomology,
    random_invertible_morphism,
)
from l2torsion.spectral import log_fk_det


class TestExtendedObjects:
    def test_invertible_is_tau_trivial(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        x = extended_object(f)
        assert x.tau_trivial
        assert x.projective_dim == pytest.approx(0.0)
        assert canonical_trivialization(x).log_coeff == pytest.approx(
            log_fk_det(f), abs=1e-10
        )

    def test_zero_map_is_projective(self):
        backend = matrix_backend()
        a, b = matrix_object(backend, 2), matrix_object(backend, 3)
        x = extended_object(zero_morphism(a, b))
        assert x.is_projective
        assert x.projective_dim == pytest.approx(3.0)

    def test_kernel_is_quotiented_away(self):
        backend = matrix_backend()
        obj = matrix_object(backend, 3)
        f = matrix_morphism(obj, obj, np.diag([2.0, 1.0, 0.0]))
        x = extended_object(f)
        assert x.source.dims == (2,)
        assert x.projective_dim == pytest.approx(1.0)

    def test_divergent_map_refuses_trivialization(self):
        xs = uniform_interval_samples(2000)[:, 0]
        with np.errstate(under="ignore"):
            f = family_multiplication_map(np.exp(-1.0 / xs))
        x = extended_object(f)
        assert x.verdict.status == "Divergent"
        with pytest.raises(NoCanonicalElementError):
            canonical_trivialization(x)

    def test_det_line_word_shape(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 2)
        line = det_line_of_extended(extended_object(f))
        assert sorted(e for _, e in line.word) == [-1, 1]


class TestChainComplex:
    def test_rejects_non_complex(self, rng):
        backend = matrix_backend()
        obj = matrix_object(backend, 2)
        d = random_invertible_morphism(rng, backend, 2)
        with pytest.raises(NotAChainComplexError):
            ChainComplexC((d.source, d.target, d.source), (d, d))

    def test_shift_moves_degrees(self, rng):
        c = random_acyclic_complex(rng, 3, 3)
        s = c.shift()
        assert s.length == c.length + 1
        assert s.objects[0].dim_tau == 0
        assert s.objects[1].same_space(c.objects[0])

    def test_padded_appends_zero_objects(self, rng):
        c = random_acyclic_complex(rng, 3, 3)
        c.check_norm = 5.0
        p = c.padded(5)
        assert p.length == 5 and p.check_norm == 5.0
        assert all(a.same_space(b) for a, b in zip(p.objects, c.objects))
        assert [o.dim_tau for o in p.objects[3:]] == [0, 0]
        assert p.diffs[:2] == c.diffs
        assert all(d.norm() == 0.0 for d in p.diffs[2:])
        assert c.padded(3) is c and c.padded(1) is c

    def test_laplacian_of_one_object_is_zero(self):
        obj = matrix_object(matrix_backend(), 2)
        lap = ChainComplexC((obj,), ()).laplacian(0)
        assert lap.source.same_space(obj) and lap.target.same_space(obj)
        assert np.array_equal(lap.standardized_blocks()[0], np.zeros((2, 2)))

    def test_euler_characteristic(self, rng):
        c = random_acyclic_complex(rng, 4, 3)
        chi = sum((-1) ** i * o.dim_tau for i, o in enumerate(c.objects))
        assert c.euler_characteristic == pytest.approx(chi)

    def test_direct_sum(self, rng):
        a = random_acyclic_complex(rng, 3, 2)
        b = random_acyclic_complex(rng, 3, 2)
        s = direct_sum_complexes(a, b)
        for i in range(3):
            assert s.objects[i].dim_tau == pytest.approx(
                a.objects[i].dim_tau + b.objects[i].dim_tau
            )

    def test_laplacian_self_adjoint(self, rng):
        c = random_complex_with_cohomology(rng)
        for i in range(c.length):
            lap = c.laplacian(i)
            for fi, b in enumerate(lap.standardized_blocks()):
                assert np.allclose(b, b.conj().T, atol=1e-10)


class TestCohomology:
    def test_acyclic_has_zero_betti(self, rng):
        c = random_acyclic_complex(rng, 4, 3)
        prof = cohomology(c)
        for deg in prof.degrees:
            assert deg.betti == pytest.approx(0.0, abs=1e-8)

    def test_betti_matches_harmonic_kernel(self, rng):
        from l2torsion.spectral import spectral_density

        c = random_complex_with_cohomology(rng)
        prof = cohomology(c)
        for i, deg in enumerate(prof.degrees):
            z = spectral_density(c.laplacian(i)).zero_mass
            assert deg.betti == pytest.approx(z, abs=1e-8)

    def test_determinant_class_of_random_complex(self, rng):
        c = random_acyclic_complex(rng, 4, 3)
        verdicts = determinant_class_test(c)
        assert all(v.status == "Convergent" for v in verdicts)

    def test_determinant_class_flags_decay(self):
        xs = uniform_interval_samples(2000)[:, 0]
        with np.errstate(under="ignore"):
            f = family_multiplication_map(np.exp(-1.0 / xs))
        c = ChainComplexC((f.source, f.target), (f,))
        verdicts = determinant_class_test(c)
        assert verdicts[1].status == "Divergent"


class TestExtendedMaps:
    def test_pushforward_along_invertible(self, backend, rng):
        """An isomorphism of torsion objects moves the line by its dets."""
        from l2torsion.backends import compose

        a = random_invertible_morphism(rng, backend, 3)
        g = random_invertible_morphism(rng, backend, 3)
        x = extended_object(a)
        # the square (g . a, a) commutes: f = g on targets, f' = id on sources
        y = extended_object(compose(g, a))
        moved = extended_pushforward(
            x, y, g, identity_morphism(a.source), det_line_of_extended(x)
        )
        # canonical trivializations correspond under the iso, so the line
        # map carries exactly the determinant of g
        assert moved.log_coeff == pytest.approx(log_fk_det(g), abs=1e-8)

    def test_iso_has_trivial_kernel_and_cokernel(self, backend, rng):
        f = random_invertible_morphism(rng, backend, 3)
        x = extended_object(f)
        y = extended_object(identity_morphism(f.target))
        lines = kernel_cokernel_lines(x, y, identity_morphism(f.target), f)
        assert lines.kernel.tau_trivial
        assert lines.cokernel.tau_trivial
