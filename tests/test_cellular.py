"""Cell complexes, representations, and combinatorial torsion oracles."""

import math

import numpy as np
import pytest

from l2torsion import cellular
from l2torsion.backends import cyclic_group_table
from l2torsion.cellular import (
    circle_complex,
    circle_complex_two_cells,
    circle_regular_representation,
    circle_unit_representation,
    cochain_complex,
    combinatorial_torsion,
    cyclic_character_representation,
    elementary_subdivision,
    finite_pi,
    infinite_cyclic_pi,
    lens_complex,
    matrix_representation,
    re_lift,
    regular_representation,
    subdivision_invariance_check,
    torus_quotient_complex,
)
from l2torsion.errors import (
    InputValidationError,
    NotAChainComplexError,
    NotUnimodularError,
    UnsupportedCellError,
)
from l2torsion.extcoh import determinant_class_test
from l2torsion.spectral import ns_exponent, singular_density


def lens_torsion_closed_form(p: int, q: int, k: int = 1) -> float:
    """|zeta^k - 1|^-1 |zeta^{k q*} - 1|^-1 for zeta = e^{2 pi i / p}."""
    zeta = np.exp(2j * np.pi / p)
    qstar = pow(q, -1, p)
    return 1.0 / (abs(zeta**k - 1.0) * abs(zeta ** (k * qstar) - 1.0))


class TestCellComplexValidation:
    def test_unknown_face_rejected(self):
        pi = infinite_cyclic_pi()
        with pytest.raises(InputValidationError):
            circle = circle_complex()
            bad = dict(circle.boundaries)
            bad["e"] = (("w", ((0, 1),)),)
            type(circle)(dict(circle.cells), bad, pi)

    def test_wrong_face_dimension_rejected(self):
        pi = infinite_cyclic_pi()
        circle = circle_complex()
        with pytest.raises(InputValidationError):
            type(circle)(
                {"v": 0, "e": 2}, {"e": (("v", ((0, 1),)),)}, pi
            )

    def test_dd_nonzero_rejected(self):
        # torus face boundary with a sign flipped no longer closes up
        pi = finite_pi(cyclic_group_table(3))
        cells = {"v": 0, "a": 1, "F": 2}
        boundaries = {
            "a": (("v", ((1, 1), (0, -1))),),
            "F": (("a", ((0, 1), (1, 1))),),
        }
        with pytest.raises(NotAChainComplexError):
            torus_quotient_complex(3).__class__(cells, boundaries, pi)

    def test_euler_characteristic(self):
        assert circle_complex().euler_characteristic == 0
        assert lens_complex(5, 1).euler_characteristic == 0
        assert torus_quotient_complex(3).euler_characteristic == 0


class TestSubdivision:
    def test_cell_counts(self):
        k = elementary_subdivision(circle_complex(), "e")
        assert len(k.cells_of_dim(0)) == 2
        assert len(k.cells_of_dim(1)) == 2

    def test_only_edges(self):
        with pytest.raises(UnsupportedCellError):
            elementary_subdivision(lens_complex(5, 1), "e2")

    def test_unknown_cell(self):
        with pytest.raises(InputValidationError):
            elementary_subdivision(circle_complex(), "nope")

    def test_matches_two_cell_model(self):
        rep = circle_unit_representation(-1.0 + 0.0j)
        a = combinatorial_torsion(elementary_subdivision(circle_complex(), "e"), rep)
        b = combinatorial_torsion(circle_complex_two_cells(), rep)
        assert a.scalar_value == pytest.approx(b.scalar_value, abs=1e-12)

    def test_invariance_circle_scalar(self):
        rep = circle_unit_representation(np.exp(0.7j))
        report = subdivision_invariance_check(circle_complex(), rep, depth=3)
        assert report.passed, report.max_deviation

    def test_invariance_lens(self):
        rep = cyclic_character_representation(5, 1)
        report = subdivision_invariance_check(lens_complex(5, 1), rep, depth=3)
        assert report.passed, report.max_deviation


class TestRepresentations:
    def test_relation_check_catches_broken_images(self):
        pi = finite_pi(cyclic_group_table(3))
        zeta = np.exp(2j * np.pi / 3)
        images = [np.array([[zeta**j]]) for j in range(3)]
        images[2] = np.array([[1.7]])
        rep = matrix_representation(pi, images)
        with pytest.raises(InputValidationError):
            rep.check_relations()

    def test_relation_check_multiplies_by_generators_only(self, monkeypatch):
        """|G| products per generator, not |G|^2: Z/16 has the generating
        set [1]."""
        pi = finite_pi(cyclic_group_table(16))
        assert cellular.generating_set(pi) == [1]
        rep = regular_representation(pi)
        real, calls = cellular.compose, []
        monkeypatch.setattr(cellular, "compose", lambda *a: calls.append(1) or real(*a))
        rep.check_relations()
        assert 0 < len(calls) <= 16 * (len(cellular.generating_set(pi)) + 1)

    @pytest.mark.parametrize("broken", [0, 4, 5])
    def test_relation_check_catches_a_broken_image_off_the_generators(self, broken):
        pi = finite_pi(cyclic_group_table(6))
        assert broken not in cellular.generating_set(pi)
        images = [np.array([[np.exp(2j * np.pi * j / 6)]]) for j in range(6)]
        images[broken] = images[broken] * np.exp(1e-6j)
        with pytest.raises(InputValidationError):
            matrix_representation(pi, images).check_relations()
        images[broken] = np.array([[np.exp(2j * np.pi * broken / 6)]])
        matrix_representation(pi, images).check_relations()

    def test_generating_sets_are_greedy_and_generate(self):
        for table, want in [(cyclic_group_table(1), []), (cyclic_group_table(7), [1]),
                            ([[a ^ b for b in range(8)] for a in range(8)], [1, 2, 4])]:
            pi = finite_pi(table)
            gens = cellular.generating_set(pi)
            assert gens == want
            reached = {0}
            while True:
                more = reached | {pi.mul(s, h) for s in gens for h in reached}
                if more == reached:
                    break
                reached = more
            assert reached == set(range(pi.order))

    def test_unimodularity_gate(self):
        rep = matrix_representation(infinite_cyclic_pi(), {1: np.array([[2.0]])})
        with pytest.raises(NotUnimodularError):
            combinatorial_torsion(circle_complex(), rep)

    def test_circle_unit_rejects_off_circle(self):
        with pytest.raises(NotUnimodularError):
            circle_unit_representation(0.5 + 0.0j)

    def test_regular_representation_unimodular(self):
        assert regular_representation(finite_pi(cyclic_group_table(4))).unimodular


class TestCircleOracles:
    def test_scalar_minus_one(self):
        # |det(t - 1)| = 2 for t = -1, so the torsion is 1/2
        rep = circle_unit_representation(-1.0 + 0.0j)
        report = combinatorial_torsion(circle_complex(), rep)
        assert report.scalar_value == pytest.approx(0.5, abs=1e-10)

    def test_regular_representation_mahler(self):
        # log-integral of |e^{i theta} - 1| over the circle is zero
        rep = circle_regular_representation(4096)
        report = combinatorial_torsion(circle_complex(), rep)
        assert report.scalar_value == pytest.approx(1.0, abs=1e-3)
        assert report.determinant_class

    def test_regular_representation_ns_exponent(self):
        rep = circle_regular_representation(4096)
        c = cochain_complex(circle_complex(), rep)
        alpha = ns_exponent(singular_density(c.diffs[0]))
        assert alpha == pytest.approx(1.0, abs=0.1)


class TestLensOracles:
    def test_l51_closed_form(self):
        report = combinatorial_torsion(lens_complex(5, 1), cyclic_character_representation(5, 1))
        assert report.scalar_value == pytest.approx(
            lens_torsion_closed_form(5, 1), abs=1e-8
        )

    @pytest.mark.parametrize("p,q,k", [(5, 1, 2), (7, 2, 1), (7, 2, 3)])
    def test_closed_form_family(self, p, q, k):
        report = combinatorial_torsion(lens_complex(p, q), cyclic_character_representation(p, k))
        assert report.scalar_value == pytest.approx(
            lens_torsion_closed_form(p, q, k), rel=1e-10
        )

    def test_relift_invariance(self):
        k = lens_complex(5, 1)
        rep = cyclic_character_representation(5, 1)
        base = combinatorial_torsion(k, rep).scalar_value
        moved = re_lift(k, {"e1": 2, "e2": 4, "e3": 1})
        assert combinatorial_torsion(moved, rep).scalar_value == pytest.approx(
            base, abs=1e-12
        )


class TestSigmaAndBetti:
    def test_sigma_independent_when_chi_zero(self):
        rep = circle_unit_representation(-1.0 + 0.0j)
        a = combinatorial_torsion(circle_complex(), rep, sigma_log=0.0)
        b = combinatorial_torsion(circle_complex(), rep, sigma_log=0.9)
        assert a.scalar_value == pytest.approx(b.scalar_value, abs=1e-12)

    @pytest.mark.parametrize("sigma_log", [-0.4, 0.9])
    def test_sigma_log_scales_a_point_by_chi(self, sigma_log):
        """One vertex: chi = 1, so the volume element exp(sigma_log) comes
        out as the coefficient of the one harmonic frame."""
        point = cellular.CellComplex({"v": 0}, {}, infinite_cyclic_pi())
        rep = circle_unit_representation(-1.0 + 0.0j)
        assert point.euler_characteristic == 1
        base = combinatorial_torsion(point, rep)
        report = combinatorial_torsion(point, rep, sigma_log=sigma_log)
        assert base.combined.log_coeff == 0.0
        assert report.combined.log_coeff == sigma_log
        assert [(f.label, e) for f, e in report.combined.word] == [("H0", 1)]

    def test_torus_quotient_has_cohomology(self):
        rep = regular_representation(finite_pi(torus_quotient_complex(3).pi.table))
        report = combinatorial_torsion(torus_quotient_complex(3), rep)
        assert report.scalar_value is None
        assert report.betti[0] == pytest.approx(1.0 / 9.0, abs=1e-8)
        assert report.betti[1] == pytest.approx(2.0 / 9.0, abs=1e-8)
        assert report.betti[2] == pytest.approx(1.0 / 9.0, abs=1e-8)


class TestDivergentCellularStyle:
    def test_regular_circle_determinant_class(self):
        rep = circle_regular_representation(1024)
        c = cochain_complex(circle_complex(), rep)
        verdicts = determinant_class_test(c)
        assert all(v.convergent for v in verdicts)
