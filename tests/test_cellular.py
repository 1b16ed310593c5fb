"""Cell complexes, representations, and combinatorial torsion oracles."""

import math

import numpy as np
import pytest

from l2torsion import cellular
from l2torsion.backends import (
    Fibers,
    Morphism,
    align,
    circle_samples,
    cyclic_group_table,
    dihedral_group_table,
    group_ring_morphism,
)
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
    ShapeMismatchError,
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


# ---------------------------------------------------------------------------
# the image of a group-ring sum, against the per-element reference


def per_element_sum(image, s):
    """Reference: the image Morphism of every token, scaled by its
    coefficient and added group by group, left to right."""
    total = None
    for tok, coeff in s:
        term = image(tok).blocks.map(lambda b: coeff * b)
        total = term if total is None else Fibers(
            [(idx, a + b) for idx, (a, b) in align(total, term)], total.n)
    return total


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _dihedral_images(n):
    """2 x 2 matrices of the dihedral group of order 2n, element s*n + r
    going to R^r F^s."""
    rot, flip = _rotation(2 * math.pi / n), np.diag([1.0, -1.0])
    return [np.linalg.matrix_power(rot, k % n) @ np.linalg.matrix_power(flip, k // n)
            for k in range(2 * n)]


def _matrix_case(pi, images):
    """A matrix representation and the per-token images it used to build."""
    rep = matrix_representation(pi, images)
    obj = rep.module
    if pi.finite:
        mats = [np.asarray(m, complex) for m in images]
        return rep, lambda tok: Morphism(obj, obj, (mats[tok],))
    t = np.asarray(images[1], complex)
    t_inv = np.linalg.inv(t)
    return rep, lambda tok: Morphism(
        obj, obj, (np.linalg.matrix_power(t if tok >= 0 else t_inv, abs(tok)),))


def _regular_case(pi):
    rep = regular_representation(pi)

    def image(tok):
        coeffs = np.zeros((1, 1, pi.order), complex)
        coeffs[0, 0, tok] = 1.0
        return group_ring_morphism(rep.module, rep.module, coeffs)

    return rep, image


def _circle_case(grid):
    rep = circle_regular_representation(grid)
    phases = np.exp(1j * circle_samples(grid)[:, 0])
    return rep, lambda tok: Morphism(
        rep.module, rep.module, Fibers.stack((phases ** tok).reshape(-1, 1, 1)))


SUM_CASES = {
    "D8 matrices": lambda: _matrix_case(finite_pi(dihedral_group_table(4)),
                                        _dihedral_images(4)),
    "Z/5 character": lambda: _matrix_case(finite_pi(cyclic_group_table(5)), [
        np.array([[np.exp(2j * np.pi / 5) ** j]]) for j in range(5)]),
    "Z rotation": lambda: _matrix_case(infinite_cyclic_pi(), {1: _rotation(0.7)}),
    "Z/6 regular": lambda: _regular_case(finite_pi(cyclic_group_table(6))),
    "D8 regular": lambda: _regular_case(finite_pi(dihedral_group_table(4))),
    "(Z/3)^2 regular": lambda: _regular_case(torus_quotient_complex(3).pi),
    "circle 64": lambda: _circle_case(64),
}


def _random_sums(pi, rng, count=40):
    """Integer group-ring sums of 1 to 6 distinct tokens (powers -6..6 of t
    for Z), plus the single terms 1, -1 and -2 at every token."""
    tokens = np.arange(pi.order) if pi.finite else np.arange(-6, 7)
    sums = [((int(t), c),) for t in tokens for c in (1, -1, -2)]
    for _ in range(count):
        toks = rng.choice(tokens, size=rng.integers(1, min(6, len(tokens)) + 1), replace=False)
        coeffs = rng.choice([-3, -2, -1, 1, 2, 3], size=len(toks))
        sums.append(tuple((int(t), int(c)) for t, c in zip(toks, coeffs)))
    return sums


def _signbits(a):
    return np.signbit(a.real), np.signbit(a.imag)


class TestGroupRingSums:
    @pytest.mark.parametrize("case", SUM_CASES)
    def test_sum_blocks_equal_the_per_element_sum(self, case):
        """Bit for bit, signs of zeros included: the zeros of a sum of
        negative terms are -0.0, and their sign moves LAPACK's results."""
        rep, image = SUM_CASES[case]()
        for s in _random_sums(rep.pi, np.random.default_rng(len(case))):
            got, want = rep.sum_blocks(s), per_element_sum(image, s)
            assert len(got.groups) == len(want.groups)
            for (i, a), (j, b) in zip(got.groups, want.groups):
                assert np.array_equal(i, j) and np.array_equal(a, b)
                for x, y in zip(_signbits(a), _signbits(b)):
                    assert np.array_equal(x, y)

    def test_a_boundary_entry_is_one_expansion(self, monkeypatch):
        """lens(p, 1) has three boundary entries; the norm element
        1 + t + ... + t^(p-1) is expanded once, not once per element."""
        k = lens_complex(12, 1)
        rep = regular_representation(k.pi)
        real, expansions = cellular.expand_group_matrix, []
        monkeypatch.setattr(cellular, "expand_group_matrix",
                            lambda *a: expansions.append(1) or real(*a))
        monkeypatch.setattr(cellular.Representation, "image",
                            lambda self, tok: pytest.fail("a per-element image"))
        cochain_complex(k, rep)
        assert len(expansions) == 3

    def test_images_of_the_wrong_shape_are_rejected(self):
        pi = finite_pi(cyclic_group_table(2))
        with pytest.raises(ShapeMismatchError):
            matrix_representation(pi, [np.eye(2), np.eye(1)])
