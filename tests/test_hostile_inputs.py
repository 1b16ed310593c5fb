"""Hostile inputs: non-finite entries, magnitudes near overflow, empty data.

They must raise a typed error (``InputValidationError``, or
``ShapeMismatchError`` for arrays that do not fit together) or give the
right answer.
"""

import json
import math

import numpy as np
import pytest

from l2torsion.backends import (
    family_backend,
    family_morphism,
    family_object,
    frobenius,
    identity_morphism,
    largest_norm,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
)
from l2torsion.cellular import cochain_complex, cyclic_character_representation, lens_complex
from l2torsion.cli import EXIT_INVALID, main
from l2torsion.errors import InputValidationError, NotAChainComplexError, ShapeMismatchError
from l2torsion.extcoh import ChainComplexC, cohomology, direct_sum_complexes
from l2torsion.harness import family_multiplication_map
from l2torsion.serialize import morphism_to_json
from l2torsion.spectral import SpectralDensity, classify_determinant, spectral_density
from l2torsion.torsion import cone_torsion_check, torsion, torsion_acyclic

NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NONFINITE)
def test_matrix_blocks_must_be_finite(value):
    obj = matrix_object(matrix_backend(), 2)
    with pytest.raises(InputValidationError, match="finite"):
        matrix_morphism(obj, obj, np.diag([value, 1.0]))


@pytest.mark.parametrize("value", NONFINITE)
def test_family_blocks_must_be_finite(value):
    backend = family_backend(uniform_interval_samples(4))
    obj = family_object(backend, (1, 2, 1, 2))
    blocks = [np.eye(d) for d in obj.dims]
    blocks[3] = np.array([[1.0, 0.0], [0.0, value]])
    with pytest.raises(InputValidationError, match="finite"):
        family_morphism(obj, obj, blocks)


@pytest.mark.parametrize("value", NONFINITE)
def test_products_must_be_finite(value):
    with pytest.raises(InputValidationError, match="finite"):
        matrix_object(matrix_backend(), 2, product=np.diag([value, 1.0]))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("kind", ["Matrix", "Family"])
def test_cli_rejects_nonfinite_morphism_json(tmp_path, caplog, kind, token):
    if kind == "Matrix":
        obj = matrix_object(matrix_backend(), 2)
        m = matrix_morphism(obj, obj, np.diag([3.0, 2.0]))
    else:
        obj = family_object(family_backend(uniform_interval_samples(3)), 1)
        m = family_morphism(obj, obj, [[[2.0]]] * 3)
    text = json.dumps(morphism_to_json(m))
    assert text.count("2.0") >= 1
    path = tmp_path / "m.json"
    path.write_text(text.replace("2.0", token, 1))
    assert main(["fkdet", "--morphism", str(path)]) == EXIT_INVALID
    assert "finite" in caplog.text


@pytest.mark.parametrize("x", [1e155, 1e300])
def test_huge_matrix_differential(x):
    obj = matrix_object(matrix_backend(), 1)
    report = torsion(ChainComplexC((obj, obj), (matrix_morphism(obj, obj, [[x]]),)))
    assert report.betti == [0.0, 0.0]
    assert [v.status for v in report.detclass] == ["Convergent", "Convergent"]
    assert report.combined.log_coeff == pytest.approx(-math.log(x), rel=1e-14)


@pytest.mark.parametrize("x", [1e155, 1e300])
def test_huge_family_fiber(x):
    samples = uniform_interval_samples(3)
    obj = family_object(family_backend(samples), 1)
    values = [2.0, x, 0.5]
    d = family_morphism(obj, obj, [[[v]] for v in values])
    report = torsion(ChainComplexC((obj, obj), (d,)))
    assert report.betti == pytest.approx([0.0, 0.0], abs=1e-15)
    expected = -sum(w * math.log(v) for w, v in zip(samples[:, 1], values))
    assert report.combined.log_coeff == pytest.approx(expected, rel=1e-14)


def test_huge_differential_with_user_epsilon():
    """A user epsilon below s^2 puts s = 1e155 in the large part, whose
    Laplacian cross-check squares it."""
    obj = matrix_object(matrix_backend(), 1)
    c = ChainComplexC((obj, obj), (matrix_morphism(obj, obj, [[1e155]]),))
    report = torsion(c, epsilon=1.0)
    assert report.combined.log_coeff == pytest.approx(-math.log(1e155), rel=1e-14)
    assert report.checks["large_part_formulas"] < 1e-8 * math.log(1e155)


@pytest.mark.parametrize("x", [1e155, 1e300])
def test_torsion_acyclic_of_huge_differential(x):
    obj = matrix_object(matrix_backend(), 1)
    c = ChainComplexC((obj, obj), (matrix_morphism(obj, obj, [[x]]),))
    assert torsion_acyclic(c) == pytest.approx(-math.log(x), rel=1e-14)


@pytest.mark.parametrize("values", [[1e-170], [1e-200, 2.0, 1e300, 0.5]])
def test_laplacian_formula_outside_the_square_range(values):
    """The Laplacian formula alone, without the nu cross-check (nu certifies
    no spectrum below SPECTRAL_FLOOR); on the Family only some fibers leave
    the range, and each keeps its own scale."""
    d = family_multiplication_map(values)
    weights = d.backend.fiber_weights
    expected = -sum(w * math.log(v) for w, v in zip(weights, values))
    got = torsion_acyclic(ChainComplexC((d.source, d.target), (d,)), cross_check=False)
    assert got == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("values", [
    np.exp(-1.0 / ((np.arange(256) + 0.5) / 256)),  # smallest value e^(-512)
    [1.0, 1e-170, 2.0, 3.0],
], ids=["exp(-1/x)@256", "1e-170"])
def test_injective_fibers_have_no_betti(values):
    """Every fiber of d is injective and onto, so both trace-Betti numbers
    vanish, however small s^2 is."""
    d = family_multiplication_map(values)
    c = ChainComplexC((d.source, d.target), (d,))
    assert torsion(c).betti == [0.0, 0.0]
    assert [deg.betti for deg in cohomology(c).degrees] == [0.0, 0.0]


def test_largest_norm_does_not_overflow():
    stack = np.full((1, 2, 2), 1e200)
    assert largest_norm(stack) == pytest.approx(2e200, rel=1e-15)
    assert largest_norm(stack) == frobenius(stack).max()
    assert largest_norm(np.zeros((2, 0, 3))) == 0.0
    tiny = np.full((1, 2, 2), 1e-200)
    assert largest_norm(tiny) == pytest.approx(2e-200, rel=1e-15)


def test_huge_complex_keeps_its_d2_check():
    """Two consecutive differentials near 1e155 still have to compose to
    zero; the check does not overflow into accepting anything."""
    obj1 = matrix_object(matrix_backend(), 1)
    obj2 = matrix_object(matrix_backend(), 2)
    d0 = matrix_morphism(obj1, obj2, [[1e155], [0.0]])
    ok = matrix_morphism(obj2, obj1, [[0.0, 1e155]])
    bad = matrix_morphism(obj2, obj1, [[1e155, 1e155]])
    ChainComplexC((obj1, obj2, obj1), (d0, ok))
    with pytest.raises(NotAChainComplexError):
        ChainComplexC((obj1, obj2, obj1), (d0, bad))


@pytest.mark.parametrize("p, q, k", [(7, 2, 1), (7, 1, 2), (8, 1, 3), (64, 1, 1)])
def test_derived_complexes_keep_their_reference_norm(p, q, k):
    """These lens complexes with a character have a differential that is zero
    up to rounding (norm about 1e-15), accepted against the reference norm of
    the cellular complex. Shifting, negating, summing and coning change no
    product of differentials, so none of them may reject the result."""
    c = cochain_complex(lens_complex(p, q), cyclic_character_representation(p, k))
    assert c.shift().length == c.negate_differentials().length + 1
    assert direct_sum_complexes(c, c).length == c.length
    report = cone_torsion_check(c, c, [identity_morphism(o) for o in c.objects])
    assert report.passed
    assert report.deviation <= 1e-10


def test_empty_family_rejected():
    with pytest.raises(InputValidationError):
        family_backend(np.zeros((0, 2)))


def test_empty_complex_rejected():
    with pytest.raises(InputValidationError):
        ChainComplexC((), ())


@pytest.mark.parametrize("values, masses", [
    ([0.5], [1.0, 2.0]),
    ([0.5, 2.0], [1.0]),
    ([[0.5, 2.0]], [[1.0, 1.0]]),
    ([0.5, 2.0], [[1.0, 1.0]]),
    (0.5, 1.0),
])
def test_malformed_density_rejected(values, masses):
    """A density pairs each value with one mass: a surplus mass must not be
    dropped (and the rest certified), a short or 2-D array must not reach
    the ladder."""
    with pytest.raises(ShapeMismatchError):
        SpectralDensity(np.array(values), np.array(masses), 0.0, 1.0)


@pytest.mark.parametrize("values, masses", [
    ([0.5, 2.0], [-1.0, 1.0]),
    ([-1.0, 2.0], [1.0, 1.0]),
    ([-math.inf, 2.0], [1.0, 1.0]),
    ([math.nan, 2.0], [1.0, 1.0]),
    ([0.5, math.inf], [1.0, 1.0]),
    ([0.5, 2.0], [math.nan, 1.0]),
    ([0.5, 2.0], [1.0, math.inf]),
    ([0.5, 2.0], [1.0, -math.inf]),
])
def test_hostile_density_rejected(values, masses):
    """A negative mass would flip the sign of its log term (and a mass of -1
    at 0.5 certifies Convergent with log integral +1.386); a negative value
    would give a NaN ladder. Neither may reach the certificate. (Exact-zero
    values and zero masses stay valid: ``test_spectral.LADDER_EDGE_DENSITIES``
    pins them.)"""
    with pytest.raises(InputValidationError):
        SpectralDensity(np.array(values), np.array(masses), 0.0, 2.0)


@pytest.mark.parametrize("zero_mass, total_mass", [
    (-0.5, 2.0), (math.nan, 2.0), (math.inf, 2.0),
    (0.5, -2.5), (0.5, math.nan), (0.5, math.inf),
])
def test_hostile_density_kernel_mass_rejected(zero_mass, total_mass):
    """classify_determinant reads zero_mass as the kernel mass: values
    [0.5, 2.0] of masses [1, 1] certify Divergent with zero_mass 0.5, and a
    zero_mass of -0.5 would certify them Convergent."""
    values, masses = np.array([0.5, 2.0]), np.ones(2)
    assert classify_determinant(SpectralDensity(values, masses, 0.5, 2.5)).status == "Divergent"
    with pytest.raises(InputValidationError):
        SpectralDensity(values, masses, zero_mass, total_mass)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 2.0, -1.0, 0.0])
def test_invalid_rank_tolerance_rejected(tol):
    """The isomorphism diag(1, 0.5) has trace-Betti numbers [0, 0] and
    torsion 2; a rank tolerance outside (0, 1) must raise, not drop every
    singular value and report Betti [2, 2]."""
    obj = matrix_object(matrix_backend(), 2)
    d = matrix_morphism(obj, obj, np.diag([1.0, 0.5]))
    c = ChainComplexC((obj, obj), (d,))
    report = torsion(c)
    assert report.betti == [0.0, 0.0]
    assert report.scalar_value == pytest.approx(2.0, rel=1e-12)
    for run in (lambda: torsion(c, tol=tol), lambda: cohomology(c, tol=tol),
                lambda: spectral_density(d, tol=tol)):
        with pytest.raises(InputValidationError, match="rank tolerance"):
            run()
