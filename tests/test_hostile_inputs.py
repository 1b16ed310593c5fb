"""Hostile inputs: non-finite entries, magnitudes near overflow, empty data.

They must raise a typed error (``InputValidationError``, or
``ShapeMismatchError`` for arrays that do not fit together) or give the
right answer.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from l2torsion.backends import (
    HObject,
    family_backend,
    family_morphism,
    family_object,
    frobenius,
    group_backend,
    identity_morphism,
    largest_norm,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
)
from l2torsion.cellular import (
    CellComplex,
    circle_complex,
    circle_regular_representation,
    circle_unit_representation,
    cochain_complex,
    combinatorial_torsion,
    cyclic_character_representation,
    finite_pi,
    infinite_cyclic_pi,
    lens_complex,
    re_lift,
    regular_representation,
    subdivision_invariance_check,
    torus_quotient_complex,
)
from l2torsion.cli import EXAMPLES, EXIT_INVALID, main
from l2torsion.errors import (
    BackendMismatchError,
    InputValidationError,
    NotAChainComplexError,
    ShapeMismatchError,
)
from l2torsion.extcoh import ChainComplexC, cohomology, direct_sum_complexes
from l2torsion.harness import family_multiplication_map, run_all_suites
from l2torsion.serialize import (
    cell_complex_from_json,
    cell_complex_to_json,
    morphism_from_json,
    morphism_to_json,
    representation_from_json,
    representation_to_json,
)
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


@pytest.mark.parametrize("kind, dims", [
    ("Matrix", (-1,)),
    ("Matrix", (2.7,)),
    ("Matrix", (math.nan,)),
    ("Matrix", (math.inf,)),
    ("Matrix", ("two",)),
    ("Matrix", (1e300,)),
    ("Matrix", (10**30,)),
    ("Family", (1, -2, 1, 1)),
    ("Family", np.array([1, 2, -1, 0])),
    ("Family", (1.0, 2.5, 1.0, 1.0)),
    ("Family", np.array([1.0, 1.0, math.nan, 1.0])),
    ("Family", (1, 1, -math.inf, 1)),
])
def test_bad_fiber_dimensions_rejected(kind, dims):
    """A negative dimension would be summed into dim_tau (the Matrix object
    of dimension -1 reported dim_tau -1), 2.7 must not be truncated to 2,
    and nan must not escape as a bare ValueError."""
    backend = (matrix_backend() if kind == "Matrix"
               else family_backend(uniform_interval_samples(4)))
    with pytest.raises(InputValidationError, match="fiber dimensions"):
        HObject(backend, dims)


def test_bad_family_dimension_rejected_by_family_object():
    backend = family_backend(uniform_interval_samples(4))
    for dims in (-1, 1.5, (1, 2, -3, 1)):
        with pytest.raises(InputValidationError, match="fiber dimensions"):
            family_object(backend, dims)


@pytest.mark.parametrize("dims", [(2.0,), np.array([3.0]), (np.float32(0.0),), (True,)])
def test_integral_float_dimensions_accepted(dims):
    obj = HObject(matrix_backend(), dims)
    assert obj.dims == (int(np.asarray(dims)[0]),)
    assert obj.dim_tau == float(np.asarray(dims)[0])


@pytest.mark.parametrize("dims", [["3"], ("0",), np.array(["1"]), [b"2"], ["2", 1], [2 + 0j]])
def test_numeric_string_dimensions_rejected(dims):
    """A string that parses as a number is still not an integer."""
    with pytest.raises(InputValidationError, match="fiber dimensions"):
        HObject(matrix_backend(), dims)


def test_numeric_string_cayley_table_rejected():
    with pytest.raises(InputValidationError, match="Cayley table"):
        finite_pi([["0", "1"], ["1", "0"]])


@pytest.mark.parametrize("edit", [
    lambda d: d["cells"][0].__setitem__(0, "0"),  # was read as dimension 0
    lambda d: d["cells"][1].__setitem__(0, "1"),
    lambda d: d["boundaries"]["e"][0][1][0].__setitem__(0, "1"),  # token t
    lambda d: d.__setitem__("chi", "0"),
])
def test_cli_rejects_numeric_strings_in_cell_complex_json(tmp_path, edit):
    payload = cell_complex_to_json(circle_complex())
    edit(payload)
    (tmp_path / "k.json").write_text(json.dumps(payload))
    (tmp_path / "rep.json").write_text(
        json.dumps(representation_to_json(circle_regular_representation(64))))
    args = ["--complex", tmp_path / "k.json", "--rep", tmp_path / "rep.json", "--out", tmp_path]
    assert main(["torsion", *map(str, args)]) == EXIT_INVALID


def _matrix_json(**changes):
    obj = matrix_object(matrix_backend(), 2)
    payload = morphism_to_json(matrix_morphism(obj, obj, np.diag([3.0, 2.0])))
    payload.update(changes)
    return payload


@pytest.mark.parametrize("payload", [
    _matrix_json(data=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),  # ragged rows
    _matrix_json(data=[[1.0, "x"], [0.0, 1.0]]),
    _matrix_json(backend={"kind": "Matrix", "scale": "x"}),
    _matrix_json(source_dims=[2.5]),
    _matrix_json(source_dims=None),
    _matrix_json(source_products=[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]),
    _matrix_json(target_products=[None, None]),
])
def test_malformed_morphism_json_rejected(payload):
    with pytest.raises(InputValidationError):
        morphism_from_json(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("payload", [
    {"pi": {"infinite_cyclic": True}, "images": {}},
    {"pi": {"infinite_cyclic": True}, "images": {"regular_s1": {"grid": 0}}},
    {"pi": {"infinite_cyclic": True}, "images": {"regular_s1": {"grid": -3}}},
    {"pi": {"infinite_cyclic": True}, "images": {"regular_s1": {"grid": 2.5}}},
    {"pi": {"finite": [[0, 1], [1, 0.5]]}, "images": {"regular": True}},
])
def test_malformed_representation_json_rejected(payload):
    with pytest.raises(InputValidationError):
        representation_from_json(payload)


def test_cli_rejects_ragged_morphism_without_traceback(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_matrix_json(data=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]])))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "l2torsion.cli", "fkdet", "--morphism", str(path)],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_INVALID
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 0.5]],  # was truncated to Z/2
    [[0, 1], [1]],
    [[0, 1], [1, 2]],
    [[0, 1], [1, -1]],
    np.zeros((0, 0), int),
    [[0, "a"], [1, 0]],
    [[0, 1], [1, math.nan]],
])
def test_bad_cayley_tables_rejected(table):
    with pytest.raises(InputValidationError, match="Cayley table"):
        group_backend(table)
    with pytest.raises(InputValidationError, match="Cayley table"):
        finite_pi(table)


@pytest.mark.parametrize("build", [
    lambda: circle_regular_representation(0),
    lambda: circle_regular_representation(-3),
    lambda: circle_regular_representation(2.5),
    lambda: lens_complex(0, 1),
    lambda: lens_complex(-3, 1),
    lambda: torus_quotient_complex(0),
])
def test_bad_cellular_sizes_rejected(build):
    with pytest.raises(InputValidationError, match="positive integer"):
        build()


def test_trivial_group_complexes():
    """p = 1 gives the trivial group: L(1, 1) is S^3 and the torus keeps
    its Betti numbers 1, 2, 1."""
    for k, betti in ((lens_complex(1, 1), [1, 0, 0, 1]), (torus_quotient_complex(1), [1, 2, 1])):
        report = combinatorial_torsion(k, regular_representation(k.pi))
        assert report.betti == pytest.approx(betti)


def test_empty_block_of_a_nonempty_fiber_rejected():
    backend = family_backend(uniform_interval_samples(2))
    obj = family_object(backend, (1, 2))
    with pytest.raises(ShapeMismatchError):
        family_morphism(obj, obj, [np.eye(1), np.zeros(0)])


def _lens_json(edit):
    payload = cell_complex_to_json(lens_complex(5, 1))
    edit(payload)
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("cells"),
    lambda d: d["cells"].append(["x", "e4"]),
    lambda d: d["boundaries"]["e1"][0][1][0].__setitem__(0, 9),  # token outside Z/5
    lambda d: d["boundaries"]["e1"][0][1][0].__setitem__(1, "x"),
    lambda d: d["boundaries"].__setitem__("e1", 3),
])
def test_malformed_cell_complex_json_rejected(edit):
    with pytest.raises(InputValidationError):
        cell_complex_from_json(_lens_json(edit))


@pytest.mark.parametrize("cells, boundaries, pi", [
    ({"v": -1}, {}, infinite_cyclic_pi()),  # was dropped from the cochain complex
    ({"v": 1.5}, {}, infinite_cyclic_pi()),
    ({"v": 0, "e": 1}, {"e": (("v", ((2.5, 1), (0, -1))),)}, infinite_cyclic_pi()),  # t^2.5
    ({"v": 0, "e": 1}, {"e": (("v", ((1.5, 1), (0, -1))),)}, lens_complex(5, 1).pi),
])
def test_bad_cell_dimensions_and_tokens_rejected(cells, boundaries, pi):
    with pytest.raises(InputValidationError):
        CellComplex(cells, boundaries, pi)


_BAD_COEFFICIENTS = ["1", "abc", math.nan, math.inf, -math.inf]  # "1" was read as 1.0


@pytest.mark.parametrize("coeff", _BAD_COEFFICIENTS)
def test_bad_boundary_coefficients_rejected(coeff):
    with pytest.raises(InputValidationError, match="boundary of 'e'"):
        CellComplex({"v": 0, "e": 1}, {"e": (("v", ((1, coeff), (0, -1))),)},
                    infinite_cyclic_pi())


@pytest.mark.parametrize("coeff", _BAD_COEFFICIENTS)
def test_bad_boundary_coefficients_rejected_from_json(coeff):
    payload = cell_complex_to_json(circle_complex())
    payload["boundaries"]["e"][0][1][0][1] = coeff
    with pytest.raises(InputValidationError, match="boundary of 'e'"):
        cell_complex_from_json(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("name", [n for n in EXAMPLES if not n.startswith("rep_")])
def test_bundled_complexes_read_back_unchanged(name):
    payload = json.loads(json.dumps(EXAMPLES[name]()))
    assert cell_complex_to_json(cell_complex_from_json(payload)) == payload


@pytest.mark.parametrize("edit", [
    lambda d: (d["cells"].append([-1, "x"]), d.pop("chi")),  # x was dropped
    lambda d: d["cells"][1].__setitem__(0, 1.5),  # was truncated to 1
    lambda d: d["boundaries"]["e"][0][1][0].__setitem__(0, 1.5),  # was truncated to t
    lambda d: d.__setitem__("chi", 0.5),  # was truncated to 0
    lambda d: d.__setitem__("chi", "abc"),  # was a bare ValueError
])
def test_cli_rejects_non_integral_cell_complex_json(tmp_path, edit):
    payload = cell_complex_to_json(circle_complex())
    edit(payload)
    (tmp_path / "k.json").write_text(json.dumps(payload))
    (tmp_path / "rep.json").write_text(
        json.dumps(representation_to_json(circle_regular_representation(64))))
    args = ["--complex", tmp_path / "k.json", "--rep", tmp_path / "rep.json", "--out", tmp_path]
    assert main(["torsion", *map(str, args)]) == EXIT_INVALID


@pytest.mark.parametrize("make, lifts", [
    (lambda: lens_complex(5, 1), {"e9": 1}),  # was ignored
    (lambda: lens_complex(5, 1), {"e1": -1}),  # wrapped through Python indexing
    (lambda: lens_complex(5, 1), {"e1": 7}),  # was an IndexError
    (lambda: lens_complex(5, 1), {"e1": 1.5}),  # was a TypeError
    (circle_complex, {"e": 1.5}),
    (circle_complex, {"x": 1}),
])
def test_bad_lifts_rejected(make, lifts):
    with pytest.raises(InputValidationError):
        re_lift(make(), lifts)


@pytest.mark.parametrize("depth", [0, -1, 1.5])
def test_subdivision_depth_must_be_positive(depth):
    with pytest.raises(InputValidationError, match="positive integer"):
        subdivision_invariance_check(circle_complex(), circle_unit_representation(-1.0), depth)


def test_group_order_needs_a_group_backend():
    with pytest.raises(BackendMismatchError):
        matrix_backend().group_order


def _diag_complex():
    """d = diag(1, 2) on a 2-dim Matrix object: acyclic, torsion 1/2."""
    obj = matrix_object(matrix_backend(), 2)
    return ChainComplexC((obj, obj), (matrix_morphism(obj, obj, np.diag([1.0, 2.0])),))


@pytest.mark.parametrize("kwargs", [
    {"sigma_log": math.nan},  # reported a NaN log-coefficient and Betti [0, 0]
    {"sigma_log": math.inf},  # reported +inf
    {"sigma_log": "1"},  # the three strings raised bare TypeErrors
    {"epsilon": "1"},
    {"tol": "1e-10"},
])
def test_torsion_arguments_must_be_real(kwargs):
    with pytest.raises(InputValidationError):
        torsion(_diag_complex(), **kwargs)


@pytest.mark.parametrize("sigma_log", [math.nan, math.inf, "1"])
def test_combinatorial_torsion_sigma_log_must_be_finite(sigma_log):
    """The circle has Euler characteristic 0, so chi * inf was NaN and
    chi * "1" the empty string."""
    with pytest.raises(InputValidationError, match="sigma_log"):
        combinatorial_torsion(circle_complex(), circle_unit_representation(-1.0),
                              sigma_log=sigma_log)


@pytest.mark.parametrize("sigma_log, log_coeff, scalar", [
    (0.0, -0.6931471805599453, 0.5),
    (-3.5, -4.193147180559945, 0.015098691711159249),
])
def test_finite_sigma_log_reports_as_before(sigma_log, log_coeff, scalar):
    report = torsion(_diag_complex(), sigma_log=sigma_log)
    assert report.combined.log_coeff == log_coeff and report.scalar_value == scalar
    assert report.log_rho_large == -0.6931471805599453 and report.betti == [0.0, 0.0]


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_run_all_suites_needs_a_nonnegative_integer_seed(seed):
    """seed=-1 raised numpy's bare ValueError."""
    with pytest.raises(InputValidationError, match="seed"):
        run_all_suites(seed=seed, fast=True)
