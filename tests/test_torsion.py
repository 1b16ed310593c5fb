"""The torsion pipeline: nu, epsilon splitting, exact sequences, cones."""

import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from l2torsion import backends
from l2torsion.backends import matrix_backend, matrix_morphism, matrix_object, zero_morphism
from l2torsion.cellular import circle_complex, circle_regular_representation, cochain_complex
from l2torsion.errors import (
    InputValidationError,
    NotAChainMapError,
    NotAcyclicError,
    NotExactError,
)
from l2torsion.extcoh import ChainComplexC, cohomology
from l2torsion.harness import (
    random_acyclic_complex,
    random_chain_map,
    random_complex_with_cohomology,
    random_exact_triple,
    suite_exact_sequences,
)
from l2torsion.torsion import (
    TorsionReport,
    cone_torsion_check,
    default_epsilon,
    les_connecting_iso,
    mapping_cone,
    nu_map,
    sequence_torsion_check,
    split_complex,
    torsion,
    torsion_acyclic,
)


def _two_term(value: float) -> ChainComplexC:
    obj = matrix_object(matrix_backend(), 1)
    return ChainComplexC((obj, obj), (matrix_morphism(obj, obj, [[value]]),))


class TestAcyclicTorsion:
    def test_two_term_closed_form(self):
        assert math.exp(torsion_acyclic(_two_term(2.0))) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_formula_cross_check(self, rng):
        # torsion_acyclic cross-checks the Laplacian formula against the
        # folded restricted-differential product internally
        for _ in range(10):
            torsion_acyclic(random_acyclic_complex(rng, 4, 3), cross_check=True)

    def test_rejects_cohomology(self, rng):
        # the generator always plants at least one harmonic direction
        c = random_complex_with_cohomology(rng)
        with pytest.raises(NotAcyclicError):
            torsion_acyclic(c)

    def test_scale_moves_torsion(self):
        # doubling d multiplies rho by 1/2 in the two-term complex
        a = torsion_acyclic(_two_term(1.5))
        b = torsion_acyclic(_two_term(3.0))
        assert b - a == pytest.approx(-math.log(2.0), abs=1e-12)


class TestNu:
    def test_acyclic_folds_to_scalar(self, rng):
        c = random_acyclic_complex(rng, 4, 3)
        el = nu_map(c)
        assert el.is_scalar

    def test_harmonic_frames_survive(self, rng):
        c = random_complex_with_cohomology(rng)
        el = nu_map(c)
        for frame, _ in el.word:
            assert frame.obj.dim_tau > 0


class TestSplit:
    def test_split_dims_add_up(self, rng):
        c = random_complex_with_cohomology(rng)
        eps = default_epsilon(c)
        if eps is None:
            return
        small, large, _, _ = split_complex(c, eps)
        for i in range(c.length):
            assert small.objects[i].dim_tau + large.objects[i].dim_tau == (
                pytest.approx(c.objects[i].dim_tau)
            )

    def test_large_part_is_acyclic(self, rng):
        for _ in range(5):
            c = random_complex_with_cohomology(rng)
            eps = default_epsilon(c)
            if eps is None:
                continue
            _, large, _, _ = split_complex(c, eps)
            torsion_acyclic(large)  # raises if not


class TestTorsionReport:
    def test_epsilon_independence(self, rng):
        for _ in range(10):
            c = random_complex_with_cohomology(rng)
            r1 = torsion(c)
            if r1.epsilon is None:
                continue
            for factor in (1.0 / 3.0, 3.0):
                r2 = torsion(c, epsilon=r1.epsilon * factor)
                assert r2.combined.log_coeff == pytest.approx(
                    r1.combined.log_coeff, abs=1e-8
                )

    def test_acyclic_report_is_scalar(self, rng):
        c = random_acyclic_complex(rng, 4, 3)
        r = torsion(c)
        assert r.scalar_value is not None
        assert math.log(r.scalar_value) == pytest.approx(
            torsion_acyclic(c), abs=1e-10
        )

    def test_betti_blocks_scalar(self, rng):
        c = random_complex_with_cohomology(rng)
        r = torsion(c)
        if any(b > 1e-8 for b in r.betti):
            assert r.scalar_value is None

    def test_determinant_class_property(self, rng):
        c = random_acyclic_complex(rng, 3, 3)
        r = torsion(c)
        assert r.determinant_class

    def test_one_hodge_split_per_call(self, rng, monkeypatch):
        module = sys.modules["l2torsion.torsion"]
        calls = []
        real = module.hodge_split

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "hodge_split", counted)
        torsion(random_complex_with_cohomology(rng))
        assert len(calls) == 1

    @pytest.mark.parametrize("value, sign", [(1e-6, 1.0), (1e6, -1.0)])
    def test_scalar_outside_float_range_withheld(self, value, sign):
        """d = value * I on a 60-dim Matrix object: log rho = +-60 ln 10^6,
        whose exp overflows, or underflows to 0.0."""
        obj = matrix_object(matrix_backend(), 60)
        c = ChainComplexC((obj, obj), (matrix_morphism(obj, obj, value * np.eye(60)),))
        r = torsion(c)
        assert r.scalar_value is None
        assert r.combined.is_scalar and r.determinant_class
        assert r.combined.log_coeff == pytest.approx(sign * 60 * math.log(1e6))

    def test_nan_epsilon_rejected(self):
        c = random_acyclic_complex(np.random.default_rng(0), 3, 3)
        with pytest.raises(InputValidationError):
            torsion(c, epsilon=float("nan"))
        # infinity puts everything in the small part and stays correct
        r = torsion(c, epsilon=math.inf)
        assert r.log_rho_large == 0.0
        assert r.combined.log_coeff == pytest.approx(torsion_acyclic(c), abs=1e-10)

    def test_large_part_cross_check_recorded(self, rng):
        c = random_acyclic_complex(rng, 4, 3)
        r = torsion(c)
        assert 0.0 <= r.checks["large_part_formulas"] < 1e-8 * max(
            1.0, abs(r.log_rho_large)
        )

    def test_user_epsilon_under_the_laplacian_cut(self):
        """d = diag(1, 3e-6): the split keeps s = 3e-6 (s > tol * 1), but
        its Laplacian eigenvalue 9e-12 lies under the cut tol * 1 of the
        Laplacian, which counts it as kernel. With epsilon = 9e-13 < s^2
        the value must still go to the small part, as it does at 1e-11."""
        obj = matrix_object(matrix_backend(), 2)
        c = ChainComplexC((obj, obj), (matrix_morphism(obj, obj, np.diag([1.0, 3e-6])),))
        below, above = torsion(c, epsilon=9e-13), torsion(c, epsilon=1e-11)
        for name in (f.name for f in fields(TorsionReport) if f.name != "epsilon"):
            assert getattr(below, name) == getattr(above, name), name
        _, large, _, _ = split_complex(c, 9e-13)
        assert torsion_acyclic(large) == 0.0

    @pytest.mark.parametrize("epsilon", [None, 1.0, 0.5, 1e-11, 9e-13])
    def test_betti_does_not_depend_on_epsilon(self, epsilon):
        """d = diag(1, 3e-6): s^2 = 9e-12 lies under the Laplacian's cut
        tol * 1, so the complex has trace-Betti numbers [1, 1], whichever
        part of the epsilon split s falls in, and no scalar."""
        obj = matrix_object(matrix_backend(), 2)
        c = ChainComplexC((obj, obj), (matrix_morphism(obj, obj, np.diag([1.0, 3e-6])),))
        report = torsion(c, epsilon=epsilon)
        assert report.betti == [1.0, 1.0]
        assert report.betti == [d.betti for d in cohomology(c).degrees]
        assert report.scalar_value is None

    def test_laplacian_cut_once_per_split(self, rng, monkeypatch):
        """The Laplacian's rank cut is decided once, in hodge_split: one
        decision per torsion() call, at the default and at a user epsilon,
        and one per cohomology() call."""
        module = sys.modules["l2torsion.torsion"]
        assert not hasattr(module, "_laplacian_spectra")
        calls = []
        real = module._laplacian_cut

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(module, "_laplacian_cut", counted)
        c = random_complex_with_cohomology(rng, 3)
        for run in (lambda: torsion(c), lambda: torsion(c, epsilon=1.0),
                    lambda: cohomology(c)):
            calls.clear()
            run()
            assert len(calls) == 1


class TestExactSequences:
    def test_multiplicativity(self, rng):
        for t in range(6):
            which = ("L", "N", "both")[t % 3]
            L, M, N, alphas, betas = random_exact_triple(
                rng, length=int(rng.integers(2, 4)), acyclic=which
            )
            rho_l = torsion(L, out_prefix="HL").combined
            rho_n = torsion(N, out_prefix="HN").combined
            rho_m = torsion(M).combined
            delta = les_connecting_iso(L, M, N, alphas, betas)
            lhs = delta.apply(rho_l.tensor(rho_n))
            assert lhs.log_coeff == pytest.approx(rho_m.log_coeff, abs=1e-6)

    def test_rejects_non_chain_map(self, rng):
        L, M, N, alphas, betas = random_exact_triple(rng, length=3, acyclic="both")
        broken = list(alphas)
        broken[0] = matrix_morphism(
            broken[0].source,
            broken[0].target,
            broken[0].blocks[0] + rng.normal(size=broken[0].blocks[0].shape),
        )
        with pytest.raises(NotAChainMapError):
            les_connecting_iso(L, M, N, broken, betas)

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rejects_map_lists_of_the_wrong_length(self, rng, which, extra):
        L, M, N, alphas, betas = random_exact_triple(rng, length=3, acyclic="both")
        maps = {"alpha": list(alphas), "beta": list(betas)}
        m = maps[which]
        maps[which] = m[:extra] if extra < 0 else m + m[:extra]
        with pytest.raises(InputValidationError, match="one map per degree"):
            les_connecting_iso(L, M, N, maps["alpha"], maps["beta"])


def _count_calls(monkeypatch, name) -> list:
    """The calls, from now on, of the torsion module's ``name``."""
    module = sys.modules["l2torsion.torsion"]
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSequenceCheck:
    def test_equals_the_public_recipe(self):
        """Bit for bit the deviation of torsion x 3, les_connecting_iso and
        apply, on 30 seeded triples."""
        rng = np.random.default_rng(26)
        for t in range(30):
            triple = random_exact_triple(
                rng, length=int(rng.integers(2, 4)), acyclic=("L", "N", "both")[t % 3])
            L, M, N, alphas, betas = triple
            report = sequence_torsion_check(*triple)
            rho_l = torsion(L, out_prefix="HL").combined
            rho_n = torsion(N, out_prefix="HN").combined
            delta = les_connecting_iso(L, M, N, alphas, betas)
            log_lhs = delta.apply(rho_l.tensor(rho_n)).log_coeff
            log_rhs = torsion(M).combined.log_coeff
            assert (report.log_lhs, report.log_rhs) == (log_lhs, log_rhs)
            assert report.deviation == abs(log_lhs - log_rhs)
            assert report.passed

    def test_splits_each_complex_once(self, rng, monkeypatch):
        """L, M and N are split once each, for their torsion and for the
        connecting isomorphism; only the long exact sequence is split
        besides. The checks suite makes no other split."""
        calls = _count_calls(monkeypatch, "hodge_split")
        for which in ("L", "N", "both"):
            triple = random_exact_triple(rng, length=3, acyclic=which)
            calls.clear()
            sequence_torsion_check(*triple)
            assert len(calls) == 4
        calls.clear()
        suite_exact_sequences(trials=9)
        assert len(calls) == 36

    def test_builds_only_the_sections_it_reads(self, rng, monkeypatch):
        """The zig-zag of degree i reads the sections of beta_i and
        alpha_{i+1}: 2 (n - 1) sections for a sequence of length n."""
        calls = _count_calls(monkeypatch, "orthogonal_section")
        L, M, N, alphas, betas = random_exact_triple(rng, length=3, acyclic="both")
        les_connecting_iso(L, M, N, alphas, betas)
        assert len(calls) == 4

    def test_rejects_non_chain_map(self, rng):
        L, M, N, alphas, betas = random_exact_triple(rng, length=3, acyclic="both")
        broken = list(alphas)
        block = broken[0].blocks[0]
        broken[0] = matrix_morphism(broken[0].source, broken[0].target,
                                    block + rng.normal(size=block.shape))
        with pytest.raises(NotAChainMapError):
            sequence_torsion_check(L, M, N, broken, betas)

    def test_rejects_non_exact_pair(self, rng):
        """The zero maps M -> N form a chain map that is not onto."""
        L, M, N, alphas, _ = random_exact_triple(rng, length=3, acyclic="both")
        zeros = [zero_morphism(m, n) for m, n in zip(M.objects, N.objects)]
        with pytest.raises(NotExactError):
            les_connecting_iso(L, M, N, alphas, zeros)
        with pytest.raises(NotExactError):
            sequence_torsion_check(L, M, N, alphas, zeros)


class TestCones:
    def test_cone_of_identity_is_acyclic(self, rng):
        c = random_acyclic_complex(rng, 3, 3)
        f = [
            matrix_morphism(c.objects[i], c.objects[i], np.eye(c.objects[i].dims[0]))
            for i in range(c.length)
        ]
        cone, _, _ = mapping_cone(c, c, f)
        torsion_acyclic(cone)  # identity cones are acyclic

    def test_cone_identity(self, rng):
        for t in range(4):
            length = int(rng.integers(2, 4))
            if t % 2 == 0:
                c = random_acyclic_complex(rng, length, max_rank=3)
            else:
                c = random_complex_with_cohomology(rng, length)
            ct = random_acyclic_complex(rng, length, max_rank=3)
            f_list = random_chain_map(rng, c, ct)
            report = cone_torsion_check(c, ct, f_list)
            assert report.passed, report.deviation

    @pytest.mark.parametrize("check", [mapping_cone, cone_torsion_check])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rejects_chain_maps_of_the_wrong_length(self, rng, check, extra):
        c = random_acyclic_complex(rng, 3, 3)
        ct = random_acyclic_complex(rng, 3, 3)
        f_list = random_chain_map(rng, c, ct)
        f_list = f_list[:extra] if extra < 0 else f_list + f_list[:extra]
        with pytest.raises(InputValidationError, match="one map per degree"):
            check(c, ct, f_list)

    def test_check_derives_each_end_complex_once(self, rng, monkeypatch):
        """The check reuses the shifted and the negated complex that the
        cone was built from."""
        calls = []
        for name in ("shift", "negate_differentials"):
            def counted(self, real=getattr(ChainComplexC, name), name=name):
                calls.append(name)
                return real(self)

            monkeypatch.setattr(ChainComplexC, name, counted)
        c = random_acyclic_complex(rng, 3, 3)
        ct = random_acyclic_complex(rng, 3, 3)
        assert cone_torsion_check(c, ct, random_chain_map(rng, c, ct)).passed
        assert sorted(calls) == ["negate_differentials", "shift"]

    def test_check_splits_each_complex_once(self, rng, monkeypatch):
        """The cone, C~[1] and C(-d) are split once each, for their torsion
        and for the connecting isomorphism; only the long exact sequence is
        split besides. The result equals the one of the public calls."""
        module = sys.modules["l2torsion.torsion"]
        calls = []
        real = module.hodge_split

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "hodge_split", counted)
        for t in range(20):
            length = int(rng.integers(2, 4))
            if t % 2 == 0:
                c = random_acyclic_complex(rng, length, max_rank=3)
            else:
                c = random_complex_with_cohomology(rng, length)
            ct = random_acyclic_complex(rng, length, max_rank=3)
            f_list = random_chain_map(rng, c, ct)
            calls.clear()
            report = cone_torsion_check(c, ct, f_list)
            assert len(calls) == 4

            cone, inclusions, projections = mapping_cone(c, ct, f_list)
            sub = ct.shift()
            quot = c.negate_differentials().padded(sub.length)
            rho_sub = torsion(sub, out_prefix="HL").combined
            rho_quot = torsion(quot, out_prefix="HN").combined
            delta = les_connecting_iso(sub, cone, quot, inclusions, projections)
            log_lhs = delta.apply(rho_sub.tensor(rho_quot)).log_coeff
            log_rhs = torsion(cone).combined.log_coeff
            assert (report.log_lhs, report.log_rhs) == (log_lhs, log_rhs)
            assert report.deviation == abs(log_lhs - log_rhs)


def test_circle_laplacians_take_no_zero_maps_and_no_eigvalsh(monkeypatch):
    """The Laplacian cross-check of the circle at grid 1024 builds no zero
    morphism past the ends of the complex and reads its 1 x 1 Laplacians
    without a LAPACK eigenvalue call."""
    zero_maps, eig_matrices = [], []
    real_zero, real_eig = backends.zero_morphism, np.linalg.eigvalsh

    def zero_morphism(*args, **kwargs):
        zero_maps.append(args)
        return real_zero(*args, **kwargs)

    def eigvalsh(a, *args, **kwargs):
        eig_matrices.append(int(np.prod(np.shape(a)[:-2])))
        return real_eig(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "l2torsion" and getattr(module, "zero_morphism", None) is real_zero:
            monkeypatch.setattr(module, "zero_morphism", zero_morphism)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    c = cochain_complex(circle_complex(), circle_regular_representation(1024))
    report = torsion(c)
    assert report.scalar_value == pytest.approx(1.0, abs=1e-3)
    assert "large_part_formulas" in report.checks
    assert zero_maps == []
    assert sum(eig_matrices) == 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sigma_log", [-1.25, 0.7, 3.0])
def test_sigma_log_moves_only_the_coefficient(seed, sigma_log):
    """torsion(c, sigma_log) is the image of exp(sigma_log) times the unit
    volume element: only the coefficient moves, by sigma_log."""
    rng = np.random.default_rng(seed)
    make = random_acyclic_complex if seed % 2 else random_complex_with_cohomology
    c = make(rng, 3)
    base, moved = torsion(c), torsion(c, sigma_log=sigma_log)
    assert moved.epsilon == base.epsilon and moved.log_rho_large == base.log_rho_large
    assert [(f.label, e) for f, e in moved.combined.word] == [
        (f.label, e) for f, e in base.combined.word]
    shift = moved.combined.log_coeff - base.combined.log_coeff
    assert shift == pytest.approx(sigma_log, rel=0.0,
                                  abs=1e-14 * (1.0 + abs(base.combined.log_coeff)))
