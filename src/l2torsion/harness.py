"""Seeded random generators and reusable check suites.

Everything here is deterministic given the seed. The suites return plain
dictionaries with a ``passed`` flag and the measured deviations, so the
same code backs the pytest acceptance gate and the command line ``checks``
command.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .backends import (
    CategoryBackend,
    Fibers,
    HObject,
    Morphism,
    compose,
    cyclic_group_table,
    family_backend,
    family_object,
    group_backend,
    group_object,
    group_ring_morphism,
    matrix_backend,
    matrix_object,
    scalar_morphism,
    uniform_interval_samples,
)
from .errors import InputValidationError, L2TorsionError
from .extcoh import ChainComplexC
from .spectral import (
    fk_det_extended,
    log_fk_det,
    tau_isomorphism_test,
)
from .torsion import (
    cone_torsion_check,
    nu_map,
    sequence_torsion_check,
    torsion,
    torsion_acyclic,
)

DEFAULT_SEED = 7


def check_seed(seed) -> None:
    """Raise unless seed is a non-negative integer, as numpy's generators take."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise InputValidationError(f"the seed must be a non-negative integer, not {seed!r}")


# ---------------------------------------------------------------------------
# random objects


def random_invertible(rng, n: int):
    """Random complex n x n matrix with singular values uniform in [0.5, 2]."""
    if n == 0:
        return np.zeros((0, 0), complex)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _, vh = np.linalg.svd(a)
    s = rng.uniform(0.5, 2.0, size=n)
    return (u * s) @ vh


def random_invertible_morphism(rng, backend: CategoryBackend, n: int) -> Morphism:
    kind = backend.kind.value
    if kind == "Matrix":
        obj = matrix_object(backend, n)
        return Morphism(obj, obj, (random_invertible(rng, n),))
    if kind == "FiniteGroup":
        obj = group_object(backend, n)
        order = backend.group_order
        while True:
            coeffs = 0.5 * (
                rng.normal(size=(n, n, order)) + 1j * rng.normal(size=(n, n, order))
            )
            # bias toward the identity component to keep it invertible
            for i in range(n):
                coeffs[i, i, 0] += 2.0
            m = group_ring_morphism(obj, obj, coeffs)
            if np.linalg.svd(m.blocks[0], compute_uv=False)[-1] > 0.2:
                return m
    obj = family_object(backend, n)
    return Morphism(
        obj, obj, tuple(random_invertible(rng, n) for _ in range(backend.n_fibers))
    )


def standard_backends(grid: int = 16):
    return {
        "Matrix": matrix_backend(),
        "FiniteGroup": group_backend(cyclic_group_table(6)),
        "Family": family_backend(uniform_interval_samples(grid)),
    }


# ---------------------------------------------------------------------------
# random complexes and maps (Matrix backend)


def _conjugated(objects, model_diffs, rng):
    """Conjugate a model complex by random invertibles in every degree."""
    gs = [random_invertible(rng, o.dims[0]) for o in objects]
    diffs = []
    for i, d in enumerate(model_diffs):
        diffs.append(
            Morphism(objects[i], objects[i + 1], (gs[i + 1] @ d @ np.linalg.inv(gs[i]),))
        )
    return ChainComplexC(tuple(objects), tuple(diffs)), gs


def random_acyclic_complex(rng, length: int = 4, max_rank: int = 3):
    """Random strictly acyclic Matrix complex of the given length."""
    backend = matrix_backend()
    while True:
        ranks = [0] + [int(rng.integers(0, max_rank + 1)) for _ in range(length - 1)] + [0]
        dims = [ranks[i] + ranks[i + 1] for i in range(length)]
        if all(d > 0 for d in dims) and sum(ranks) > 0:
            break
    objects = [matrix_object(backend, d) for d in dims]
    model = []
    for i in range(length - 1):
        d = np.zeros((dims[i + 1], dims[i]), complex)
        d[: ranks[i + 1], ranks[i] :] = np.eye(ranks[i + 1])
        model.append(d)
    c, _ = _conjugated(objects, model, rng)
    return c


def random_complex_with_cohomology(rng, length: int = 4):
    """Random Matrix complex with harmonic parts of dimension 0..2 by construction."""
    backend = matrix_backend()
    while True:
        ranks = [0] + [int(rng.integers(0, 3)) for _ in range(length - 1)] + [0]
        betti = [int(rng.integers(0, 3)) for _ in range(length)]
        dims = [ranks[i] + ranks[i + 1] + betti[i] for i in range(length)]
        if all(d > 0 for d in dims) and sum(betti) > 0:
            break
    objects = [matrix_object(backend, d) for d in dims]
    model = []
    for i in range(length - 1):
        d = np.zeros((dims[i + 1], dims[i]), complex)
        d[: ranks[i + 1], ranks[i] : ranks[i] + ranks[i + 1]] = np.eye(ranks[i + 1])
        model.append(d)
    c, _ = _conjugated(objects, model, rng)
    return c


def random_chain_map(rng, c: ChainComplexC, ctilde: ChainComplexC):
    """Random (null-homotopic) chain map between Matrix complexes."""
    n = c.length
    # homotopy h_i: C^i -> Ctilde^{i-1}; f = d~ h + h d is always a chain map
    hs = [None] * (n + 1)
    for i in range(1, n):
        hs[i] = rng.normal(
            size=(ctilde.objects[i - 1].dims[0], c.objects[i].dims[0])
        ) + 1j * rng.normal(size=(ctilde.objects[i - 1].dims[0], c.objects[i].dims[0]))
    f_list = []
    for i in range(n):
        blk = np.zeros((ctilde.objects[i].dims[0], c.objects[i].dims[0]), complex)
        if i >= 1:
            blk += ctilde.diffs[i - 1].blocks[0] @ hs[i]
        if i + 1 < n and hs[i + 1] is not None:
            blk += hs[i + 1] @ c.diffs[i].blocks[0]
        f_list.append(Morphism(c.objects[i], ctilde.objects[i], (blk,)))
    return f_list


def random_exact_triple(rng, length: int = 3, acyclic: str = "L"):
    """Random degreewise short exact sequence 0 -> L -> M -> N -> 0.

    M is an extension of N by L twisted by a null-homotopic block and then
    conjugated by random invertibles; at least one of L, N is acyclic when
    requested.
    """
    backend = matrix_backend()
    if acyclic in ("L", "both"):
        L = random_acyclic_complex(rng, length)
    else:
        L = random_complex_with_cohomology(rng, length)
    if acyclic in ("N", "both"):
        N = random_acyclic_complex(rng, length)
    else:
        N = random_complex_with_cohomology(rng, length)
    n = length
    us = [
        rng.normal(size=(L.objects[i].dims[0], N.objects[i].dims[0]))
        + 1j * rng.normal(size=(L.objects[i].dims[0], N.objects[i].dims[0]))
        for i in range(n)
    ]
    objects = [
        matrix_object(backend, L.objects[i].dims[0] + N.objects[i].dims[0])
        for i in range(n)
    ]
    gs = [random_invertible(rng, o.dims[0]) for o in objects]
    diffs, alphas, betas = [], [], []
    for i in range(n):
        dl = L.objects[i].dims[0]
        if i < n - 1:
            h = L.diffs[i].blocks[0] @ us[i] - us[i + 1] @ N.diffs[i].blocks[0]
            blk = np.zeros(
                (objects[i + 1].dims[0], objects[i].dims[0]), complex
            )
            blk[: L.objects[i + 1].dims[0], :dl] = L.diffs[i].blocks[0]
            blk[: L.objects[i + 1].dims[0], dl:] = h
            blk[L.objects[i + 1].dims[0] :, dl:] = N.diffs[i].blocks[0]
            diffs.append(
                Morphism(
                    objects[i], objects[i + 1],
                    (gs[i + 1] @ blk @ np.linalg.inv(gs[i]),),
                )
            )
        inc = np.zeros((objects[i].dims[0], dl), complex)
        inc[:dl, :] = np.eye(dl)
        alphas.append(Morphism(L.objects[i], objects[i], (gs[i] @ inc,)))
        proj = np.zeros((N.objects[i].dims[0], objects[i].dims[0]), complex)
        proj[:, dl:] = np.eye(N.objects[i].dims[0])
        betas.append(
            Morphism(objects[i], N.objects[i], (proj @ np.linalg.inv(gs[i]),))
        )
    M = ChainComplexC(tuple(objects), tuple(diffs))
    return L, M, N, alphas, betas


# ---------------------------------------------------------------------------
# check suites


def suite_fk_laws(seed: int = DEFAULT_SEED, pairs: int = 200) -> dict:
    """Determinant laws on random invertibles over all three backends."""
    rng = np.random.default_rng(seed)
    backends = standard_backends()
    worst_mult = 0.0
    for backend in backends.values():
        for _ in range(pairs):
            n = int(rng.integers(1, 4))
            a = random_invertible_morphism(rng, backend, n)
            b = random_invertible_morphism(rng, backend, n)
            dev = abs(log_fk_det(compose(a, b)) - log_fk_det(a) - log_fk_det(b))
            worst_mult = max(worst_mult, dev)

    worst_scalar = 0.0
    for backend in backends.values():
        for lam in (3.0, 0.25, -2.0, 1.5j):
            obj_factory = {
                "Matrix": lambda: matrix_object(backend, 2),
                "FiniteGroup": lambda: group_object(backend, 2),
                "Family": lambda: family_object(backend, 2),
            }[backend.kind.value]
            obj = obj_factory()
            m = scalar_morphism(obj, lam)
            dev = abs(log_fk_det(m) - obj.dim_tau * math.log(abs(lam)))
            worst_scalar = max(worst_scalar, dev)

    worst_tri = 0.0
    mbackend = backends["Matrix"]
    for _ in range(pairs):
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = random_invertible(rng, na)
        b = random_invertible(rng, nb)
        gamma = rng.normal(size=(na, nb))
        blk = np.zeros((na + nb, na + nb), complex)
        blk[:na, :na] = a
        blk[:na, na:] = gamma
        blk[na:, na:] = b
        obj = matrix_object(mbackend, na + nb)
        oa, ob = matrix_object(mbackend, na), matrix_object(mbackend, nb)
        dev = abs(
            log_fk_det(Morphism(obj, obj, (blk,)))
            - log_fk_det(Morphism(oa, oa, (a,)))
            - log_fk_det(Morphism(ob, ob, (b,)))
        )
        worst_tri = max(worst_tri, dev)

    worst_scale = 0.0
    for lam_tau in (0.5, 2.0, 3.7):
        for name, backend in backends.items():
            scaled = backend.with_scale(backend.scale * lam_tau)
            n = 2
            a = random_invertible_morphism(rng, backend, n)
            a_scaled = _rebuild_on_backend(a, scaled)
            dev = abs(log_fk_det(a_scaled) - lam_tau * log_fk_det(a))
            worst_scale = max(worst_scale, dev)

    return {
        "multiplicativity": worst_mult,
        "scalar_law": worst_scalar,
        "block_triangular": worst_tri,
        "scale_law": worst_scale,
        "passed": bool(
            worst_mult < 1e-8
            and worst_scalar < 1e-10
            and worst_tri < 1e-8
            and worst_scale < 1e-10
        ),
    }


def _rebuild_on_backend(m: Morphism, backend: CategoryBackend) -> Morphism:
    src = HObject(backend, m.source.dim_array, m.source.gram)
    tgt = HObject(backend, m.target.dim_array, m.target.gram)
    return Morphism(src, tgt, m.blocks)


def family_multiplication_map(values, samples=None) -> Morphism:
    """1 x 1 Family morphism multiplying fiber j by values[j].

    Defaults to the uniform midpoint grid on (0, 1] as the sample set.
    """
    values = np.asarray(values, dtype=complex)
    if samples is None:
        samples = uniform_interval_samples(len(values))
    backend = family_backend(samples)
    obj = family_object(backend, 1)
    return Morphism(obj, obj, Fibers.stack(values.reshape(-1, 1, 1)))


def suite_family_density(grid: int = 10_000) -> dict:
    """Oracle densities over the unit interval family backend."""
    xs = uniform_interval_samples(grid)[:, 0]
    mult = family_multiplication_map(xs)
    log_det, verdict = fk_det_extended(mult)
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(-1.0 / xs)
    hard = family_multiplication_map(decay)
    hard_verdict = tau_isomorphism_test(hard)
    ladder_vals = [v for _, v in hard_verdict.ladder]
    monotone = all(x >= y - 1e-12 for x, y in zip(ladder_vals, ladder_vals[1:]))
    return {
        "xi_log_det": log_det,
        "xi_status": verdict.status,
        "decay_status": hard_verdict.status,
        "decay_ladder_monotone": monotone,
        "passed": bool(
            abs(log_det + 1.0) < 1e-3
            and verdict.status == "Convergent"
            and hard_verdict.status == "Divergent"
            and monotone
        ),
    }


def suite_torsion_formulas(seed: int = DEFAULT_SEED, trials: int = 100) -> dict:
    """Laplacian closed form vs restricted-differential product on random
    acyclic complexes (the cross-check inside torsion_acyclic), plus the
    frozen two-term oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        c = random_acyclic_complex(rng, length=int(rng.integers(2, 6)), max_rank=4)
        via_lap = torsion_acyclic(c, cross_check=False)
        via_nu = nu_map(c)
        if via_nu.word:
            raise L2TorsionError("random acyclic complex failed to fold")
        worst = max(worst, abs(via_lap - via_nu.log_coeff))

    backend = matrix_backend()
    o = matrix_object(backend, 1)
    two = ChainComplexC((o, o), (Morphism(o, o, (np.array([[2.0]]),)),))
    rho = math.exp(torsion_acyclic(two))
    return {
        "formula_agreement": worst,
        "two_term_rho": rho,
        "passed": bool(worst < 1e-8 and abs(rho - 0.5) < 1e-12),
    }


def suite_epsilon_independence(seed: int = DEFAULT_SEED, trials: int = 50) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        c = random_complex_with_cohomology(rng, length=int(rng.integers(2, 5)))
        r1 = torsion(c)
        eps = r1.epsilon
        if eps is None:  # all differentials vanish; nothing to split
            continue
        candidates = [eps * 3.0, eps / 3.0]
        r2 = torsion(c, epsilon=candidates[int(rng.integers(2))])
        worst = max(worst, abs(r1.combined.log_coeff - r2.combined.log_coeff))
    return {"max_deviation": worst, "passed": bool(worst < 1e-8)}


def suite_exact_sequences(seed: int = DEFAULT_SEED, trials: int = 100) -> dict:
    """Torsion multiplicativity across short exact sequences of complexes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        which = ("L", "N", "both")[t % 3]
        triple = random_exact_triple(rng, length=int(rng.integers(2, 4)), acyclic=which)
        worst = max(worst, sequence_torsion_check(*triple).deviation)
    return {"max_deviation": worst, "passed": bool(worst < 1e-6)}


def suite_cones(seed: int = DEFAULT_SEED, trials: int = 100) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        length = int(rng.integers(2, 4))
        if t % 2 == 0:
            c = random_acyclic_complex(rng, length, max_rank=3)
            ct = random_acyclic_complex(rng, length, max_rank=3)
        else:
            c = random_complex_with_cohomology(rng, length)
            ct = random_acyclic_complex(rng, length, max_rank=3)
        f_list = random_chain_map(rng, c, ct)
        report = cone_torsion_check(c, ct, f_list)
        worst = max(worst, report.deviation)
    return {"max_deviation": worst, "passed": bool(worst < 1e-6)}


def run_all_suites(seed: int = DEFAULT_SEED, fast: bool = False) -> dict:
    check_seed(seed)
    scale = 0.2 if fast else 1.0
    results = {
        "fk_laws": suite_fk_laws(seed, pairs=max(int(200 * scale), 20)),
        "family_density": suite_family_density(grid=2000 if fast else 10_000),
        "torsion_formulas": suite_torsion_formulas(seed, trials=max(int(100 * scale), 10)),
        "epsilon_independence": suite_epsilon_independence(
            seed, trials=max(int(50 * scale), 10)
        ),
        "exact_sequences": suite_exact_sequences(seed, trials=max(int(100 * scale), 9)),
        "cones": suite_cones(seed, trials=max(int(100 * scale), 10)),
    }
    results["passed"] = all(v["passed"] for v in results.values() if isinstance(v, dict))
    return results
