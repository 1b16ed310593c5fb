"""The Hodge frames and the short-exact-sequence factors read off the SVDs.

``hodge_split`` takes the harmonic frames as the complement of
cl(im d_{i-1}) (+) W^i, and ``les_connecting_iso`` and
``extended_pushforward`` take their base changes as Fuglede-Kadison
determinants of the sequence maps. These tests hold them to the
constructions they replace (the harmonic part as ker d_i minus
cl(im d_{i-1}), and the base change as the log-determinants of the products
induced along the maps), with non-standard products on every object they
can carry one, and hold ``check_exactness`` to exactness on every fiber.
"""

from collections import Counter

import numpy as np
import pytest

from l2torsion import backends
from l2torsion.backends import (
    Fibers,
    HObject,
    Morphism,
    SubObject,
    align,
    block_matrix,
    compose,
    direct_sum_objects,
    expand_group_matrix,
    family_backend,
    family_morphism,
    family_object,
    fiber_svds,
    full_subobject,
    hermitian,
    identity_morphism,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    orthocomplement,
    scale_morphism,
    subobject_from_std_frames,
    uniform_interval_samples,
    zero_morphism,
)
from l2torsion.detline import (
    DetLineElement,
    Frame,
    check_exactness,
    exact_sequence_iso,
    induced_quotient_object,
    induced_sub_object,
    orthogonal_section,
    rebase_products,
)
from l2torsion.errors import NotAnIsomorphismError, NotExactError
from l2torsion.extcoh import (
    ChainComplexC,
    det_line_of_extended,
    extended_object,
    extended_pushforward,
    zero_object,
)
from l2torsion.harness import (
    random_exact_triple,
    random_invertible,
    random_invertible_morphism,
    standard_backends,
)
from l2torsion.torsion import hodge_split, les_connecting_iso, nu_map, torsion


def _positive(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a.conj().T @ a + 0.5 * np.eye(n)


def _with_products(rng, triple):
    """The exact triple with a random positive definite product on every
    object of L, M and N; the maps keep their blocks."""
    L, M, N, alphas, betas = triple
    new = {}
    out = []
    for c in (L, M, N):
        objs = [HObject(o.backend, o.dims, [_positive(rng, d) for d in o.dims])
                for o in c.objects]
        new[id(c)] = objs
        out.append(ChainComplexC(tuple(objs), tuple(
            Morphism(objs[i], objs[i + 1], d.blocks) for i, d in enumerate(c.diffs))))
    lo, mo, no = new[id(L)], new[id(M)], new[id(N)]
    alphas = [Morphism(lo[i], mo[i], a.blocks) for i, a in enumerate(alphas)]
    betas = [Morphism(mo[i], no[i], b.blocks) for i, b in enumerate(betas)]
    return (*out, alphas, betas)


def _reference_les_factor(L, M, N, alpha, beta):
    """The connecting isomorphism's log factor with the base change taken
    from the induced products: half the log-determinant of the product
    pulled back along alpha_i and of the one carried to N^i by the section
    of beta_i, each relative to the object's own."""
    hl, hm, hn = (hodge_split(c).harmonic for c in (L, M, N))
    alpha_pinv = [orthogonal_section(a) for a in alpha]
    quotients = [induced_quotient_object(b) for b in beta]
    n = M.length
    objects, diffs = [], []
    for i in range(n):
        objects.extend([hl[i].space, hm[i].space, hn[i].space])
    for i in range(n):
        diffs.append(hm[i].compress(alpha[i], hl[i]))
        diffs.append(hn[i].compress(beta[i], hm[i]))
        if i < n - 1:
            zig = compose(alpha_pinv[i + 1], compose(M.diffs[i], quotients[i][1]))
            diffs.append(hl[i + 1].compress(zig, hn[i]))
    rho = nu_map(ChainComplexC(tuple(objects), tuple(diffs)))
    assert not rho.word
    base_change = sum(
        (-1) ** i * 0.5 * (
            (induced_sub_object(alpha[i]).log_det_product() - L.objects[i].log_det_product())
            + (quot.log_det_product() - N.objects[i].log_det_product())
        )
        for i, (quot, _) in enumerate(quotients)
    )
    return rho.log_coeff + base_change


@pytest.mark.parametrize("acyclic", ["L", "N", "both"])
@pytest.mark.parametrize("seed", range(4))
def test_les_factor_matches_the_induced_products(seed, acyclic):
    rng = np.random.default_rng(seed)
    triple = _with_products(
        rng, random_exact_triple(rng, length=int(rng.integers(2, 4)), acyclic=acyclic))
    L, M, N, alphas, betas = triple
    delta = les_connecting_iso(L, M, N, alphas, betas)
    assert delta.log_factor == pytest.approx(
        _reference_les_factor(L, M, N, alphas, betas), rel=0.0, abs=1e-12)
    # and the factor makes torsion multiplicative with these products
    rho_l = torsion(L, out_prefix="HL").combined
    rho_n = torsion(N, out_prefix="HN").combined
    rho_m = torsion(M).combined
    lhs = delta.apply(rho_l.tensor(rho_n)).log_coeff
    assert lhs == pytest.approx(rho_m.log_coeff, rel=0.0, abs=1e-10)


def _object_with_product(rng, backend, n):
    """An object of rank n with a random positive definite product; on a
    FiniteGroup backend the product is a group-ring matrix."""
    if backend.kind.value == "FiniteGroup":
        order = backend.group_order
        coeffs = rng.normal(size=(n, n, order)) + 1j * rng.normal(size=(n, n, order))
        e = expand_group_matrix(backend.group_table, coeffs)
        product = e.conj().T @ e + np.eye(n * order)
        return HObject(backend, (n * order,), [product])
    return HObject(backend, (n,) * backend.n_fibers,
                   [_positive(rng, n) for _ in range(backend.n_fibers)])


def _invertible(rng, source, target):
    """A random invertible map between objects of one rank; on a
    FiniteGroup backend a group-ring matrix."""
    backend = source.backend
    if backend.kind.value == "FiniteGroup":
        rank = source.dims[0] // backend.group_order
        blocks = random_invertible_morphism(rng, backend, rank).blocks
    else:
        blocks = [random_invertible(rng, d) for d in source.dims]
    return Morphism(source, target, blocks)


def _square(rng, backend):
    """x = [alpha: A' -> A], y = [beta: B' -> B] and an iso (f, f') between
    them, with products on all four objects; the normalization of x and y
    gives A' and B' standard products, so those of A and B reach the
    mapping sequence."""
    a_src, a_tgt, b_src, b_tgt = (_object_with_product(rng, backend, 2) for _ in range(4))
    alpha = _invertible(rng, a_src, a_tgt)
    beta = _invertible(rng, b_src, b_tgt)
    f = _invertible(rng, a_tgt, b_tgt)
    x, y = extended_object(alpha), extended_object(beta)
    # f' = y.alpha^-1 f x.alpha makes the square commute
    inverse = Morphism(y.alpha.target, y.alpha.source, Fibers(
        [(idx, np.linalg.inv(b)) for idx, b in y.alpha.blocks.groups], y.alpha.blocks.n))
    fprime = compose(inverse, compose(f, x.alpha))
    return x, y, f, fprime


@pytest.mark.parametrize("kind", ["Matrix", "FiniteGroup", "Family"])
@pytest.mark.parametrize("seed", range(3))
def test_pushforward_factor_matches_the_induced_products(kind, seed):
    rng = np.random.default_rng(seed)
    x, y, f, fprime = _square(rng, standard_backends(grid=4)[kind])
    assert y.target.gram is not None and x.target.gram is not None
    mid = direct_sum_objects(y.source, x.target)
    g = Morphism(x.source, mid, block_matrix([[fprime], [x.alpha]]))
    h = Morphism(mid, y.target, block_matrix([[y.alpha, scale_morphism(f, -1.0)]]))
    start = DetLineElement(((Frame(mid, "mid"), 1),), 0.0)
    split = exact_sequence_iso(g, h, start, total_label="mid")
    split = rebase_products(split, "sub", x.source)
    reference = rebase_products(split, "quot", y.target).log_coeff

    moved = extended_pushforward(x, y, f, fprime, det_line_of_extended(x))
    assert moved.log_coeff == pytest.approx(reference, rel=0.0, abs=1e-12)


def _projectors(sub: SubObject) -> list:
    """Per fiber, the projector onto the subspace: V V^H P for P-orthonormal V."""
    p = sub.ambient.product_fibers()
    return [v @ hermitian(v) @ pf for v, pf in zip(sub.frames, p)]


def _harmonic_by_kernel(c, i, tol=1e-10):
    """Harm^i built as ker d_i minus cl(im d_{i-1}): the kernel frames, the
    boundary frames in the kernel's coordinates, and their complement
    there."""
    scale = c.fiber_scales()
    obj = c.objects[i]
    if i < len(c.diffs):
        kernel = subobject_from_std_frames(obj, fiber_svds(c.diffs[i], tol, scale).kernel())
    else:
        kernel = full_subobject(obj)
    if i == 0:
        return kernel
    bound = subobject_from_std_frames(obj, fiber_svds(c.diffs[i - 1], tol, scale).image())
    p = obj.gram
    coords = [(idx, hermitian(v) @ (w if p is None else p.take(idx) @ w))
              for idx, (v, w) in align(kernel.frames, bound.frames)]
    comp = orthocomplement(SubObject(kernel.space, Fibers(coords, kernel.frames.n)))
    frames = [(idx, v @ u) for idx, (v, u) in align(kernel.frames, comp.frames)]
    return SubObject(obj, Fibers(frames, kernel.frames.n))


def _ragged_complex_with_cohomology(rng, k, products):
    """A Family complex C^0 -> C^1 -> C^2 on k fibers whose ranks and
    harmonic dimensions differ across fibers, conjugated by random
    invertibles, with positive definite products on every other fiber."""
    dims, d0, d1 = [[], [], []], [], []
    for _ in range(k):
        r0, r1 = rng.integers(1, 3, size=2)
        h0, h1, h2 = rng.integers(0, 3, size=3)
        n = (r0 + h0, r0 + r1 + h1, r1 + h2)
        m0 = np.zeros((n[1], n[0]))
        m0[:r0, :r0] = np.eye(r0)
        m1 = np.zeros((n[2], n[1]))
        m1[:r1, r0:r0 + r1] = np.eye(r1)
        g = [random_invertible(rng, int(d)) for d in n]
        d0.append(g[1] @ m0 @ np.linalg.inv(g[0]))
        d1.append(g[2] @ m1 @ np.linalg.inv(g[1]))
        for deg in range(3):
            dims[deg].append(int(n[deg]))
    backend = family_backend(uniform_interval_samples(k))
    objects = [
        family_object(backend, tuple(d), [
            _positive(rng, n) if products and f % 2 else None for f, n in enumerate(d)])
        for d in dims
    ]
    return ChainComplexC(tuple(objects), (
        family_morphism(objects[0], objects[1], d0),
        family_morphism(objects[1], objects[2], d1),
    ))


@pytest.mark.parametrize("products", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_harmonic_projector_matches_kernel_minus_boundaries(seed, products):
    rng = np.random.default_rng(seed)
    c = _ragged_complex_with_cohomology(rng, 7, products)
    assert len(set(c.objects[1].dims)) > 1
    split = hodge_split(c)
    assert sum(h.dim_tau for h in split.harmonic) > 0
    for i, harm in enumerate(split.harmonic):
        old = _harmonic_by_kernel(c, i)
        assert harm.space.dims == old.space.dims
        for got, want in zip(_projectors(harm), _projectors(old)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# exactness on every fiber


def _tiny_fiber_sequences():
    """(alpha, beta) pairs that are exact on every fiber but one of weight
    1e-9, so that their trace ranks match those of an exact sequence to
    within 1e-8: alpha not injective there, or beta not surjective there.
    On a Family of weights [0.5, 1e-9], and on a Matrix backend of scale
    1e-9, whose one fiber is the tiny one.
    """
    family = family_backend(np.array([[0.25, 0.5], [0.75, 1e-9]]))

    def fam(source, target, blocks):
        return family_morphism(source, target, [np.array(b, complex) for b in blocks])

    out = {}
    # alpha vanishes on the tiny fiber, beta is the identity there
    L, M, N = (family_object(family, d) for d in ((1, 1), (2, 1), (1, 1)))
    out["family-not-injective"] = (
        fam(L, M, [[[1], [0]], [[0]]]), fam(M, N, [[[0, 1]], [[1]]]))
    # the tiny fiber has nothing to inject and beta misses a direction
    L, M, N = (family_object(family, d) for d in ((1, 0), (2, 1), (1, 2)))
    out["family-not-surjective"] = (
        fam(L, M, [[[1], [0]], np.zeros((1, 0))]), fam(M, N, [[[0, 1]], [[1], [0]]]))
    tiny = matrix_backend(1e-9)
    one, two = matrix_object(tiny, 1), matrix_object(tiny, 2)
    out["matrix-not-injective"] = (
        matrix_morphism(one, one, [[0]]), matrix_morphism(one, one, [[1]]))
    zero = matrix_object(tiny, 0)
    out["matrix-not-surjective"] = (
        zero_morphism(zero, one), matrix_morphism(one, two, [[1], [0]]))
    return out


@pytest.mark.parametrize("name", sorted(_tiny_fiber_sequences()))
def test_exactness_is_checked_on_every_fiber(name):
    alpha, beta = _tiny_fiber_sequences()[name]
    weights = alpha.backend.fiber_weights
    rank_a = fiber_svds(alpha, vectors=False).rank
    rank_b = fiber_svds(beta, vectors=False).rank
    # exact by trace, within the 1e-8 slack of a trace comparison
    assert np.dot(weights, alpha.source.dim_array - rank_a) <= 1e-8
    assert abs(np.dot(weights, beta.target.dim_array - rank_b)) <= 1e-8
    with pytest.raises(NotExactError):
        check_exactness(alpha, beta)


def _tiny_fiber_pushforwards():
    """Isomorphism candidates [f]: X -> Y between projective objects
    (A' = B' = 0) whose mapping sequence 0 -> A -> B fails to be onto a
    fiber of weight 1e-9: f: A -> B misses one direction of B there."""
    family = family_backend(np.array([[0.25, 0.5], [0.75, 1e-9]]))
    a, b = family_object(family, (1, 1)), family_object(family, (1, 2))
    family_f = family_morphism(a, b, [np.array([[2.0]]), np.array([[1.0], [0.0]])])
    tiny = matrix_backend(1e-9)
    matrix_f = matrix_morphism(matrix_object(tiny, 1), matrix_object(tiny, 2), [[1], [0]])
    return {"family": family_f, "matrix": matrix_f}


@pytest.mark.parametrize("name", ["family", "matrix"])
def test_pushforward_rejects_a_sequence_inexact_on_a_tiny_fiber(name):
    f = _tiny_fiber_pushforwards()[name]
    zero = zero_object(f.backend)
    x = extended_object(zero_morphism(zero, f.source))
    y = extended_object(zero_morphism(zero, f.target))
    with pytest.raises(NotAnIsomorphismError):
        extended_pushforward(x, y, f, zero_morphism(zero, zero), det_line_of_extended(x))


# ---------------------------------------------------------------------------
# count guards


def _counting_subobjects(monkeypatch):
    made = []
    real = backends.SubObject.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(backends.SubObject, "__post_init__", counted)
    return made


@pytest.mark.parametrize("seed", range(3))
def test_hodge_split_builds_one_harmonic_subobject_per_degree(seed, monkeypatch):
    """None when the split is taken; reading the harmonic part builds one
    per degree, once, and nothing else."""
    rng = np.random.default_rng(seed)
    c = _ragged_complex_with_cohomology(rng, 5, products=True)
    L, M, N, _, _ = random_exact_triple(rng, length=3, acyclic="N")
    made = _counting_subobjects(monkeypatch)
    for complex_ in (c, L, M, N):
        made.clear()
        split = hodge_split(complex_)
        assert len(made) == 0
        for _ in range(2):
            split.harmonic
            assert len(made) == complex_.length


@pytest.fixture
def product_calls(monkeypatch):
    """Calls from now on to np.linalg.slogdet and np.linalg.eigvalsh and to
    HObject.with_products."""
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(np.linalg, "slogdet")
    count(np.linalg, "eigvalsh")
    count(HObject, "with_products")
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_les_connecting_iso_reads_no_induced_products(seed, product_calls):
    rng = np.random.default_rng(seed)
    triple = _with_products(rng, random_exact_triple(rng, length=3, acyclic="both"))
    product_calls.clear()
    les_connecting_iso(*triple)
    assert product_calls == Counter()


@pytest.mark.parametrize("kind", ["Matrix", "FiniteGroup", "Family"])
def test_extended_pushforward_reads_no_induced_products(kind, product_calls):
    """On standard products: with products on A and B, building the middle
    object B' (+) A validates its block-diagonal product (one eigvalsh)."""
    backend = standard_backends(grid=4)[kind]
    rng = np.random.default_rng(5)
    obj = (HObject(backend, (backend.group_order * 2,)) if kind == "FiniteGroup"
           else HObject(backend, (2,) * backend.n_fibers))
    alpha = _invertible(rng, obj, obj)
    f = _invertible(rng, obj, obj)
    x, y = extended_object(alpha), extended_object(compose(f, alpha))
    product_calls.clear()
    extended_pushforward(x, y, f, identity_morphism(x.source), det_line_of_extended(x))
    assert product_calls == Counter()


def _map(rng, source, target):
    """A random map between objects; on a FiniteGroup backend a group-ring
    matrix."""
    backend = source.backend
    if backend.kind.value == "FiniteGroup":
        order = backend.group_order
        shape = (target.dims[0] // order, source.dims[0] // order, order)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return Morphism(source, target, (expand_group_matrix(backend.group_table, coeffs),))
    return Morphism(source, target, [rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
                                     for m, n in zip(target.dims, source.dims)])


@pytest.mark.parametrize("with_products", [False, True])
@pytest.mark.parametrize("kind", ["Matrix", "FiniteGroup", "Family"])
def test_extended_source_is_the_complement_of_the_kernel(kind, with_products):
    """extended_object restricts alpha to the complement of the kernel
    frames of its SVD, in standardized coordinates. The reference takes the
    kernel as a SubObject and its orthocomplement, through raw coordinates:
    the same frames without products, the same up to rounding with."""
    rng = np.random.default_rng(11)
    backend = standard_backends(grid=4)[kind]
    source, target = (_object_with_product(rng, backend, n) for n in (3, 2))
    if not with_products:
        source, target = HObject(backend, source.dims), HObject(backend, target.dims)
    alpha = _map(rng, source, target)
    kernel = subobject_from_std_frames(source, fiber_svds(alpha).kernel())
    reference = compose(alpha, orthocomplement(kernel).include())
    got = extended_object(alpha).alpha
    assert got.source.dims == reference.source.dims == target.dims
    for f in range(backend.n_fibers):
        if with_products:
            assert np.abs(got.blocks[f] - reference.blocks[f]).max() <= 1e-13 * alpha.norm()
        else:
            assert np.array_equal(got.blocks[f], reference.blocks[f])
