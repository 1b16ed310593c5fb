"""Fibers stored as shape groups: one numpy call per group, not per fiber.

A morphism keeps its blocks as ``Fibers``: one stacked array per distinct
(target_dim, source_dim). These tests hold the grouped pipeline to the
per-fiber answer on ragged families, to the symmetries the theory promises,
and to a number of numpy.linalg calls that does not grow with the grid.
"""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2torsion import backends
from l2torsion.backends import (
    Fibers,
    SubObject,
    align,
    compose,
    family_backend,
    family_morphism,
    family_object,
    fiber_svds,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    partition,
    uniform_interval_samples,
)
from l2torsion.cellular import (
    circle_complex,
    circle_regular_representation,
    cochain_complex,
    re_lift,
)
from l2torsion.detline import exact_sequence_iso, standard_element
from l2torsion.extcoh import ChainComplexC, extended_object, kernel_cokernel_lines
from l2torsion.harness import random_exact_triple, random_invertible_morphism
from l2torsion.torsion import (
    default_epsilon,
    hodge_split,
    les_connecting_iso,
    split_complex,
    torsion,
)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _spread(rng, n):
    """A square matrix whose singular values spread over 1e-2..1e2."""
    values = 10.0 ** rng.uniform(-2.0, 2.0, n)
    return _unitary(rng, n) @ np.diag(values) @ _unitary(rng, n)


def _ragged_fibers(rng, k):
    """Per fiber f, an acyclic complex C^0 -> C^1 -> C^2 of dims
    (a_f, a_f + b_f, b_f), with the dims uneven across fibers."""
    a = rng.integers(1, 4, size=k)
    b = rng.integers(1, 3, size=k)
    d0, d1 = [], []
    for f in range(k):
        u = _unitary(rng, a[f] + b[f])
        d0.append(u @ np.vstack([_spread(rng, a[f]), np.zeros((b[f], a[f]))]))
        d1.append(np.hstack([np.zeros((b[f], a[f])), _spread(rng, b[f])]) @ u.conj().T)
    return [a, a + b, b], [d0, d1]


def _products(rng, dims):
    """Per degree, positive definite products on every other fiber and the
    standard product on the rest."""
    def positive(n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a.conj().T @ a + np.eye(n)

    return [[positive(int(d[f])) if f % 2 else None for f in range(len(d))] for d in dims]


def _family_complex(samples, dims, diffs, products=None):
    backend = family_backend(samples)
    products = products or [None] * len(dims)
    objects = [family_object(backend, tuple(d), p) for d, p in zip(dims, products)]
    return ChainComplexC(
        tuple(objects),
        tuple(family_morphism(objects[i], objects[i + 1], blocks)
              for i, blocks in enumerate(diffs)),
    )


def _fiber_complex(dims, diffs, f, products=None):
    backend = matrix_backend()
    products = products or [[None] * len(d) for d in dims]
    objects = [matrix_object(backend, int(d[f]), p[f]) for d, p in zip(dims, products)]
    return ChainComplexC(
        tuple(objects),
        tuple(matrix_morphism(objects[i], objects[i + 1], blocks[f])
              for i, blocks in enumerate(diffs)),
    )


@pytest.mark.parametrize("with_products", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ragged_family_matches_the_fiberwise_sum(seed, with_products):
    rng = np.random.default_rng(seed)
    k = 9
    samples = uniform_interval_samples(k)
    dims, diffs = _ragged_fibers(rng, k)
    products = _products(rng, dims) if with_products else None
    c = _family_complex(samples, dims, diffs, products)
    assert len({tuple(d[f] for d in dims) for f in range(k)}) > 1

    report = torsion(c)

    # the default epsilon splits the fibers unevenly: some fibers keep
    # values on both sides of the cut, and fibers differ in how many
    split = hodge_split(c)
    low = np.concatenate([v.fiber[v.values ** 2 <= report.epsilon] for v in split.singular])
    high = np.concatenate([v.fiber[v.values ** 2 > report.epsilon] for v in split.singular])
    assert set(low) & set(high)
    assert len(set(np.bincount(low, minlength=k))) > 1

    weights = samples[:, 1]
    oracle = sum(
        w * torsion(_fiber_complex(dims, diffs, f, products)).combined.log_coeff
        for f, w in enumerate(weights)
    )
    assert report.combined.log_coeff == pytest.approx(oracle, rel=0.0, abs=1e-10)
    assert np.allclose(report.betti, 0.0, atol=1e-12)
    assert [v.status for v in report.detclass] == ["Convergent"] * 3
    assert report.scalar_value is not None


@pytest.mark.parametrize("seed", [3, 4])
def test_permuting_samples_changes_nothing(seed):
    rng = np.random.default_rng(seed)
    k = 8
    samples = uniform_interval_samples(k)
    samples[:, 1] *= rng.uniform(0.5, 1.5, k)  # uneven weights
    dims, diffs = _ragged_fibers(rng, k)
    perm = rng.permutation(k)
    before = torsion(_family_complex(samples, dims, diffs))
    after = torsion(_family_complex(
        samples[perm], [d[perm] for d in dims], [[blocks[f] for f in perm] for blocks in diffs]
    ))
    assert after.combined.log_coeff == pytest.approx(
        before.combined.log_coeff, rel=0.0, abs=1e-12
    )
    assert after.betti == pytest.approx(before.betti, abs=1e-12)
    assert [v.status for v in after.detclass] == [v.status for v in before.detclass]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Calls of each numpy.linalg function from now on, by name."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in dir(np.linalg):
        real = getattr(np.linalg, name)
        if not name.startswith("_") and callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, counted(name, real))
    return calls


def test_linalg_calls_do_not_grow_with_the_grid(linalg_calls):
    circle = re_lift(circle_complex(), {"v": 2, "e": -1})
    counts = []
    for grid in (64, 1024):
        c = cochain_complex(circle, circle_regular_representation(grid))
        linalg_calls.clear()
        report = torsion(c)
        assert abs(report.scalar_value - 1.0) < 1.01 * np.log(2.0) / grid
        counts.append(dict(linalg_calls))
    assert counts[0] == counts[1]


def test_partition_calls_do_not_grow_with_the_grid(monkeypatch):
    """torsion() of the circle groups its fibers as often at grid 64 as at
    grid 1024, and the epsilon split groups them exactly once."""
    torsion_module = sys.modules["l2torsion.torsion"]
    calls = Counter()
    real_partition, real_split = backends.partition, torsion_module._split_parts

    def counted(keys):
        calls["partition"] += 1
        return real_partition(keys)

    def split_parts(*args):
        before = calls["partition"]
        out = real_split(*args)
        calls["in _split_parts"] += calls["partition"] - before
        return out

    monkeypatch.setattr(backends, "partition", counted)
    monkeypatch.setattr(torsion_module, "partition", counted)
    monkeypatch.setattr(torsion_module, "_split_parts", split_parts)
    circle = re_lift(circle_complex(), {"v": 2, "e": -1})
    counts = []
    for grid in (64, 1024):
        c = cochain_complex(circle, circle_regular_representation(grid))
        calls.clear()
        torsion(c)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[1]["in _split_parts"] == 1


def test_blocks_read_per_fiber_in_any_grouping():
    """A ragged morphism is stored as several groups, and ``blocks`` still
    reads fiber by fiber; the SVD view iterates fiber by fiber too."""
    rng = np.random.default_rng(5)
    backend = family_backend(uniform_interval_samples(5))
    dims = (2, 1, 2, 3, 1)
    blocks = [rng.normal(size=(d, 2)) for d in dims]
    m = family_morphism(family_object(backend, 2), family_object(backend, dims), blocks)
    assert isinstance(m.blocks, Fibers)
    assert sorted(s.shape[1:] for _, s in m.blocks.groups) == [(1, 2), (2, 2), (3, 2)]
    for f, blk in enumerate(blocks):
        assert np.array_equal(m.blocks[f], blk)
    for (r, u, s, vh), blk in zip(fiber_svds(m), blocks):
        assert r == min(blk.shape)
        assert np.allclose((u[:, : len(s)] * s) @ vh[: len(s)], blk)


@given(
    rows=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_align_pairs_fibers_across_groupings(rows, data):
    """Two Fibers over the same fibers but grouped differently line up
    fiber by fiber, and compose like their per-fiber blocks."""
    n = len(rows)
    mids = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rng = np.random.default_rng(n)
    left = [rng.normal(size=(r, m)) + 0j for r, m in zip(rows, mids)]
    right = [rng.normal(size=(m, 2)) + 0j for m in mids]
    a, b = Fibers.from_list(left), Fibers.from_list(right)
    covered = []
    for idx, (x, y) in align(a, b):
        covered.extend(idx.tolist())
        for k, f in enumerate(idx):
            assert np.array_equal(x[k], left[f]) and np.array_equal(y[k], right[f])
    assert sorted(covered) == list(range(n))
    backend = family_backend(uniform_interval_samples(n))
    f = family_morphism(family_object(backend, tuple(mids)), family_object(backend, tuple(rows)), left)
    g = family_morphism(family_object(backend, 2), family_object(backend, tuple(mids)), right)
    for fib, blk in enumerate(compose(f, g).blocks):
        assert np.allclose(blk, left[fib] @ right[fib])


@pytest.fixture
def svd_inputs(monkeypatch):
    """The arrays handed to np.linalg.svd from now on, as (shape, bytes)."""
    seen = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        a = np.asarray(a)
        seen.append((a.shape, a.tobytes()))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


def test_les_connecting_iso_decomposes_each_map_once(svd_inputs):
    L, M, N, alphas, betas = random_exact_triple(
        np.random.default_rng(0), length=3, acyclic="both"
    )
    svd_inputs.clear()
    les_connecting_iso(L, M, N, alphas, betas)
    assert len(svd_inputs) == len(set(svd_inputs))


def test_exact_sequence_iso_decomposes_each_map_once(svd_inputs):
    _, _, _, alphas, betas = random_exact_triple(
        np.random.default_rng(1), length=2, acyclic="both"
    )
    alpha, beta = alphas[1], betas[1]
    svd_inputs.clear()
    exact_sequence_iso(alpha, beta, standard_element(alpha.target, "total"))
    assert len(svd_inputs) == len(set(svd_inputs)) == 2


def test_kernel_cokernel_lines_decomposes_h_once(svd_inputs):
    rng = np.random.default_rng(2)
    f = random_invertible_morphism(rng, matrix_backend(), 3)
    identity = f.target
    x = extended_object(f)
    y = extended_object(matrix_morphism(identity, identity, np.eye(3)))
    svd_inputs.clear()
    lines = kernel_cokernel_lines(x, y, matrix_morphism(identity, identity, np.eye(3)), f)
    assert lines.kernel.tau_trivial and lines.cokernel.tau_trivial
    assert len(svd_inputs) == len(set(svd_inputs))
    assert [shape for shape, _ in svd_inputs].count((1, 3, 6)) == 1


# ---------------------------------------------------------------------------
# the two parts of the epsilon split, against a per-frame construction


def _columns(frames, lo, hi):
    """Per fiber f, the columns lo[f]:hi[f] of frames[f], regrouped by
    (lo, hi) within each shape group."""
    if frames.n == 1:
        idx, v = frames.groups[0]
        return Fibers([(idx, v[:, :, int(lo[0]):int(hi[0])])], 1)
    groups = []
    for idx, v in frames.groups:
        for sel, key in partition(lo[idx] * (v.shape[2] + 1) + hi[idx]):
            a, b = divmod(int(key), v.shape[2] + 1)
            sub = idx if len(sel) == len(idx) else idx[sel]
            groups.append((sub, (v if len(sel) == len(idx) else v[sel])[:, :, a:b]))
    return Fibers(groups, frames.n)


def _hstack(*parts):
    return Fibers(
        [(idx, np.concatenate(st, axis=2)) for idx, st in align(*parts)], parts[0].n
    )


def _reference_parts(c, split, low):
    """Frames and compressed differentials of the small and the large part,
    built frame by frame: columns cut per frame, frames stacked per degree,
    each differential compressed between the two subobjects."""
    n = c.backend.n_fibers
    none = np.zeros(n, int)
    large = [none] + [v.select(~m).counts(n) for v, m in zip(split.singular, low)] + [none]
    parts = []
    for small in (True, False):
        subs = []
        for i, obj in enumerate(c.objects):
            b, w = split.boundaries[i].frames, split.coexact[i].frames
            if small:
                frames = _hstack(split.harmonic[i].frames,
                                 _columns(b, large[i], b.sizes(1)),
                                 _columns(w, large[i + 1], w.sizes(1)))
            else:
                frames = _hstack(_columns(b, none, large[i]), _columns(w, none, large[i + 1]))
            subs.append(SubObject(obj, frames))
        diffs = [subs[i + 1].compress(d, subs[i]) for i, d in enumerate(c.diffs)]
        parts.append((subs, diffs))
    return parts


def _assert_parts_match(c, eps):
    small, large, small_subs, large_subs = split_complex(c, eps)
    split = hodge_split(c)
    low = [v.values ** 2 <= eps for v in split.singular]
    reference = _reference_parts(c, split, low)
    for part, subs, (ref_subs, ref_diffs) in zip(
        (small, large), (small_subs, large_subs), reference
    ):
        for obj, sub, ref in zip(part.objects, subs, ref_subs):
            assert obj.dims == ref.space.dims == sub.space.dims
            for f in range(c.backend.n_fibers):
                assert np.array_equal(sub.frames[f], ref.frames[f])
        for d, ref in zip(part.diffs, ref_diffs):
            for f in range(c.backend.n_fibers):
                assert np.array_equal(d.blocks[f], ref.blocks[f])
    return small


@pytest.mark.parametrize("factor", [1.0, 3.0, 1.0 / 3.0])
@pytest.mark.parametrize("with_products", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_parts_match_the_per_frame_construction(seed, with_products, factor):
    rng = np.random.default_rng(seed)
    k = 9
    dims, diffs = _ragged_fibers(rng, k)
    products = _products(rng, dims) if with_products else None
    c = _family_complex(uniform_interval_samples(k), dims, diffs, products)
    _assert_parts_match(c, default_epsilon(c) * factor)


def test_split_parts_group_long_complexes_of_wide_fibers():
    """Three fibers that differ only in the harmonic width of C^0, the first
    digit of the grouping key; the later widths of a length-6 complex with
    fiber dimensions near 300 have radices 2^8 and 2^5 whose product passes
    2^64, so a key that wrapped around would put all three fibers in one
    group."""
    rng = np.random.default_rng(7)
    ranks = [255, 31, 255, 31, 255]
    # C^i = H^i (+) W^i (+) B^i, with B^i the image of d_{i-1}
    harmonic = [[0, 1, 2], [0] * 3, [0] * 3, [0] * 3, [0] * 3, [0] * 3]
    dims = [np.array([h + a + b for h in hs])
            for hs, a, b in zip(harmonic, ranks + [0], [0] + ranks)]
    values = [10.0 ** rng.uniform(-2.0, 2.0, r) for r in ranks]
    diffs = []
    for i, r in enumerate(ranks):
        blocks = []
        for f in range(3):
            m, s = int(dims[i + 1][f]), int(dims[i][f])
            block = np.zeros((m, s), complex)
            # W^i sits after H^i in C^i, B^{i+1} after H^{i+1} and W^{i+1}
            row, col = m - r, harmonic[i][f]
            block[row:, col:col + r] = np.diag(values[i])
            blocks.append(block)
        diffs.append(blocks)
    c = _family_complex(uniform_interval_samples(3), dims, diffs)
    assert max(max(d) for d in dims) > 280
    small = _assert_parts_match(c, default_epsilon(c))
    assert len(set(small.objects[0].dims)) == 3
