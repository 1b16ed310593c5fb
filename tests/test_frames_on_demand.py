"""torsion() builds only what it reads.

A complex with one differential needs no Hodge frame: the word and the
Betti numbers read the frame widths off the ranks, and the large part of
the epsilon split is cut from the standardized image and co-image frames on
the fibers that hold one of its columns. Frames are built when a caller
reads them, once per split. A representation certifies unimodularity on
the images of its generators.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from l2torsion.backends import (
    SubObject,
    family_backend,
    family_morphism,
    family_object,
    uniform_interval_samples,
)
from l2torsion.cellular import (
    circle_complex,
    circle_regular_representation,
    cochain_complex,
    generating_set,
    lens_complex,
    re_lift,
    regular_representation,
    torus_quotient_complex,
)
from l2torsion.extcoh import ChainComplexC, cohomology
from l2torsion.harness import family_multiplication_map
from l2torsion.torsion import hodge_split, split_complex, torsion, torsion_acyclic

torsion_module = sys.modules["l2torsion.torsion"]
GRID = 1024


def _divergent():
    samples = uniform_interval_samples(GRID)
    with np.errstate(over="ignore", under="ignore"):
        values = np.exp(-1.0 / samples[:, 0])
    d = family_multiplication_map(values, samples)
    return ChainComplexC((d.source, d.target), (d,))


def _circle():
    k = re_lift(circle_complex(), {"v": 2, "e": -1})
    return cochain_complex(k, circle_regular_representation(GRID))


def _ragged_one_differential(rng, k=9):
    """C^0 -> C^1 on k fibers of ragged ranks, with singular values over
    six decades and positive definite products on every other fiber."""
    dims0 = rng.integers(1, 4, size=k)
    dims1 = rng.integers(1, 4, size=k)
    blocks = []
    for m, n in zip(dims1, dims0):
        r = int(rng.integers(0, min(m, n) + 1))
        u = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :r]
        v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :r]
        blocks.append(u @ np.diag(10.0 ** rng.uniform(-3, 3, r)) @ v.T)

    def positive(d):
        a = rng.normal(size=(d, d))
        return a @ a.T + np.eye(d)

    backend = family_backend(uniform_interval_samples(k))
    src, tgt = (family_object(backend, dims, [positive(d) if f % 2 else None
                                              for f, d in enumerate(dims)])
                for dims in (dims0, dims1))
    d = family_morphism(src, tgt, blocks)
    return ChainComplexC((src, tgt), (d,))


@pytest.fixture
def built(monkeypatch):
    """Counts of np.linalg.qr calls and SubObject constructions."""
    calls = Counter()

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(np.linalg, "qr", "qr")
    counted(SubObject, "__post_init__", "SubObject")
    return calls


@pytest.mark.parametrize("make", [_circle, _divergent], ids=["circle", "divergent"])
@pytest.mark.parametrize("query", [torsion, cohomology])
def test_family_grid_complexes_build_no_frame(make, query, built):
    c = make()
    built.clear()
    query(c)
    assert built == Counter()


@pytest.mark.parametrize("seed", range(3))
def test_widths_read_off_the_ranks_are_those_of_the_frames(seed):
    split = hodge_split(_ragged_one_differential(np.random.default_rng(seed)))
    for (h, b, w), space, subs in zip(split.widths, split.harmonic_spaces, zip(
            split.harmonic, split.boundaries, split.coexact)):
        assert np.array_equal(space.dim_array, h)
        for sub, width in zip(subs, (h, b, w)):
            assert np.array_equal(sub.space.dim_array, width)


@pytest.fixture
def split_parts(monkeypatch):
    """What ``_split_parts`` returns from now on."""
    seen = []
    real = torsion_module._split_parts

    def recorded(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(torsion_module, "_split_parts", recorded)
    return seen


@pytest.mark.parametrize("make", [
    _circle, _divergent, lambda: _ragged_one_differential(np.random.default_rng(1)),
], ids=["circle", "divergent", "ragged_products"])
@pytest.mark.parametrize("factor", [None, 1e-3, 3.0])
def test_large_part_stacks_cover_only_fibers_with_a_large_column(make, factor, split_parts):
    """Without a small part, the stacks of the large part cover exactly the
    fibers where the large subcomplex of ``split_complex`` has a column,
    and its Laplacian check agrees with ``torsion_acyclic`` of that
    subcomplex."""
    c = make()
    eps = None if factor is None else torsion(c).epsilon * factor
    split_parts.clear()
    report = torsion(c, epsilon=eps)
    (fibers, groups, parts, widths), = split_parts
    _, large, _, _ = split_complex(c, report.epsilon)
    want = np.flatnonzero(np.any([o.dim_array for o in large.objects], axis=0))
    assert np.array_equal(fibers, want)
    assert sorted(np.concatenate([np.zeros(0, int)] + groups).tolist()) == list(range(len(fibers)))
    for stacks in parts[0][0] + parts[0][1]:
        assert sum(len(s) for s in stacks) == len(fibers)
    for w, o in zip(widths, large.objects):
        assert np.array_equal(w, o.dim_array[fibers])
    if len(fibers):
        want_log = torsion_acyclic(large, cross_check=False)
        assert report.checks["large_part_formulas"] == pytest.approx(
            abs(report.log_rho_large - want_log), abs=1e-12)


def test_the_divergent_large_part_leaves_fibers_out(split_parts):
    torsion(_divergent())
    (fibers, _, _, _), = split_parts
    assert 0 < len(fibers) < GRID


@pytest.mark.parametrize("pi", [
    lens_complex(48, 1).pi, torus_quotient_complex(3).pi,
], ids=["Z/48", "(Z/3)^2"])
def test_regular_representation_certifies_generators_only(pi, monkeypatch):
    rep = regular_representation(pi)
    assert rep.generators == tuple(generating_set(pi))
    made = []
    real = rep.sum_blocks
    monkeypatch.setattr(rep, "sum_blocks",
                        lambda s: made.extend(tok for tok, _ in s) or real(s))
    assert rep.unimodular_defect() < 1e-8
    assert made == list(generating_set(pi))
    assert len(made) < pi.order


def test_circle_certifies_t_alone():
    assert circle_regular_representation(64).generators == (1,)

