"""Symmetries the theory promises: torsion does not see a unitary change
of basis on each fiber, scales with the trace, and does not see how the
elements of the group are numbered.

Each test builds the same complex twice, in two pictures, and compares
the torsion reports to 1e-10.
"""

import numpy as np
import pytest

from l2torsion.backends import (
    HObject,
    Morphism,
    dihedral_group_table,
    family_backend,
    family_morphism,
    family_object,
    group_backend,
    group_object,
    group_ring_morphism,
    uniform_interval_samples,
)
from l2torsion.extcoh import ChainComplexC
from l2torsion.harness import random_acyclic_complex, random_complex_with_cohomology
from l2torsion.torsion import torsion

BOUND = 1e-10


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _ragged_complex(rng, k):
    """A Family complex C^0 -> C^1 -> C^2 on k fibers of uneven dims, with
    cohomology on some fibers: d_0 maps onto r_0 columns of a unitary Q of
    C^1 and d_1 reads r_1 other columns of Q, so d_1 d_0 = 0."""
    dims, d0, d1 = [[], [], []], [], []
    for _ in range(k):
        r0, r1 = (int(x) for x in rng.integers(0, 3, size=2))
        n = [r0 + int(rng.integers(0, 2)), r0 + r1 + int(rng.integers(0, 2)),
             r1 + int(rng.integers(0, 2))]
        n = [max(x, 1) for x in n]
        q = _unitary(rng, n[1])
        a = rng.normal(size=(r0, n[0])) * 10.0 ** rng.uniform(-2, 2, size=(r0, 1))
        b = rng.normal(size=(n[2], r1)) * 10.0 ** rng.uniform(-2, 2, size=(1, r1))
        d0.append(q[:, :r0] @ a)
        d1.append(b @ q[:, r0:r0 + r1].conj().T)
        for deg in range(3):
            dims[deg].append(n[deg])
    backend = family_backend(uniform_interval_samples(k))
    objects = [family_object(backend, tuple(d)) for d in dims]
    return ChainComplexC(tuple(objects), (
        family_morphism(objects[0], objects[1], d0),
        family_morphism(objects[1], objects[2], d1),
    ))


def _same_report(a, b, scale=1.0):
    assert a.combined.log_coeff == pytest.approx(scale * b.combined.log_coeff, rel=0.0, abs=BOUND)
    assert a.betti == pytest.approx([scale * x for x in b.betti], rel=0.0, abs=BOUND)
    assert [v.status for v in a.detclass] == [v.status for v in b.detclass]


@pytest.mark.parametrize("seed", range(4))
def test_unitary_change_of_basis_on_each_fiber(seed):
    """C^i -> U_i C^i with a unitary U_i on every fiber, d_i -> U_{i+1} d_i U_i^*."""
    rng = np.random.default_rng(seed)
    c = _ragged_complex(rng, 9)
    assert len(set(c.objects[1].dims)) > 1
    units = [[_unitary(rng, d) for d in obj.dims] for obj in c.objects]
    diffs = [
        [u @ b @ v.conj().T for u, v, b in zip(units[i + 1], units[i], d.blocks)]
        for i, d in enumerate(c.diffs)
    ]
    moved = ChainComplexC(c.objects, tuple(
        family_morphism(c.objects[i], c.objects[i + 1], blocks) for i, blocks in enumerate(diffs)
    ))
    before, after = torsion(c), torsion(moved)
    assert sum(before.betti) > 0
    _same_report(after, before)


def _rescaled(c, scale):
    """The same complex over the backend with trace scale ``scale``."""
    backend = c.backend.with_scale(scale)
    objects = tuple(HObject(backend, obj.dims, obj.gram) for obj in c.objects)
    return ChainComplexC(objects, tuple(
        Morphism(objects[i], objects[i + 1], d.blocks) for i, d in enumerate(c.diffs)
    ))


@pytest.mark.parametrize("scale", [0.25, 3.0])
@pytest.mark.parametrize("seed", range(3))
def test_trace_scaling(seed, scale):
    """Scaling the trace by s scales log_coeff and the trace-Betti numbers
    by s and leaves the Laplacian spectrum, and so epsilon, as it is."""
    rng = np.random.default_rng(seed)
    for c in (_ragged_complex(rng, 7), random_complex_with_cohomology(rng, 3),
              random_acyclic_complex(rng, 3, max_rank=3)):
        before, after = torsion(c), torsion(_rescaled(c, scale))
        _same_report(after, before, scale)
        assert after.epsilon == before.epsilon


def _group_complex(table, coeffs):
    """The two-term FiniteGroup complex of the group-ring matrix ``coeffs``."""
    backend = group_backend(table)
    kt, ks, _ = coeffs.shape
    source, target = group_object(backend, ks), group_object(backend, kt)
    return ChainComplexC((source, target), (group_ring_morphism(source, target, coeffs),))


@pytest.mark.parametrize("seed", range(4))
def test_relabelling_the_group_elements(seed):
    """A permutation p of the elements of D_4 that fixes the identity,
    applied to the Cayley table (p(g) p(h) = p(gh)) and to the group-ring
    coefficients, changes no torsion."""
    rng = np.random.default_rng(seed)
    table = dihedral_group_table(4)
    order = len(table)
    p = np.concatenate([[0], 1 + rng.permutation(order - 1)])
    relabelled = np.empty_like(table)
    relabelled[np.ix_(p, p)] = p[table]
    kt, ks = (int(x) for x in rng.integers(1, 3, size=2))
    coeffs = rng.normal(size=(kt, ks, order)) + 1j * rng.normal(size=(kt, ks, order))
    # 1 - g for a rotation g: a zero divisor, so the complex has cohomology
    coeffs[0, 0] = 0.0
    coeffs[0, 0, [0, 1]] = [1.0, -1.0]
    moved = np.empty_like(coeffs)
    moved[:, :, p] = coeffs
    before = torsion(_group_complex(table, coeffs))
    after = torsion(_group_complex(relabelled, moved))
    if kt == ks == 1:
        assert sum(before.betti) > 0
    _same_report(after, before)
