"""Finite cell complexes, group-ring boundaries, and combinatorial torsion.

A :class:`CellComplex` stores the cellular chain data of the universal
cover: one lifted cell per cell of the base, boundary entries in the group
ring of the fundamental group (tokens are group-element indices for a
finite group, or integer powers of the generator for the infinite cyclic
group). A :class:`Representation` turns tokens into invertible morphisms on
a coefficient module over one of the backends; applying it to the boundary
entries produces the cochain complex whose torsion is the combinatorial
L2-torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import (
    DEFAULT_RANK_TOL,
    Fibers,
    HObject,
    Morphism,
    add,
    check_group_table,
    circle_samples,
    compose,
    cyclic_group_table,
    expand_group_matrix,
    family_backend,
    family_object,
    fiber_svds,
    group_backend,
    group_object,
    identity_morphism,
    largest_block_norm,
    matrix_backend,
    matrix_object,
    scale_morphism,
)
from .errors import (
    InputValidationError,
    NotAChainComplexError,
    NotUnimodularError,
    ShapeMismatchError,
    UnsupportedCellError,
)
from .extcoh import ChainComplexC
from .torsion import TorsionReport, torsion


# ---------------------------------------------------------------------------
# fundamental group specification


@dataclass(frozen=True)
class PiSpec:
    """Fundamental group: a finite Cayley table or the infinite cyclic group."""

    table: tuple | None = None  # rows of the Cayley table, identity at 0

    @property
    def finite(self) -> bool:
        return self.table is not None

    @property
    def order(self) -> int:
        return len(self.table) if self.finite else 0

    def mul(self, a: int, b: int) -> int:
        if self.finite:
            return int(self.table[a][b])
        return a + b

    def is_element(self, t) -> bool:
        """Whether t is an integer token, in 0..order-1 for a finite group."""
        return _is_int(t) and (not self.finite or 0 <= t < self.order)

    def inv(self, a: int) -> int:
        if not self.finite:
            return -a
        row = self.table[a]
        for b, ab in enumerate(row):
            if ab == 0:
                return b
        raise InputValidationError("element without inverse in Cayley table")


def _is_int(n) -> bool:
    """Whether n is a Python or numpy integer (a bool is not)."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _positive_int(n, what: str) -> int:
    """n as an int; raises :class:`InputValidationError` unless it is a
    positive integer."""
    if not _is_int(n) or n < 1:
        raise InputValidationError(f"{what} must be a positive integer, not {n!r}")
    return int(n)


def finite_pi(table) -> PiSpec:
    arr = check_group_table(table)
    return PiSpec(tuple(tuple(int(x) for x in row) for row in arr))


def infinite_cyclic_pi() -> PiSpec:
    return PiSpec(None)


GroupRingSum = tuple  # tuple of (token, coefficient)


def ring_mul(pi: PiSpec, a: GroupRingSum, b: GroupRingSum) -> GroupRingSum:
    acc: dict = {}
    for ta, ca in a:
        for tb, cb in b:
            t = pi.mul(ta, tb)
            acc[t] = acc.get(t, 0) + ca * cb
    return tuple((t, c) for t, c in acc.items() if c != 0)


def ring_add(a: GroupRingSum, b: GroupRingSum) -> GroupRingSum:
    acc: dict = {}
    for t, c in tuple(a) + tuple(b):
        acc[t] = acc.get(t, 0) + c
    return tuple((t, c) for t, c in acc.items() if c != 0)


# ---------------------------------------------------------------------------
# cell complexes


@dataclass
class CellComplex:
    """Cells with group-ring boundary data over the fundamental group.

    ``cells`` maps a cell id to its dimension, a nonnegative integer
    (insertion order fixes the basis order within each dimension).
    ``boundaries[id]`` lists (face_id, group-ring sum) pairs describing the
    boundary of the chosen lift of the cell, with tokens in ``pi``.
    """

    cells: dict
    boundaries: dict
    pi: PiSpec

    def __post_init__(self) -> None:
        for cid, dim in self.cells.items():
            if not _is_int(dim) or dim < 0:
                raise InputValidationError(f"cell {cid!r} has dimension {dim!r}, not an int >= 0")
        for cid, faces in self.boundaries.items():
            if cid not in self.cells:
                raise InputValidationError(f"boundary given for unknown cell {cid!r}")
            for fid, ring_sum in faces:
                if fid not in self.cells:
                    raise InputValidationError(f"unknown face {fid!r} of {cid!r}")
                if not all(self.pi.is_element(t) for t, _ in ring_sum):
                    raise InputValidationError(
                        f"a token in the boundary of {cid!r} is no group element")
                if self.cells[fid] != self.cells[cid] - 1:
                    raise InputValidationError(
                        f"face {fid!r} of {cid!r} has the wrong dimension"
                    )
        self._check_dd_zero()

    def cells_of_dim(self, d: int) -> list:
        return [cid for cid, cd in self.cells.items() if cd == d]

    @property
    def dimension(self) -> int:
        return max(self.cells.values()) if self.cells else 0

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** d for d in self.cells.values())

    def _check_dd_zero(self) -> None:
        for cid, dim in self.cells.items():
            if dim < 2:
                continue
            acc: dict = {}
            for fid, s in self.boundaries.get(cid, ()):
                for gid, s2 in self.boundaries.get(fid, ()):
                    prod = ring_mul(self.pi, s, s2)
                    acc[gid] = ring_add(acc.get(gid, ()), prod)
            for gid, s in acc.items():
                if s:
                    raise NotAChainComplexError(
                        f"boundary of boundary of {cid!r} is nonzero at {gid!r}"
                    )


def re_lift(k: CellComplex, lifts: dict) -> CellComplex:
    """Change the chosen lifts of cells by group elements.

    Replacing the lift of cell e by g_e times it transforms each boundary
    entry a_{ef} into g_e * a_{ef} * g_f^{-1}; the torsion of a unimodular
    representation is invariant under this change. ``lifts`` maps cells of
    k to group elements g_e; a cell it omits keeps its lift.
    """
    pi = k.pi
    bad = {cid: g for cid, g in lifts.items() if cid not in k.cells or not pi.is_element(g)}
    if bad:
        raise InputValidationError(f"lifts must map cells to group elements, not {bad!r}")
    new_boundaries = {}
    for cid, faces in k.boundaries.items():
        ge = ((lifts.get(cid, 0), 1),)
        out = []
        for fid, s in faces:
            gf_inv = ((pi.inv(lifts.get(fid, 0)), 1),)
            out.append((fid, ring_mul(pi, ring_mul(pi, ge, s), gf_inv)))
        new_boundaries[cid] = tuple(out)
    return CellComplex(dict(k.cells), new_boundaries, pi)


def elementary_subdivision(k: CellComplex, cell_id: str) -> CellComplex:
    """Subdivide a 1-cell into two, inserting a new vertex.

    The edge boundary must consist of one +1 end term and one -1 start term
    (as for any CW 1-cell); the new vertex is lifted with the trivial group
    element, so the two half-edges get boundaries (new - start) and
    (end - new). Cells of dimension 2 and higher that mention the edge see
    it replaced by the sum of the halves. Only 1-cells are subdividable.
    """
    if cell_id not in k.cells:
        raise InputValidationError(f"unknown cell {cell_id!r}")
    if k.cells[cell_id] != 1:
        raise UnsupportedCellError("only 1-dimensional cells can be subdivided")
    pos, neg = [], []
    for fid, s in k.boundaries.get(cell_id, ()):
        for tok, coeff in s:
            if coeff > 0:
                pos.append((fid, tok, coeff))
            else:
                neg.append((fid, tok, coeff))
    if (
        sum(c for _, _, c in pos) != 1
        or sum(c for _, _, c in neg) != -1
        or len(pos) != 1
        or len(neg) != 1
    ):
        raise UnsupportedCellError("edge boundary is not (end - start)")
    v_new = f"{cell_id}.v"
    e_minus = f"{cell_id}.a"
    e_plus = f"{cell_id}.b"
    for nid in (v_new, e_minus, e_plus):
        if nid in k.cells:
            raise InputValidationError(f"cell id {nid!r} already taken")

    cells = {}
    for cid, d in k.cells.items():
        if cid == cell_id:
            cells[v_new] = 0
            cells[e_minus] = 1
            cells[e_plus] = 1
        else:
            cells[cid] = d

    ident = 0
    boundaries = {}
    for cid, faces in k.boundaries.items():
        if cid == cell_id:
            continue
        out = []
        for fid, s in faces:
            if fid == cell_id:
                out.append((e_minus, s))
                out.append((e_plus, s))
            else:
                out.append((fid, s))
        boundaries[cid] = tuple(out)
    (pf, pt, _), (nf, nt, _) = pos[0], neg[0]
    boundaries[e_minus] = ((v_new, ((ident, 1),)), (nf, ((nt, -1),)))
    boundaries[e_plus] = ((pf, ((pt, 1),)), (v_new, ((ident, -1),)))
    return CellComplex(cells, boundaries, k.pi)


# ---------------------------------------------------------------------------
# representations


def generating_set(pi: PiSpec) -> list:
    """Generators of a finite group, greedily: each element outside the
    subgroup of the earlier ones joins, at least doubling it, so there are
    at most log2 |G|; the table of :func:`cyclic_group_table` gets [1]."""
    gens, reached = [], {0}
    for g in range(pi.order):
        if g not in reached:
            gens.append(g)
            todo = list(reached)
            while todo:
                h = todo.pop()
                new = {pi.mul(s, h) for s in gens} - reached
                reached |= new
                todo += new
    return gens


def _deviation(a: Morphism, b: Morphism) -> float:
    """Largest Frobenius norm of a block of a - b."""
    return largest_block_norm(add(a, scale_morphism(b, -1.0)))


def _linear_sum(s: GroupRingSum, image):
    """sum c * image(t) over the terms (t, c) of s, from the first term on."""
    first, *rest = (coeff * image(tok) for tok, coeff in s)
    return sum(rest, first)


@dataclass(eq=False)
class Representation:
    """Action of the fundamental group, extended linearly to the group ring.

    ``sum_blocks(s)`` gives the unchecked fiber blocks (:class:`Fibers`) of
    the action of a nonzero group-ring sum s on ``module``; every token acts
    invertibly. ``generators`` lists tokens whose images certify
    unimodularity: :func:`generating_set` for a finite group, t for the
    infinite cyclic group. The Fuglede-Kadison determinant is multiplicative
    on invertible maps, so unit determinants on generators give unit
    determinants on the whole group.
    """

    pi: PiSpec
    module: HObject
    sum_blocks: object
    generators: tuple
    descriptor: dict = field(default_factory=dict)

    def image(self, token: int) -> Morphism:
        return Morphism(self.module, self.module, self.sum_blocks(((token, 1),)))

    def check_relations(self) -> None:
        """Raise :class:`InputValidationError` unless the images obey the
        group law within 1e-10 (relative to max(1, |g(a)|) for g(ab)). For
        a finite group, g(e) = 1 and g(ab) = g(a) g(b) for a in
        :func:`generating_set` and every b imply the law for every pair."""
        if self.pi.finite:
            images = [self.image(g) for g in range(self.pi.order)]
            if _deviation(images[0], identity_morphism(images[0].source)) > 1e-10:
                raise InputValidationError("the identity element does not act as 1")
            for a in generating_set(self.pi):
                ga, size = images[a], max(1.0, largest_block_norm(images[a]))
                for b, gb in enumerate(images):
                    if _deviation(images[self.pi.mul(a, b)], compose(ga, gb)) > 1e-10 * size:
                        raise InputValidationError(
                            f"representation violates the group law at ({a},{b})"
                        )
        else:
            t, ti = self.image(1), self.image(-1)
            if _deviation(compose(t, ti), identity_morphism(t.source)) > 1e-10:
                raise InputValidationError("images of t and t^-1 are not inverse")

    def unimodular_defect(self) -> float:
        """max |log Fuglede-Kadison determinant| over the generator images."""
        worst = 0.0
        for g in self.generators:
            m = self.image(g)
            svd, w = fiber_svds(m, vectors=False), m.backend.fiber_weights
            if svd.kernel_mass(w, m.source.dim_array) > 1e-10:
                raise InputValidationError(f"image of token {g} is singular")
            worst = max(worst, abs(svd.log_det(w)))
        return worst

    @property
    def unimodular(self) -> bool:
        return self.unimodular_defect() < 1e-8


def matrix_representation(pi: PiSpec, images: dict | list,
                          descriptor: dict | None = None) -> Representation:
    """Matrix-backend representation, with the trace of unit scale.

    For a finite group, ``images`` is a list of matrices indexed by element;
    for the infinite cyclic group, ``images`` maps token 1 to the image of t
    (powers and inverses are derived).
    """
    backend = matrix_backend()
    if pi.finite:
        mats = [np.asarray(m, complex) for m in images]
        if len(mats) != pi.order:
            raise InputValidationError("need one image per group element")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise ShapeMismatchError(f"every image must be a {n} x {n} matrix")
        obj = matrix_object(backend, n)

        def sum_blocks(s: GroupRingSum) -> Fibers:
            return Fibers.stack(_linear_sum(s, mats.__getitem__)[None])

        return Representation(pi, obj, sum_blocks, tuple(generating_set(pi)),
                              descriptor or {})
    t = np.asarray(images[1] if isinstance(images, dict) else images, complex)
    n = t.shape[0]
    obj = matrix_object(backend, n)
    t_inv = np.linalg.inv(t)

    def sum_blocks(s: GroupRingSum) -> Fibers:
        return Fibers.stack(_linear_sum(s, lambda tok: np.linalg.matrix_power(
            t if tok >= 0 else t_inv, abs(tok)))[None])

    return Representation(pi, obj, sum_blocks, (1,), descriptor or {})


def regular_representation(pi: PiSpec) -> Representation:
    """Left regular representation of a finite group on l2 of the group, with
    the trace of unit scale."""
    if not pi.finite:
        raise InputValidationError("use circle_regular_representation for t")
    table = np.asarray(pi.table, int)
    backend = group_backend(table)
    obj = group_object(backend, 1)

    def sum_blocks(s: GroupRingSum) -> Fibers:
        # sum c * image(t) has -0.0 at its zeros when every c < 0 (c * 0 is
        # -0.0), where an expansion has +0.0: such a sum expands as -1 * (-s)
        sign = -1 if all(c < 0 for _, c in s) else 1
        coeffs = np.zeros((1, 1, pi.order), complex)
        for tok, coeff in s:
            coeffs[0, 0, tok] += sign * coeff
        return Fibers.stack(sign * expand_group_matrix(backend.group_table, coeffs)[None])

    return Representation(pi, obj, sum_blocks, tuple(generating_set(pi)),
                          {"regular": True})


def circle_regular_representation(grid: int) -> Representation:
    """Regular representation of the infinite cyclic group, realized as the
    function model over the circle on a midpoint sample grid of measure 1.

    t acts fiberwise as multiplication by e^(i theta_j); the midpoint grid
    keeps every fiber of t - 1 invertible.
    """
    grid = _positive_int(grid, "the circle grid")
    samples = circle_samples(grid)
    backend = family_backend(samples)
    obj = family_object(backend, 1)
    phases = np.exp(1j * samples[:, 0])

    def sum_blocks(s: GroupRingSum) -> Fibers:
        return Fibers.stack(_linear_sum(s, phases.__pow__).reshape(-1, 1, 1))

    return Representation(infinite_cyclic_pi(), obj, sum_blocks, (1,),
                          {"regular_s1": {"grid": grid}})


# ---------------------------------------------------------------------------
# the cochain complex and combinatorial torsion


def cochain_complex(k: CellComplex, rep: Representation) -> ChainComplexC:
    """Cochain complex of the cover with coefficients in the module.

    C^i is one copy of the module per i-cell; the differential block from
    the slot of an i-cell e to the slot of an (i+1)-cell E is the image of
    the boundary entry of E at e.
    """
    module = rep.module
    backend = module.backend
    by_dim = [k.cells_of_dim(d) for d in range(k.dimension + 1)]
    objects = [HObject(backend, len(cells) * module.dim_array) for cells in by_dim]

    groups = module.dim_groups()
    diffs = []
    for d in range(k.dimension):
        rows, cols = by_dim[d + 1], by_dim[d]
        stacks = [np.zeros((len(idx), len(rows) * m, len(cols) * m), complex)
                  for idx, m in groups]
        for ri, big in enumerate(rows):
            entries = {fid: s for fid, s in _merged_boundary(k, big)}
            for ci, small in enumerate(cols):
                s = entries.get(small)
                if not s:
                    continue
                img = rep.sum_blocks(s)
                for (idx, m), st in zip(groups, stacks):
                    st[:, ri * m : (ri + 1) * m, ci * m : (ci + 1) * m] = img.take(idx)
        blocks = Fibers([(idx, st) for (idx, _), st in zip(groups, stacks)], backend.n_fibers)
        diffs.append(Morphism(objects[d], objects[d + 1], blocks))
    # relations hold symbolically in the group ring; a differential whose
    # image happens to be numerically tiny must not shrink the d^2 = 0 bound
    norm = max((d.norm() for d in diffs), default=0.0)
    return ChainComplexC(tuple(objects), tuple(diffs), check_norm=norm)


def _merged_boundary(k: CellComplex, cid: str):
    acc: dict = {}
    order: list = []
    for fid, s in k.boundaries.get(cid, ()):
        if fid not in acc:
            acc[fid] = ()
            order.append(fid)
        acc[fid] = ring_add(acc[fid], s)
    return [(fid, acc[fid]) for fid in order]


def combinatorial_torsion(
    k: CellComplex,
    rep: Representation,
    sigma_log: float = 0.0,
    epsilon: float | None = None,
    tol: float = DEFAULT_RANK_TOL,
) -> TorsionReport:
    """Combinatorial L2-torsion of the complex with the given coefficients.

    ``sigma_log`` scales the volume element of the module by
    exp(sigma_log). Raised to the Euler characteristic chi, it is the volume
    element of det(C) that :func:`l2torsion.torsion.torsion` takes, as its
    log-coefficient chi * sigma_log. The representation must be unimodular
    (all generator images of unit Fuglede-Kadison determinant); then the
    result does not depend on the chosen cell lifts, and for Euler
    characteristic zero it does not depend on the volume element either.
    """
    defect = rep.unimodular_defect()
    if defect >= 1e-8:
        raise NotUnimodularError(
            f"generator determinant defect {defect:.2e} exceeds 1e-8"
        )
    c = cochain_complex(k, rep)
    return torsion(c, k.euler_characteristic * sigma_log, epsilon=epsilon, tol=tol)


@dataclass
class SubdivisionReport:
    passed: bool
    logs: list
    max_deviation: float


def subdivision_invariance_check(
    k: CellComplex,
    rep: Representation,
    depth: int,
    agree_tol: float = 1e-9,
) -> SubdivisionReport:
    """Compare torsion across ``depth`` >= 1 rounds of 1-cell subdivisions drawn with seed 0."""
    depth = _positive_int(depth, "the subdivision depth")
    rng = np.random.default_rng(0)
    logs = []
    current = k
    for _ in range(depth + 1):
        report = combinatorial_torsion(current, rep)
        if report.scalar_value is None:
            logs.append(report.combined.log_coeff)
        else:
            logs.append(math.log(report.scalar_value))
        edges = [cid for cid, d in current.cells.items() if d == 1]
        current = elementary_subdivision(current, edges[rng.integers(len(edges))])
    devs = [abs(x - logs[0]) for x in logs[1:]]
    return SubdivisionReport(max(devs) <= agree_tol, logs, max(devs))


# ---------------------------------------------------------------------------
# bundled example complexes


def circle_complex() -> CellComplex:
    """Circle with one vertex and one edge; boundary of the edge is (t - 1)v."""
    pi = infinite_cyclic_pi()
    cells = {"v": 0, "e": 1}
    boundaries = {"e": (("v", ((1, 1), (0, -1))),)}
    return CellComplex(cells, boundaries, pi)


def circle_complex_two_cells() -> CellComplex:
    """Circle with two vertices and two edges (the subdivided structure)."""
    pi = infinite_cyclic_pi()
    cells = {"v0": 0, "v1": 0, "a": 1, "b": 1}
    boundaries = {
        "a": (("v1", ((0, 1),)), ("v0", ((0, -1),))),
        "b": (("v0", ((1, 1),)), ("v1", ((0, -1),))),
    }
    return CellComplex(cells, boundaries, pi)


def torus_quotient_complex(p: int = 3) -> CellComplex:
    """Torus cell structure (1 vertex, 2 edges, 1 face) with the fundamental
    group truncated to the finite abelian quotient (Z/p)^2.

    Tokens encode (a, b) as a * p + b; the relation dd = 0 for the standard
    face boundary (1 - y) a + (x - 1) b needs only commutativity, which the
    quotient preserves.
    """
    n = _positive_int(p, "p") ** 2

    def mul(u, v):
        return ((u // p + v // p) % p) * p + (u % p + v % p) % p

    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    pi = finite_pi(table)
    # 1 % p: for p = 1 the generators are the identity
    x = (1 % p) * p
    y = 1 % p
    cells = {"v": 0, "a": 1, "b": 1, "F": 2}
    boundaries = {
        "a": (("v", ((x, 1), (0, -1))),),
        "b": (("v", ((y, 1), (0, -1))),),
        "F": (("a", ((0, 1), (y, -1))), ("b", ((x, 1), (0, -1)))),
    }
    return CellComplex(cells, boundaries, pi)


def lens_complex(p: int, q: int) -> CellComplex:
    """Lens space L(p, q) with the standard one-cell-per-dimension structure.

    Boundaries: d e1 = (t - 1) e0, d e2 = (1 + t + ... + t^{p-1}) e1,
    d e3 = (t^{q*} - 1) e2 with q* the inverse of q mod p.
    """
    if math.gcd(_positive_int(p, "p"), q) != 1:
        raise InputValidationError("p and q must be coprime")
    qstar = pow(q, -1, p)
    pi = finite_pi(cyclic_group_table(p))
    cells = {"e0": 0, "e1": 1, "e2": 2, "e3": 3}
    norm = tuple((j, 1) for j in range(p))
    boundaries = {
        "e1": (("e0", ((1 % p, 1), (0, -1))),),
        "e2": (("e1", norm),),
        "e3": (("e2", ((qstar, 1), (0, -1))),),
    }
    return CellComplex(cells, boundaries, pi)


def cyclic_character_representation(p: int, k: int = 1) -> Representation:
    """One-dimensional representation of Z/p sending the generator to
    exp(2 pi i k / p)."""
    pi = finite_pi(cyclic_group_table(p))
    zeta = np.exp(2j * np.pi * k / p)
    images = [np.array([[zeta**j]]) for j in range(p)]
    return matrix_representation(pi, images, descriptor={"character": [p, k]})


def circle_unit_representation(lam: complex) -> Representation:
    """Matrix representation of the infinite cyclic group, t -> lam in U(1)."""
    if abs(abs(lam) - 1.0) > 1e-12:
        raise NotUnimodularError("the image of t must lie on the unit circle")
    return matrix_representation(
        infinite_cyclic_pi(), {1: np.array([[lam]])},
        descriptor={"t": [lam.real, lam.imag]},
    )
