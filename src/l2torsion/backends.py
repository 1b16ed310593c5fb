"""Concrete finite von Neumann categories with trace.

Three backends are supported:

* ``Matrix`` -- finite dimensional complex vector spaces with the usual
  matrix trace (times a global ``scale``).
* ``FiniteGroup`` -- finitely generated free modules over the group von
  Neumann algebra of a finite group G. Morphisms are matrices over the
  group ring acting by left multiplication on copies of l2(G); internally
  they are expanded through the regular representation to complex blocks
  of size rank*|G|, and the canonical trace is scale/|G| times the complex
  trace.
* ``Family`` -- measurable families of finite dimensional Hilbert spaces
  over a finite sample set {(xi_j, w_j)}; the trace integrates fiber
  traces against the weights.

All three reduce to the same internal picture: a morphism is a family of
complex blocks, one per "fiber", each fiber carrying a positive trace
weight. The blocks are stored as shape groups (:class:`Fibers`): the
fibers of one block shape form one stacked array, so every numerical
operation downstream (spectra, determinants, frames) is one numpy call per
group rather than one Python iteration per fiber.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import (
    BackendMismatchError,
    InputValidationError,
    ShapeMismatchError,
)

DEFAULT_RANK_TOL = 1e-10
_COMPLEX = np.dtype(complex)


def check_rank_tol(tol: float) -> None:
    """Raise unless the relative rank cut tol lies in (0, 1); nan does not."""
    if not 0.0 < tol < 1.0:
        raise InputValidationError(f"the rank tolerance must lie in (0, 1), not {tol}")


class BackendKind(str, Enum):
    MATRIX = "Matrix"
    FINITE_GROUP = "FiniteGroup"
    FAMILY = "Family"


def check_group_table(table) -> np.ndarray:
    """The Cayley table as an n x n integer array; raises
    :class:`InputValidationError` unless it is the table of a group on the
    elements 0 .. n-1 (n >= 1) with its identity at index 0."""
    table = _integers(table, "Cayley table entries")
    n = len(table) if table.ndim else 0
    if not n or table.shape != (n, n):
        raise InputValidationError("Cayley table must be square and nonempty")
    if table.min() < 0 or table.max() >= n:
        raise InputValidationError("Cayley table entries must lie in 0 .. n-1")
    if not np.array_equal(table[0], np.arange(n)) or not np.array_equal(
        table[:, 0], np.arange(n)
    ):
        raise InputValidationError("Cayley table identity must sit at index 0")
    for row in table:
        if len(set(row.tolist())) != n:
            raise InputValidationError("Cayley table rows must be permutations")
    for col in table.T:
        if len(set(col.tolist())) != n:
            raise InputValidationError("Cayley table columns must be permutations")
    # associativity: (ab)c == a(bc)
    for a in range(n):
        if not np.array_equal(table[table[a]], table[a][table]):
            raise InputValidationError("Cayley table is not associative")
    return table


@dataclass(eq=False)
class CategoryBackend:
    """Trace conventions and fiber structure for one of the three backends."""

    kind: BackendKind
    scale: float = 1.0
    group_table: np.ndarray | None = None
    sample_points: np.ndarray | None = None  # rows (xi_j, w_j)

    def __post_init__(self) -> None:
        self._weights = None
        self.kind = BackendKind(self.kind)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InputValidationError("trace scale must be finite and positive")
        if self.kind is BackendKind.FINITE_GROUP:
            if self.group_table is None:
                raise InputValidationError("FiniteGroup backend needs a Cayley table")
            self.group_table = check_group_table(self.group_table)
        if self.kind is BackendKind.FAMILY:
            if self.sample_points is None:
                raise InputValidationError("Family backend needs sample points")
            pts = np.asarray(self.sample_points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise InputValidationError("sample points must be rows (xi, w)")
            if not len(pts):
                raise InputValidationError("Family backend needs at least one sample")
            if not np.all(np.isfinite(pts)):
                raise InputValidationError("sample points must be finite")
            if np.any(pts[:, 1] <= 0):
                raise InputValidationError("sample weights must be positive")
            self.sample_points = pts

    @property
    def group_order(self) -> int:
        if self.group_table is None:
            raise BackendMismatchError("only a FiniteGroup backend has a group order")
        return self.group_table.shape[0]

    @property
    def n_fibers(self) -> int:
        if self.kind is BackendKind.FAMILY:
            return self.sample_points.shape[0]
        return 1

    @property
    def fiber_weights(self) -> np.ndarray:
        """Trace weight per internal fiber (already includes ``scale``);
        computed once, read-only."""
        if self._weights is None:
            if self.kind is BackendKind.MATRIX:
                w = np.array([self.scale])
            elif self.kind is BackendKind.FINITE_GROUP:
                w = np.array([self.scale / self.group_order])
            else:
                w = self.scale * self.sample_points[:, 1]
            w.flags.writeable = False
            self._weights = w
        return self._weights

    def with_scale(self, scale: float) -> "CategoryBackend":
        return CategoryBackend(
            self.kind, scale, self.group_table, self.sample_points
        )

    def same_as(self, other: "CategoryBackend") -> bool:
        if self is other:
            return True
        if self.kind is not other.kind or self.scale != other.scale:
            return False
        if self.kind is BackendKind.FINITE_GROUP:
            return np.array_equal(self.group_table, other.group_table)
        if self.kind is BackendKind.FAMILY:
            return np.array_equal(self.sample_points, other.sample_points)
        return True


def matrix_backend(scale: float = 1.0) -> CategoryBackend:
    return CategoryBackend(BackendKind.MATRIX, scale)


def group_backend(table: Iterable, scale: float = 1.0) -> CategoryBackend:
    return CategoryBackend(BackendKind.FINITE_GROUP, scale, table)


def family_backend(samples: Iterable, scale: float = 1.0) -> CategoryBackend:
    return CategoryBackend(
        BackendKind.FAMILY, scale, sample_points=np.asarray(samples, float)
    )


def cyclic_group_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def dihedral_group_table(n: int) -> np.ndarray:
    """Dihedral group of order 2n; elements (r, s) encoded as s*n + r."""
    order = 2 * n
    table = np.zeros((order, order), dtype=int)
    for a in range(order):
        ra, sa = a % n, a // n
        for b in range(order):
            rb, sb = b % n, b // n
            # (ra, sa) * (rb, sb): reflection flips the rotation sign
            r = (ra + rb) % n if sa == 0 else (ra - rb) % n
            table[a, b] = ((sa + sb) % 2) * n + r
    return table


def uniform_interval_samples(n: int) -> np.ndarray:
    """Midpoint quadrature grid on (0, 1] with total measure 1."""
    pts = (np.arange(n) + 0.5) / n
    w = np.full(n, 1.0 / n)
    return np.stack([pts, w], axis=1)


def circle_samples(n: int) -> np.ndarray:
    """Midpoint grid of angles on the circle with normalized measure 1.

    Midpoints avoid theta = 0, so fiber operators like z - 1 stay
    injective fiberwise on the grid.
    """
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    w = np.full(n, 1.0 / n)
    return np.stack([theta, w], axis=1)


# ---------------------------------------------------------------------------
# group ring expansion helpers


def expand_group_matrix(table: np.ndarray, ring_matrix: np.ndarray) -> np.ndarray:
    """Expand a (kt, ks, |G|) group-ring matrix to the kt|G| x ks|G| complex
    block of left multiplication on l2(G): entry (g h, h) of block (i, j) is
    the coefficient of g in entry (i, j), added into +0.0."""
    ring_matrix = np.asarray(ring_matrix, dtype=complex)
    kt, ks, n = ring_matrix.shape
    if n != table.shape[0]:
        raise ShapeMismatchError("group-ring coefficient length != group order")
    # factor[k, h] is the g with g h = k
    factor = np.empty((n, n), dtype=int)
    factor[table, np.arange(n)] = np.arange(n)[:, None]
    out = np.zeros((kt, n, ks, n), dtype=complex)
    out += ring_matrix[:, :, factor].transpose(0, 2, 1, 3)
    return out.reshape(kt * n, ks * n)


def extract_group_coeffs(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand_group_matrix` (reads the identity columns)."""
    n = table.shape[0]
    if block.shape[0] % n or block.shape[1] % n:
        raise ShapeMismatchError(f"block of shape {block.shape} over a group of order {n}")
    kt, ks = block.shape[0] // n, block.shape[1] // n
    return block[:, ::n].reshape(kt, n, ks).transpose(0, 2, 1).astype(complex, order="C")


# ---------------------------------------------------------------------------
# stacked fibers


_RANGES: dict = {}


def fiber_range(n: int) -> np.ndarray:
    """np.arange(n), shared: the index array of a group of all n fibers.

    Sharing it keeps one array per fiber count and lets :func:`align`
    recognize equal groupings by identity.
    """
    r = _RANGES.get(n)
    if r is None:
        r = _RANGES[n] = np.arange(n)
        r.flags.writeable = False
    return r


def partition(keys: np.ndarray) -> list:
    """[(idx, key)]: the positions of each distinct key, ascending, for the
    keys in ascending order; [] for no keys.

    One stable argsort of the keys orders the positions by key and, within
    a key, ascending; the groups are cut where the sorted key changes.
    """
    n = len(keys)
    if not n:
        return []
    if n == 1 or (keys == keys[0]).all():
        return [(fiber_range(n), keys[0])]
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return list(zip(np.split(order, cuts), ordered[np.concatenate(([0], cuts))]))


def _merge(groups: list) -> list:
    """Groups of one shape joined into one, indices ascending."""
    by_shape: dict = {}
    for idx, stack in groups:
        by_shape.setdefault(stack.shape[1:], []).append((idx, stack))
    out = []
    for parts in by_shape.values():
        if len(parts) == 1:
            out.append(parts[0])
            continue
        idx = np.concatenate([i for i, _ in parts])
        order = np.argsort(idx, kind="stable")
        out.append((idx[order], np.concatenate([s for _, s in parts])[order]))
    return out


class Fibers(Sequence):
    """One array per fiber, stored as shape groups.

    ``groups`` is a tuple of ``(idx, stack)`` pairs, one per distinct fiber
    shape: ``idx`` holds the ascending indices of the fibers of that shape
    and ``stack`` their arrays as one array of shape ``(len(idx),) + shape``.
    The groups partition the ``n`` fibers. Every numerical operation works
    on whole stacks, one numpy call per group; indexing gives the array of
    one fiber, a read-only view for callers outside those operations.
    """

    __slots__ = ("groups", "n", "_where")

    def __init__(self, groups, n: int):
        if len(groups) != 1 or not len(groups[0][0]):
            groups = [g for g in groups if len(g[0])]
            if len(groups) > 1:
                groups = _merge(groups)
        self.groups = tuple(groups)
        self.n = n
        self._where = None

    @classmethod
    def stack(cls, stack: np.ndarray) -> "Fibers":
        """Every fiber in one group: fiber f holds ``stack[f]``."""
        return cls(((fiber_range(len(stack)), stack),), len(stack))

    @classmethod
    def from_list(cls, arrays) -> "Fibers":
        """Group a per-fiber sequence of arrays by shape."""
        if len(arrays) == 1:
            return cls.stack(arrays[0][None].copy())
        by_shape: dict = {}
        for f, a in enumerate(arrays):
            by_shape.setdefault(a.shape, []).append(f)
        if len(by_shape) == 1:
            return cls.stack(np.stack(arrays))
        return cls(
            [(np.array(fs), np.stack([arrays[f] for f in fs])) for fs in by_shape.values()],
            len(arrays),
        )

    def _locate(self) -> tuple:
        """(group, position) of every fiber."""
        if self._where is None:
            group, pos = np.empty(self.n, np.intp), np.empty(self.n, np.intp)
            for g, (idx, _) in enumerate(self.groups):
                group[idx] = g
                pos[idx] = np.arange(len(idx))
            self._where = (group, pos)
        return self._where

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, f):
        if len(self.groups) == 1:  # then the group's indices are range(n)
            return self.groups[0][1][f]
        group, pos = self._locate()
        return self.groups[group[f]][1][pos[f]]

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The stacked arrays of the fibers ``idx``, which share one shape."""
        if len(self.groups) == 1:  # then the group's indices are range(n)
            (own, stack), pos = self.groups[0], idx
        else:
            group, where = self._locate()
            (own, stack), pos = self.groups[group[idx[0]]], where[idx]
        if own is idx or (len(own) == len(idx) and np.array_equal(own, idx)):
            return stack
        return stack[pos]

    def map(self, fn) -> "Fibers":
        """``fn`` applied to every stack."""
        return Fibers([(idx, fn(s)) for idx, s in self.groups], self.n)

    def sizes(self, axis: int) -> np.ndarray:
        """Extent of every fiber's array along ``axis``."""
        out = np.empty(self.n, int)
        if len(self.groups) == 1:
            out.fill(self.groups[0][1].shape[axis + 1])
            return out
        for idx, s in self.groups:
            out[idx] = s.shape[axis + 1]
        return out


def align(*parts: Fibers) -> list:
    """[(idx, [stack of each part])] over the common refinement of the
    shape groups of several Fibers of the same fibers."""
    first = parts[0].groups
    if len(first) == 1:  # the common case: every part is one group
        idx = first[0][0]
        for p in parts[1:]:
            if len(p.groups) != 1 or p.groups[0][0] is not idx:
                break
        else:
            return [(idx, [p.groups[0][1] for p in parts])]
    if all(
        len(p.groups) == len(first)
        and all(a is b or np.array_equal(a, b) for (a, _), (b, _) in zip(p.groups, first))
        for p in parts[1:]
    ):
        return [(idx, [p.groups[k][1] for p in parts]) for k, (idx, _) in enumerate(first)]
    key = np.zeros(parts[0].n, np.intp)
    for p in parts:
        key = key * len(p.groups) + p._locate()[0]
    return [(idx, [p.take(idx) for p in parts]) for idx, _ in partition(key)]


def _eye_stack(k: int, d: int) -> np.ndarray:
    """k copies of the d x d identity."""
    return np.repeat(np.eye(d, dtype=complex)[None], k, axis=0)


def hermitian(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(stack, -1, -2).conj()


def frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, reduced with hypot, so it
    neither overflows nor underflows."""
    return np.hypot.reduce(np.abs(stack).reshape(len(stack), -1), axis=1, initial=0.0)


@dataclass
class FiberValues:
    """Values attached to fibers, flat: ``values[k]`` belongs to fiber
    ``fiber[k]``; within a fiber they keep their column order."""

    values: np.ndarray
    fiber: np.ndarray

    def select(self, mask: np.ndarray) -> "FiberValues":
        return FiberValues(self.values[mask], self.fiber[mask])

    def counts(self, n: int) -> np.ndarray:
        """Number of values of each of the n fibers."""
        return np.bincount(self.fiber, minlength=n)

    def log_det(self, weights: np.ndarray) -> float:
        """Sum of the logs of the values, each times its fiber's weight: a
        log Fuglede-Kadison determinant, which needs no order."""
        return float(np.dot(weights[self.fiber], np.log(self.values)))


# ---------------------------------------------------------------------------
# objects and morphisms


def _as_gram(dims: np.ndarray, products) -> Fibers | None:
    """The product operators as Fibers, identity on standard fibers, or None
    when every fiber is standard."""
    if isinstance(products, Fibers):
        gram = products
    else:
        if len(products) != len(dims):
            raise ShapeMismatchError("need one product operator per fiber")
        if all(p is None for p in products):
            return None
        mats = []
        for d, p in zip(dims.tolist(), products):
            p = np.eye(d, dtype=complex) if p is None else np.asarray(p, dtype=complex)
            if p.shape != (d, d):
                raise ShapeMismatchError("product operator shape mismatch")
            mats.append(p)
        gram = Fibers.from_list(mats)
    for idx, p in gram.groups:
        if p.shape[1:] != (p.shape[1], p.shape[1]) or np.any(dims[idx] != p.shape[1]):
            raise ShapeMismatchError("product operator shape mismatch")
        if not np.isfinite(p).all():
            raise InputValidationError("product operators must be finite")
        if not p.shape[1]:
            continue
        size = np.maximum(np.linalg.norm(p, axis=(1, 2)), 1.0)
        if np.any(np.linalg.norm(p - hermitian(p), axis=(1, 2)) > 1e-10 * size):
            raise InputValidationError("product operator must be self-adjoint")
        if np.linalg.eigvalsh(p).min() <= DEFAULT_RANK_TOL:
            raise InputValidationError("product operator must be positive definite")
    return gram


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an integer array of their own shape; raises
    :class:`InputValidationError`, naming ``what``, unless they form an
    array of numbers and every entry is an integer (integral floats and
    booleans pass, numeric strings do not)."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nested sequences
        raise InputValidationError(f"{what} must form an array") from None
    if a.dtype.kind in "iu":
        return a.astype(int, copy=False)
    f = a.astype(float) if a.dtype.kind in "bf" else None
    # strings, objects and complex numbers fail, and nan, inf and values
    # past the int64 range fail the first test
    if f is None or not np.all((np.abs(f) < 2.0**63) & (f == np.round(f))):
        raise InputValidationError(f"{what} must be integers")
    return f.astype(int)


class HObject:
    """Object of the category: fibered Hilbert space with admissible product.

    ``dim_array`` holds the internal (expanded) complex fiber dimensions,
    one nonnegative integer per fiber; ``dims`` reads them as a tuple, built
    on each call. ``uniform_dim`` is the common dimension of all fibers, or
    None. The dimensions may be given as any sequence or array of integers
    (integral floats included). ``products`` are fiberwise positive
    definite operators, given per fiber (``None`` means the standard product
    on that fiber) or as :class:`Fibers`; they are kept as the Fibers
    ``gram``, with the identity on standard fibers, or ``gram`` is None
    when every fiber is standard.
    """

    __slots__ = ("backend", "dim_array", "uniform_dim", "gram", "_factors", "_dim_groups")

    def __init__(self, backend: CategoryBackend, dims, products=None) -> None:
        self.backend = backend
        # HObject rejects negative dimensions below
        self.dim_array = dims = _integers(dims, "fiber dimensions").reshape(-1)
        if len(dims) != backend.n_fibers:
            raise ShapeMismatchError("fiber count does not match backend")
        if len(dims) == 1:
            lo = hi = int(dims[0])
        else:
            lo, hi = int(dims.min()), int(dims.max())
        if lo < 0:
            raise InputValidationError("fiber dimensions must be nonnegative")
        self.uniform_dim = lo if lo == hi else None
        self.gram = None if products is None else _as_gram(dims, products)
        self._factors = None
        self._dim_groups = None

    @property
    def dims(self) -> tuple:
        """The fiber dimensions as a tuple of ints."""
        return tuple(self.dim_array.tolist())

    @property
    def dim_tau(self) -> float:
        if len(self.dim_array) == 1:
            return float(self.backend.fiber_weights[0] * self.uniform_dim)
        return float(np.dot(self.backend.fiber_weights, self.dim_array))

    def dim_groups(self) -> list:
        """[(idx, d)]: the fibers of each dimension d."""
        if self.uniform_dim is not None:
            return [(fiber_range(len(self.dim_array)), self.uniform_dim)]
        if self._dim_groups is None:
            self._dim_groups = [(idx, int(d)) for idx, d in partition(self.dim_array)]
        return self._dim_groups

    def factors(self):
        """(S, S^-1) as Fibers, with S upper triangular and S^H S = P, so
        that x -> Sx orthonormalizes; None when every fiber is standard."""
        if self.gram is None:
            return None
        if self._factors is None:
            upper = self.gram.map(lambda p: hermitian(np.linalg.cholesky(p)))
            self._factors = (upper, upper.map(np.linalg.inv))
        return self._factors

    def product_fibers(self) -> Fibers:
        """The product operators as Fibers, identities included."""
        if self.gram is not None:
            return self.gram
        return Fibers([(idx, _eye_stack(len(idx), d)) for idx, d in self.dim_groups()],
                      len(self.dim_array))

    def product_matrix(self, f: int) -> np.ndarray:
        if self.gram is None:
            return np.eye(int(self.dim_array[f]), dtype=complex)
        return self.gram[f]

    def std_factor(self, f: int) -> np.ndarray:
        """Upper-triangular S with S^H S = P; x -> Sx orthonormalizes fiber f."""
        if self.gram is None:
            return np.eye(int(self.dim_array[f]), dtype=complex)
        return self.factors()[0][f]

    def with_products(self, products) -> "HObject":
        return HObject(self.backend, self.dim_array, products)

    def log_det_product(self) -> float:
        """log Det_tau of the product operator relative to standard coordinates."""
        if self.gram is None:
            return 0.0
        w = self.backend.fiber_weights
        return float(sum(
            np.dot(w[idx], np.linalg.slogdet(p)[1]) for idx, p in self.gram.groups
        ))

    def same_space(self, other: "HObject") -> bool:
        """Whether other has the same backend and fiber dimensions."""
        if not self.backend.same_as(other.backend):
            return False
        # a shared backend fixes the fiber count
        if self.uniform_dim is not None or other.uniform_dim is not None:
            return self.uniform_dim == other.uniform_dim
        a, b = self.dim_array, other.dim_array
        return a is b or bool((a == b).all())


def matrix_object(backend: CategoryBackend, n: int, product=None) -> HObject:
    if backend.kind is not BackendKind.MATRIX:
        raise BackendMismatchError("matrix_object needs a Matrix backend")
    prods = None if product is None else (np.asarray(product, complex),)
    return HObject(backend, (n,), prods)


def group_object(backend: CategoryBackend, rank: int) -> HObject:
    """rank copies of l2(G) with the standard product."""
    if backend.kind is not BackendKind.FINITE_GROUP:
        raise BackendMismatchError("group_object needs a FiniteGroup backend")
    return HObject(backend, (rank * backend.group_order,))


def family_object(backend: CategoryBackend, dims, products=None) -> HObject:
    if backend.kind is not BackendKind.FAMILY:
        raise BackendMismatchError("family_object needs a Family backend")
    if np.isscalar(dims):
        dims = np.full(backend.n_fibers, dims)
    return HObject(backend, dims, products)


def _shape_groups(target: HObject, source: HObject) -> list:
    """[(idx, (m, n))]: the fibers of each block shape m x n of the maps
    from source to target."""
    if target.uniform_dim is not None and source.uniform_dim is not None:
        return [(fiber_range(len(source.dim_array)), (target.uniform_dim, source.uniform_dim))]
    rows, cols = target.dim_array, source.dim_array
    radix = int(cols.max()) + 1
    return [(idx, divmod(int(key), radix)) for idx, key in partition(rows * radix + cols)]


@dataclass(eq=False, slots=True)
class Morphism:
    """Fibered linear map between objects of the same backend.

    ``blocks`` holds one complex block of shape (target dim, source dim) per
    fiber, stored as :class:`Fibers`: one stacked array per distinct
    (target_dim, source_dim). A Matrix or FiniteGroup morphism, or a Family
    whose fibers share their dimensions, is one group. The constructor also
    accepts a per-fiber sequence of blocks; ``blocks`` then still reads as
    that sequence, a read-only view. Blocks must be finite.
    """

    source: HObject
    target: HObject
    blocks: Fibers
    # ``norm()`` of the read-only blocks, taken on the first call
    _norm: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        source, target, blocks = self.source, self.target, self.blocks
        backend = source.backend
        if backend is not target.backend and not backend.same_as(target.backend):
            raise BackendMismatchError("source/target backends differ")
        if len(blocks) != backend.n_fibers:
            raise ShapeMismatchError(f"{len(blocks)} blocks for {backend.n_fibers} fibers")
        if type(blocks) is not Fibers:
            blocks = _grouped_blocks(source, target, blocks)
        rows, cols = target.uniform_dim, source.uniform_dim
        convert = False
        for idx, b in blocks.groups:
            if b.ndim != 3 or (
                b.shape[1] != rows or b.shape[2] != cols
                if rows is not None and cols is not None
                else np.any(target.dim_array[idx] != b.shape[1])
                or np.any(source.dim_array[idx] != b.shape[2])
            ):
                raise ShapeMismatchError(f"block stack of shape {b.shape} does not fit")
            if np.count_nonzero(np.isfinite(b)) != b.size:
                raise InputValidationError("morphism blocks must be finite")
            convert = convert or b.dtype != _COMPLEX
            b.setflags(write=False)
        self.blocks = blocks.map(_frozen_complex) if convert else blocks

    @property
    def backend(self) -> CategoryBackend:
        return self.source.backend

    @property
    def is_endo(self) -> bool:
        return self.source.same_space(self.target)

    def norm(self) -> float:
        """Largest operator norm of a block (:func:`operator_norm`),
        computed once per morphism."""
        if self._norm is None:
            self._norm = operator_norm(b for _, b in self.blocks.groups)
        return self._norm

    def standardized_blocks(self) -> Fibers:
        """Blocks rewritten in orthonormal coordinates of both products.

        A morphism with standard products on both sides returns its own
        blocks (not a copy); callers must not write into the result.
        """
        into, out_of = self.target.factors(), self.source.factors()
        if into is None and out_of is None:
            return self.blocks
        groups = []
        for idx, b in self.blocks.groups:
            if into is not None:
                b = into[0].take(idx) @ b
            if out_of is not None:
                b = b @ out_of[1].take(idx)
            groups.append((idx, b))
        return Fibers(groups, self.blocks.n)

    def group_ring_coefficients(self) -> np.ndarray:
        """The (kt, ks, |G|) group-ring matrix of a FiniteGroup morphism;
        raises :class:`ShapeMismatchError` for a block that is none, within
        1e-10 * max(1, Frobenius norm)."""
        if self.backend.kind is not BackendKind.FINITE_GROUP:
            raise BackendMismatchError("not a FiniteGroup morphism")
        table, block = self.backend.group_table, self.blocks[0]
        coeffs = extract_group_coeffs(table, block)
        size = max(1.0, float(np.linalg.norm(block)))
        if np.linalg.norm(expand_group_matrix(table, coeffs) - block) > 1e-10 * size:
            raise ShapeMismatchError("block does not commute with the group action")
        return coeffs

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)


def operator_norm(stacks) -> float:
    """Largest operator norm of a matrix of the stacks: max |a| over a stack
    of 1 x 1 blocks a, the largest singular value (one batched SVD)
    otherwise; a stack of empty matrices counts as 0."""
    return max(
        (float(np.abs(b).max() if b.shape[1:] == (1, 1)
               else np.linalg.norm(b[0], 2) if len(b) == 1
               else np.linalg.norm(b, 2, axis=(1, 2)).max())
         for b in stacks if min(b.shape[1:])),
        default=0.0,
    )


def _frozen_complex(stack: np.ndarray) -> np.ndarray:
    stack = stack.astype(complex)
    stack.setflags(write=False)
    return stack


def _grouped_blocks(source: HObject, target: HObject, blocks) -> Fibers:
    """A per-fiber sequence of blocks as Fibers, each block checked against
    its fiber's shape."""
    arrays = []
    for f, (b, expect) in enumerate(zip(blocks, zip(target.dims, source.dims))):
        b = np.asarray(b, dtype=complex)
        if b.size == 0 and 0 in expect:
            b = b.reshape(expect)
        if b.shape != expect:
            raise ShapeMismatchError(f"fiber {f}: block shape {b.shape}, expected {expect}")
        arrays.append(b)
    return Fibers.from_list(arrays)


def matrix_morphism(source: HObject, target: HObject, data) -> Morphism:
    return Morphism(source, target, (np.asarray(data, complex),))


def group_ring_morphism(source: HObject, target: HObject, coeffs) -> Morphism:
    """Build a FiniteGroup morphism from (kt, ks, |G|) group-ring coefficients."""
    table = source.backend.group_table
    return Morphism(source, target, (expand_group_matrix(table, coeffs),))


def family_morphism(source: HObject, target: HObject, fibers) -> Morphism:
    return Morphism(source, target, tuple(np.asarray(b, complex) for b in fibers))


def identity_morphism(obj: HObject) -> Morphism:
    return scalar_morphism(obj, 1.0)


def zero_morphism(source: HObject, target: HObject) -> Morphism:
    groups = [
        (idx, np.zeros((len(idx), m, n), dtype=complex))
        for idx, (m, n) in _shape_groups(target, source)
    ]
    return Morphism(source, target, Fibers(groups, source.backend.n_fibers))


def scalar_morphism(obj: HObject, lam: complex) -> Morphism:
    groups = [(idx, lam * _eye_stack(len(idx), d)) for idx, d in obj.dim_groups()]
    return Morphism(obj, obj, Fibers(groups, obj.backend.n_fibers))


# ---------------------------------------------------------------------------
# operations


def trace(m: Morphism) -> complex:
    """Canonical trace of an endomorphism.

    Matrix: scale * sum of diagonal entries. FiniteGroup: scale * sum of
    identity coefficients of the diagonal group-ring entries (equal to the
    expanded complex trace divided by |G|). Family: scale-weighted integral
    of fiber traces.
    """
    if not m.is_endo:
        raise ShapeMismatchError("trace requires source == target")
    w = m.backend.fiber_weights
    val = complex(sum(
        np.dot(w[idx], np.trace(b, axis1=1, axis2=2)) for idx, b in m.blocks.groups
    ))
    if abs(val.imag) < 1e-14 * max(abs(val.real), 1.0):
        return float(val.real)
    return val


def largest_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm of a matrix of a nonempty stack, computed
    without overflow."""
    return float(frobenius(stack).max())


def largest_block_norm(m: Morphism) -> float:
    """Largest Frobenius norm of a block of m."""
    return max((largest_norm(b) for _, b in m.blocks.groups), default=0.0)


def commutes(a: Morphism, b: Morphism, c: Morphism, d: Morphism) -> bool:
    """Whether |ab - cd|_F <= 1e-8 max(|a| |b|, |c| |d|, 1e-300) on every fiber's
    aligned blocks, |.| being :meth:`Morphism.norm`. Raises
    :class:`ShapeMismatchError` unless ab and cd map between the same spaces,
    and :class:`InputValidationError` when they overflow, as their Morphisms would."""
    if not (b.target.same_space(a.source) and d.target.same_space(c.source)
            and b.source.same_space(d.source) and a.target.same_space(c.target)):
        raise ShapeMismatchError("a b and c d are no maps between the same spaces")
    bound = max(a.norm() * b.norm(), c.norm() * d.norm(), 1e-300)
    dev = max(largest_norm(w @ x - y @ z)
              for _, (w, x, y, z) in align(a.blocks, b.blocks, c.blocks, d.blocks))
    if not math.isfinite(dev):
        raise InputValidationError("morphism blocks must be finite")
    return dev <= 1e-8 * bound


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g."""
    if not g.target.same_space(f.source):
        raise ShapeMismatchError("compose: target(g) != source(f)")
    return Morphism(g.source, f.target, Fibers(
        [(idx, a @ b) for idx, (a, b) in align(f.blocks, g.blocks)], f.blocks.n
    ))


def adjoint(f: Morphism) -> Morphism:
    """Adjoint with respect to the products carried by source and target."""
    ps, pt = f.source.gram, f.target.gram
    groups = []
    for idx, b in f.blocks.groups:
        a = hermitian(b)
        if pt is not None:
            a = a @ pt.take(idx)
        if ps is not None:
            a = np.linalg.solve(ps.take(idx), a)
        groups.append((idx, a))
    return Morphism(f.target, f.source, Fibers(groups, f.blocks.n))


def add(f: Morphism, g: Morphism) -> Morphism:
    if not (f.source.same_space(g.source) and f.target.same_space(g.target)):
        raise ShapeMismatchError("add: shapes differ")
    return Morphism(f.source, f.target, Fibers(
        [(idx, a + b) for idx, (a, b) in align(f.blocks, g.blocks)], f.blocks.n
    ))


def scale_morphism(f: Morphism, c: complex) -> Morphism:
    return Morphism(f.source, f.target, f.blocks.map(lambda b: c * b))


def block_matrix(rows: list) -> Fibers:
    """Per fiber, the block matrix whose blocks are those of the morphisms
    in ``rows`` (a list of rows, each a list of morphisms)."""
    flat = [m.blocks for row in rows for m in row]
    groups = []
    for idx, stacks in align(*flat):
        it = iter(stacks)
        groups.append((idx, np.block([[next(it) for _ in row] for row in rows])))
    return Fibers(groups, flat[0].n)


def _block_diagonal(a: Fibers, b: Fibers) -> Fibers:
    """Per fiber, the block-diagonal matrix with blocks a[f] and b[f]."""
    groups = []
    for idx, (x, y) in align(a, b):
        k, (m1, n1), (m2, n2) = len(idx), x.shape[1:], y.shape[1:]
        out = np.zeros((k, m1 + m2, n1 + n2), dtype=complex)
        out[:, :m1, :n1] = x
        out[:, m1:, n1:] = y
        groups.append((idx, out))
    return Fibers(groups, a.n)


def direct_sum_objects(a: HObject, b: HObject) -> HObject:
    """The orthogonal sum of a and b. Its product and the factors (S, S^-1)
    of that product are the block diagonals of theirs, so the sum is
    neither validated nor factored again."""
    if not a.backend.same_as(b.backend):
        raise BackendMismatchError("direct sum across different backends")
    out = HObject(a.backend, a.dim_array + b.dim_array)
    if a.gram is not None or b.gram is not None:
        pa, pb = a.product_fibers(), b.product_fibers()
        # a standard part's factors are its identity product
        fa, fb = a.factors() or (pa, pa), b.factors() or (pb, pb)
        out.gram = _block_diagonal(pa, pb)
        out._factors = tuple(map(_block_diagonal, fa, fb))
    return out


def direct_sum_morphisms(f: Morphism, g: Morphism) -> Morphism:
    src = direct_sum_objects(f.source, g.source)
    tgt = direct_sum_objects(f.target, g.target)
    return Morphism(src, tgt, _block_diagonal(f.blocks, g.blocks))


# ---------------------------------------------------------------------------
# subobjects and frames


@dataclass(eq=False, slots=True)
class SubObject:
    """A subspace of an ambient object, fiberwise, with orthonormal frames.

    ``frames[f]`` has P-orthonormal columns spanning the fiber subspace;
    the frames are :class:`Fibers` (a per-fiber sequence is grouped on
    construction), so fibers whose subspaces have different dimensions sit
    in different groups. ``space`` is the standalone object carried by the
    subspace (standard products, since the frames are orthonormal).
    """

    ambient: HObject
    frames: Fibers
    space: HObject = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.frames, Fibers):
            self.frames = Fibers.from_list([np.asarray(v, complex) for v in self.frames])
        self.space = HObject(self.ambient.backend, self.frames.sizes(1))

    @property
    def dim_tau(self) -> float:
        return self.space.dim_tau

    def include(self) -> Morphism:
        """Isometric inclusion space -> ambient."""
        return Morphism(self.space, self.ambient, self.frames)

    def project(self) -> Morphism:
        """Orthogonal projection ambient -> space (adjoint of include)."""
        p = self.ambient.gram
        groups = [
            (idx, hermitian(v) if p is None else hermitian(v) @ p.take(idx))
            for idx, v in self.frames.groups
        ]
        return Morphism(self.ambient, self.space, Fibers(groups, self.frames.n))

    def compress(self, m: Morphism, source_sub: "SubObject") -> Morphism:
        """Restrict m to map source_sub.space -> self.space (self in target):
        project after m after include, in one pass over the groups."""
        if not (m.target.same_space(self.ambient) and m.source.same_space(source_sub.ambient)):
            raise ShapeMismatchError("compress: m does not map between the ambients")
        p = self.ambient.gram
        groups = [
            (idx, (hermitian(v) if p is None else hermitian(v) @ p.take(idx)) @ (b @ w))
            for idx, (v, b, w) in align(self.frames, m.blocks, source_sub.frames)
        ]
        return Morphism(source_sub.space, self.space, Fibers(groups, self.frames.n))


def full_subobject(obj: HObject) -> SubObject:
    factors = obj.factors()
    if factors is not None:
        return SubObject(obj, factors[1])
    return SubObject(obj, Fibers(
        [(idx, _eye_stack(len(idx), d)) for idx, d in obj.dim_groups()], obj.backend.n_fibers
    ))


def subobject_from_std_frames(obj: HObject, std_frames) -> SubObject:
    """Build a SubObject from frames orthonormal in standardized coordinates."""
    if not isinstance(std_frames, Fibers):
        std_frames = Fibers.from_list([np.asarray(v, complex) for v in std_frames])
    factors = obj.factors()
    if factors is not None:
        std_frames = Fibers(
            [(idx, np.linalg.solve(factors[0].take(idx), v)) for idx, v in std_frames.groups],
            std_frames.n,
        )
    return SubObject(obj, std_frames)


def complement(frames: Fibers) -> Fibers:
    """Orthonormal frames of the orthocomplement of the span of orthonormal
    ``frames``, fiberwise in standardized coordinates: one QR per shape
    group whose width lies strictly between 0 and the dimension."""
    groups = []
    for idx, v in frames.groups:
        k, d, width = v.shape
        if width == 0:
            comp = _eye_stack(k, d)
        elif width >= d:
            comp = np.zeros((k, d, 0), dtype=complex)
        else:
            # columns of the full unitary not in span(v)
            q, _ = np.linalg.qr(np.concatenate([v, _eye_stack(k, d)], axis=2))
            comp = q[:, :, width:d]
        groups.append((idx, comp))
    return Fibers(groups, frames.n)


def orthocomplement(sub: SubObject) -> SubObject:
    frames, factors = sub.frames, sub.ambient.factors()
    if factors is not None:  # orthonormal in std coords
        frames = Fibers([(idx, factors[0].take(idx) @ v) for idx, v in frames.groups], frames.n)
    return subobject_from_std_frames(sub.ambient, complement(frames))


@dataclass
class FiberSVD:
    """The SVD U diag(s) Vh of every standardized block of a morphism, with
    the rank each fiber keeps.

    ``groups`` holds ``(idx, U, s, Vh, r)`` for the fibers ``idx`` of one
    block shape and one rank r: stacked full (square) unitaries, or None
    when only values were computed, and the stacked descending values.
    ``rank[f]`` counts the values of fiber f above the rank cut. Every
    reading below is one slice per group. Iterating gives ``(rank, U, s,
    Vh)`` per fiber, a view for callers outside the grouped paths.
    """

    groups: tuple
    rank: np.ndarray

    def pick(self, fn) -> Fibers:
        """Fibers of ``fn(U, s, Vh, r)`` over the groups."""
        return Fibers([(idx, fn(u, s, vh, r)) for idx, u, s, vh, r in self.groups],
                      len(self.rank))

    def kernel(self) -> Fibers:
        """Trailing rows of Vh, as columns: the kernel."""
        return self.pick(lambda u, s, vh, r: hermitian(vh[:, r:]))

    def coimage(self) -> Fibers:
        """Leading rows of Vh, as columns: the orthocomplement of the kernel."""
        return self.pick(lambda u, s, vh, r: hermitian(vh[:, :r]))

    def image(self) -> Fibers:
        """Leading columns of U: the closure of the image."""
        return self.pick(lambda u, s, vh, r: u[:, :, :r])

    def cokernel(self) -> Fibers:
        """Trailing columns of U: the orthocomplement of the image."""
        return self.pick(lambda u, s, vh, r: u[:, :, r:])

    def log_det(self, weights: np.ndarray) -> float:
        """Trace-weighted sum of the logs of the kept values: the log
        Fuglede-Kadison determinant of the map off its kernel."""
        return self.kept().log_det(weights)

    def kernel_mass(self, weights: np.ndarray, dims: np.ndarray) -> float:
        """Trace-weighted count of the source dimensions ``dims`` (one per
        fiber) that the kept values leave over: the mass of the kernel."""
        return float(np.dot(weights, dims - self.rank))

    def kept(self) -> FiberValues:
        """The kept singular values, flat with their fibers."""
        return FiberValues(
            np.concatenate([np.zeros(0)] + [s[:, :r].ravel() for _, _, s, _, r in self.groups]),
            np.concatenate([np.zeros(0, np.intp)]
                           + [np.repeat(idx, r) for idx, _, _, _, r in self.groups]),
        )

    def __iter__(self):
        per_fiber = {}
        for idx, u, s, vh, _ in self.groups:
            for k, f in enumerate(idx.tolist()):
                per_fiber[f] = (
                    None if u is None else u[k], s[k], None if vh is None else vh[k]
                )
        for f, r in enumerate(self.rank.tolist()):
            u, s, vh = per_fiber[f]
            yield r, u, s, vh


def _scalar_svd(b: np.ndarray, vectors: bool) -> tuple:
    """(U, s, Vh) of a (k, 1, 1) stack in closed form, U and Vh None
    without ``vectors``."""
    s = np.abs(b[:, 0])
    if not vectors:
        return None, s, None
    nonzero = s > 0
    u = np.ones_like(b)
    np.divide(b, s[:, :, None], out=u, where=nonzero[:, :, None])
    return u, s, np.ones_like(b)


def fiber_svds(
    f: Morphism | Fibers, tol: float = DEFAULT_RANK_TOL, scale=0.0, vectors: bool = True
) -> FiberSVD:
    """SVD of the standardized blocks of f with their ranks, one batched
    call per shape group (see :class:`FiberSVD`); f is a morphism or, as
    :class:`Fibers`, blocks already in orthonormal coordinates.

    This is the one place where the library takes the SVD of a morphism
    and decides its rank. Singular values at or below tol * max(largest
    singular value of the fiber, scale) count as zero; ``scale`` (a scalar,
    or one value per fiber) supplies an extra reference magnitude so that a
    map which is negligible relative to its surroundings is treated as zero.
    Scales are applied per fiber so that a Family fiber with genuinely tiny
    but meaningful entries is never truncated against an unrelated fiber's
    magnitude. U and Vh are full (square) unitaries; with ``vectors=False``
    only the values are computed and U, Vh are None.

    A group of 1 x 1 blocks a takes no SVD call: s = |a|, U = a / |a| (1
    where a = 0) and Vh = 1, the factors LAPACK returns for a 1 x 1 block.
    """
    check_rank_tol(tol)
    blocks = f if isinstance(f, Fibers) else f.standardized_blocks()
    scale = np.asarray(scale, float)
    rank = np.zeros(blocks.n, int)
    groups = []
    for idx, b in blocks.groups:
        k, rows, cols = b.shape
        if not min(rows, cols):
            u, vh = (_eye_stack(k, rows), _eye_stack(k, cols)) if vectors else (None, None)
            groups.append((idx, u, np.zeros((k, 0)), vh, 0))
            continue
        if rows == cols == 1:
            u, s, vh = _scalar_svd(b, vectors)
        else:
            svd = np.linalg.svd(b, compute_uv=vectors)
            u, s, vh = svd if vectors else (None, svd, None)
        cut = tol * np.maximum(s[:, 0], scale[idx] if scale.ndim else scale)
        rank[idx] = ranks = np.where(cut > 0, np.count_nonzero(s > cut[:, None], axis=1), 0)
        for sel, r in partition(ranks):
            if len(sel) == len(idx):
                groups.append((idx, u, s, vh, int(r)))
            else:
                groups.append((idx[sel], None if u is None else u[sel], s[sel],
                               None if vh is None else vh[sel], int(r)))
    return FiberSVD(tuple(groups), rank)


def kernel_and_image_closure(f: Morphism):
    """Orthonormal frames for ker f and cl(im f), fiberwise, with the rank
    decision of :func:`fiber_svds` at the default cut.

    Returns (kernel SubObject, image-closure SubObject).
    """
    svd = fiber_svds(f)
    return (subobject_from_std_frames(f.source, svd.kernel()),
            subobject_from_std_frames(f.target, svd.image()))
