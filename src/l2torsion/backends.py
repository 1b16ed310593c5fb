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

All three reduce to the same internal picture: a morphism is a list of
complex blocks, one per "fiber", each fiber carrying a positive trace
weight. Every numerical operation downstream (spectra, determinants,
frames) works fiberwise on that picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import (
    BackendMismatchError,
    InputValidationError,
    ShapeMismatchError,
)

DEFAULT_RANK_TOL = 1e-10


class BackendKind(str, Enum):
    MATRIX = "Matrix"
    FINITE_GROUP = "FiniteGroup"
    FAMILY = "Family"


def _check_group_table(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.shape != (n, n):
        raise InputValidationError("Cayley table must be square")
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


@dataclass(eq=False)
class CategoryBackend:
    """Trace conventions and fiber structure for one of the three backends."""

    kind: BackendKind
    scale: float = 1.0
    group_table: np.ndarray | None = None
    sample_points: np.ndarray | None = None  # rows (xi_j, w_j)

    def __post_init__(self) -> None:
        self.kind = BackendKind(self.kind)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InputValidationError("trace scale must be finite and positive")
        if self.kind is BackendKind.FINITE_GROUP:
            if self.group_table is None:
                raise InputValidationError("FiniteGroup backend needs a Cayley table")
            self.group_table = np.asarray(self.group_table, dtype=int)
            _check_group_table(self.group_table)
        if self.kind is BackendKind.FAMILY:
            if self.sample_points is None:
                raise InputValidationError("Family backend needs sample points")
            pts = np.asarray(self.sample_points, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise InputValidationError("sample points must be rows (xi, w)")
            if not np.all(np.isfinite(pts)):
                raise InputValidationError("sample points must be finite")
            if np.any(pts[:, 1] <= 0):
                raise InputValidationError("sample weights must be positive")
            self.sample_points = pts

    @property
    def group_order(self) -> int:
        assert self.group_table is not None
        return self.group_table.shape[0]

    @property
    def n_fibers(self) -> int:
        if self.kind is BackendKind.FAMILY:
            return self.sample_points.shape[0]
        return 1

    @property
    def fiber_weights(self) -> np.ndarray:
        """Trace weight per internal fiber (already includes ``scale``)."""
        if self.kind is BackendKind.MATRIX:
            return np.array([self.scale])
        if self.kind is BackendKind.FINITE_GROUP:
            return np.array([self.scale / self.group_order])
        return self.scale * self.sample_points[:, 1]

    def with_scale(self, scale: float) -> "CategoryBackend":
        return CategoryBackend(
            self.kind, scale, self.group_table, self.sample_points
        )

    def same_as(self, other: "CategoryBackend") -> bool:
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
    return CategoryBackend(BackendKind.FINITE_GROUP, scale, np.asarray(table, int))


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


def uniform_interval_samples(n: int, a: float = 0.0, b: float = 1.0) -> np.ndarray:
    """Midpoint quadrature grid on (a, b] with total measure b - a."""
    pts = a + (b - a) * (np.arange(n) + 0.5) / n
    w = np.full(n, (b - a) / n)
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


def left_regular_matrix(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Complex matrix of left multiplication by sum_g coeffs[g] * g on l2(G)."""
    n = table.shape[0]
    out = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    for g in range(n):
        c = coeffs[g]
        if c != 0:
            out[table[g], cols] += c
    return out


def expand_group_matrix(table: np.ndarray, ring_matrix: np.ndarray) -> np.ndarray:
    """Expand a (kt, ks, |G|) group-ring matrix to a kt|G| x ks|G| complex block."""
    ring_matrix = np.asarray(ring_matrix, dtype=complex)
    kt, ks, n = ring_matrix.shape
    if n != table.shape[0]:
        raise ShapeMismatchError("group-ring coefficient length != group order")
    out = np.zeros((kt * n, ks * n), dtype=complex)
    for i in range(kt):
        for j in range(ks):
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = left_regular_matrix(
                table, ring_matrix[i, j]
            )
    return out


def extract_group_coeffs(table: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Inverse of :func:`expand_group_matrix` (reads the identity column)."""
    n = table.shape[0]
    kt, ks = block.shape[0] // n, block.shape[1] // n
    out = np.zeros((kt, ks, n), dtype=complex)
    for i in range(kt):
        for j in range(ks):
            out[i, j] = block[i * n : (i + 1) * n, j * n]
    return out


# ---------------------------------------------------------------------------
# objects and morphisms


def _as_product_list(dims, products):
    if products is None:
        return tuple(None for _ in dims)
    out = []
    for d, p in zip(dims, products):
        if p is None:
            out.append(None)
            continue
        p = np.asarray(p, dtype=complex)
        if p.shape != (d, d):
            raise ShapeMismatchError("product operator shape mismatch")
        out.append(p)
    return tuple(out)


@dataclass(eq=False)
class HObject:
    """Object of the category: fibered Hilbert space with admissible product.

    ``dims`` are the internal (expanded) complex fiber dimensions.
    ``products`` are fiberwise positive definite operators; ``None`` means
    the standard product on that fiber.
    """

    backend: CategoryBackend
    dims: tuple
    products: tuple = None
    native_shape: object = None  # n / rank k / per-sample dims, when known

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != self.backend.n_fibers:
            raise ShapeMismatchError("fiber count does not match backend")
        self.products = _as_product_list(self.dims, self.products)
        for p in self.products:
            if p is None or p.size == 0:
                continue
            if np.linalg.norm(p - p.conj().T) > 1e-10 * max(np.linalg.norm(p), 1.0):
                raise InputValidationError("product operator must be self-adjoint")
            if np.linalg.eigvalsh(p).min() <= DEFAULT_RANK_TOL:
                raise InputValidationError("product operator must be positive definite")

    @property
    def dim_tau(self) -> float:
        return float(np.dot(self.backend.fiber_weights, self.dims))

    def product_matrix(self, f: int) -> np.ndarray:
        p = self.products[f]
        if p is None:
            return np.eye(self.dims[f], dtype=complex)
        return p

    def std_factor(self, f: int) -> np.ndarray:
        """Upper-triangular S with S^H S = P; x -> Sx orthonormalizes fiber f."""
        p = self.products[f]
        if p is None:
            return np.eye(self.dims[f], dtype=complex)
        return np.linalg.cholesky(p).conj().T

    def with_products(self, products) -> "HObject":
        return HObject(self.backend, self.dims, products, self.native_shape)

    def log_det_product(self) -> float:
        """log Det_tau of the product operator relative to standard coordinates."""
        total = 0.0
        for w, p in zip(self.backend.fiber_weights, self.products):
            if p is not None:
                sign, ld = np.linalg.slogdet(p)
                total += w * ld
        return total

    def same_space(self, other: "HObject") -> bool:
        return self.backend.same_as(other.backend) and self.dims == other.dims


def matrix_object(backend: CategoryBackend, n: int, product=None) -> HObject:
    if backend.kind is not BackendKind.MATRIX:
        raise BackendMismatchError("matrix_object needs a Matrix backend")
    prods = None if product is None else (np.asarray(product, complex),)
    return HObject(backend, (n,), prods, native_shape=n)


def group_object(backend: CategoryBackend, rank: int, product=None) -> HObject:
    """rank copies of l2(G); ``product`` may be a rank x rank group-ring matrix."""
    if backend.kind is not BackendKind.FINITE_GROUP:
        raise BackendMismatchError("group_object needs a FiniteGroup backend")
    n = backend.group_order
    prods = None
    if product is not None:
        product = np.asarray(product, complex)
        if product.ndim == 3:
            product = expand_group_matrix(backend.group_table, product)
        prods = (product,)
    return HObject(backend, (rank * n,), prods, native_shape=rank)


def family_object(backend: CategoryBackend, dims, products=None) -> HObject:
    if backend.kind is not BackendKind.FAMILY:
        raise BackendMismatchError("family_object needs a Family backend")
    if np.isscalar(dims):
        dims = tuple(int(dims) for _ in range(backend.n_fibers))
    return HObject(backend, tuple(dims), products, native_shape=tuple(dims))


@dataclass(eq=False)
class Morphism:
    """Fibered linear map between objects of the same backend."""

    source: HObject
    target: HObject
    blocks: tuple

    def __post_init__(self) -> None:
        if not self.source.backend.same_as(self.target.backend):
            raise BackendMismatchError("source/target backends differ")
        if len(self.blocks) != self.source.backend.n_fibers:
            raise ShapeMismatchError(
                f"{len(self.blocks)} blocks for {self.source.backend.n_fibers} fibers"
            )
        blocks = []
        for f, b in enumerate(self.blocks):
            b = np.asarray(b, dtype=complex)
            expect = (self.target.dims[f], self.source.dims[f])
            if b.size == 0:
                b = b.reshape(expect)
            if b.shape != expect:
                raise ShapeMismatchError(
                    f"fiber {f}: block shape {b.shape}, expected {expect}"
                )
            blocks.append(b)
        self.blocks = tuple(blocks)

    @property
    def backend(self) -> CategoryBackend:
        return self.source.backend

    @property
    def is_endo(self) -> bool:
        return self.source.same_space(self.target)

    def norm(self) -> float:
        return max(
            (np.linalg.norm(b, 2) if min(b.shape) else 0.0) for b in self.blocks
        )

    def standardized_blocks(self) -> list:
        """Blocks rewritten in orthonormal coordinates of both products.

        A fiber with standard products on both sides returns its own block
        (not a copy); callers must not write into the result.
        """
        out = []
        for f, b in enumerate(self.blocks):
            if self.target.products[f] is not None:
                b = self.target.std_factor(f) @ b
            if self.source.products[f] is not None:
                b = b @ np.linalg.inv(self.source.std_factor(f))
            out.append(b)
        return out

    def group_ring_coefficients(self) -> np.ndarray:
        if self.backend.kind is not BackendKind.FINITE_GROUP:
            raise BackendMismatchError("not a FiniteGroup morphism")
        return extract_group_coeffs(self.backend.group_table, self.blocks[0])

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)


def matrix_morphism(source: HObject, target: HObject, data) -> Morphism:
    return Morphism(source, target, (np.asarray(data, complex),))


def group_ring_morphism(source: HObject, target: HObject, coeffs) -> Morphism:
    """Build a FiniteGroup morphism from (kt, ks, |G|) group-ring coefficients."""
    table = source.backend.group_table
    return Morphism(source, target, (expand_group_matrix(table, coeffs),))


def family_morphism(source: HObject, target: HObject, fibers) -> Morphism:
    return Morphism(source, target, tuple(np.asarray(b, complex) for b in fibers))


def identity_morphism(obj: HObject) -> Morphism:
    return Morphism(obj, obj, tuple(np.eye(d, dtype=complex) for d in obj.dims))


def zero_morphism(source: HObject, target: HObject) -> Morphism:
    return Morphism(
        source,
        target,
        tuple(
            np.zeros((dt, ds), dtype=complex)
            for dt, ds in zip(target.dims, source.dims)
        ),
    )


def scalar_morphism(obj: HObject, lam: complex) -> Morphism:
    return Morphism(obj, obj, tuple(lam * np.eye(d, dtype=complex) for d in obj.dims))


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
    val = sum(wf * np.trace(b) for wf, b in zip(w, m.blocks))
    if abs(val.imag) < 1e-14 * max(abs(val.real), 1.0):
        return float(val.real)
    return complex(val)


def dim_tau(obj: HObject) -> float:
    return obj.dim_tau


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g."""
    if not g.target.same_space(f.source):
        raise ShapeMismatchError("compose: target(g) != source(f)")
    return Morphism(
        g.source, f.target, tuple(bf @ bg for bf, bg in zip(f.blocks, g.blocks))
    )


def adjoint(f: Morphism) -> Morphism:
    """Adjoint with respect to the products carried by source and target."""
    blocks = []
    for i, b in enumerate(f.blocks):
        ps = f.source.products[i]
        pt = f.target.products[i]
        a = b.conj().T
        if pt is not None:
            a = a @ pt
        if ps is not None:
            a = np.linalg.solve(ps, a)
        blocks.append(a)
    return Morphism(f.target, f.source, tuple(blocks))


def add(f: Morphism, g: Morphism) -> Morphism:
    if not (f.source.same_space(g.source) and f.target.same_space(g.target)):
        raise ShapeMismatchError("add: shapes differ")
    return Morphism(f.source, f.target, tuple(a + b for a, b in zip(f.blocks, g.blocks)))


def scale_morphism(f: Morphism, c: complex) -> Morphism:
    return Morphism(f.source, f.target, tuple(c * b for b in f.blocks))


def direct_sum_objects(a: HObject, b: HObject) -> HObject:
    if not a.backend.same_as(b.backend):
        raise BackendMismatchError("direct sum across different backends")
    dims = tuple(da + db for da, db in zip(a.dims, b.dims))
    products = []
    any_product = any(p is not None for p in a.products + b.products)
    for f in range(len(dims)):
        if not any_product:
            products = None
            break
        pa = a.product_matrix(f)
        pb = b.product_matrix(f)
        p = np.zeros((dims[f], dims[f]), dtype=complex)
        p[: a.dims[f], : a.dims[f]] = pa
        p[a.dims[f] :, a.dims[f] :] = pb
        products.append(p)
    return HObject(a.backend, dims, None if products is None else tuple(products))


def direct_sum_morphisms(f: Morphism, g: Morphism) -> Morphism:
    src = direct_sum_objects(f.source, g.source)
    tgt = direct_sum_objects(f.target, g.target)
    blocks = []
    for i in range(len(src.dims)):
        blk = np.zeros((tgt.dims[i], src.dims[i]), dtype=complex)
        dt, ds = f.target.dims[i], f.source.dims[i]
        blk[:dt, :ds] = f.blocks[i]
        blk[dt:, ds:] = g.blocks[i]
        blocks.append(blk)
    return Morphism(src, tgt, tuple(blocks))


# ---------------------------------------------------------------------------
# subobjects and frames


@dataclass(eq=False)
class SubObject:
    """A subspace of an ambient object, fiberwise, with orthonormal frames.

    ``frames[f]`` has P-orthonormal columns spanning the fiber subspace;
    ``space`` is the standalone object carried by the subspace (standard
    products, since the frames are orthonormal).
    """

    ambient: HObject
    frames: tuple

    def __post_init__(self) -> None:
        self.frames = tuple(np.asarray(v, complex) for v in self.frames)
        dims = tuple(v.shape[1] for v in self.frames)
        self.space = HObject(self.ambient.backend, dims)

    @property
    def dim_tau(self) -> float:
        return self.space.dim_tau

    def include(self) -> Morphism:
        """Isometric inclusion space -> ambient."""
        return Morphism(self.space, self.ambient, self.frames)

    def project(self) -> Morphism:
        """Orthogonal projection ambient -> space (adjoint of include)."""
        blocks = []
        for f, v in enumerate(self.frames):
            p = self.ambient.products[f]
            blocks.append(v.conj().T if p is None else v.conj().T @ p)
        return Morphism(self.ambient, self.space, tuple(blocks))

    def compress(self, m: Morphism, source_sub: "SubObject") -> Morphism:
        """Restrict m to map source_sub.space -> self.space (self in target)."""
        return compose(self.project(), compose(m, source_sub.include()))


def full_subobject(obj: HObject) -> SubObject:
    frames = []
    for f, (d, p) in enumerate(zip(obj.dims, obj.products)):
        if p is None:
            frames.append(np.eye(d, dtype=complex))
        else:
            frames.append(np.linalg.inv(obj.std_factor(f)))
    return SubObject(obj, tuple(frames))


def subobject_from_std_frames(obj: HObject, std_frames) -> SubObject:
    """Build a SubObject from frames orthonormal in standardized coordinates."""
    frames = []
    for f, v in enumerate(std_frames):
        if obj.products[f] is not None:
            v = np.linalg.solve(obj.std_factor(f), v)
        frames.append(v)
    return SubObject(obj, tuple(frames))


def orthocomplement(sub: SubObject) -> SubObject:
    obj = sub.ambient
    std_frames = []
    for f, v in enumerate(sub.frames):
        # orthonormal in std coords
        vt = v if obj.products[f] is None else obj.std_factor(f) @ v
        d = obj.dims[f]
        if vt.shape[1] == 0:
            std_frames.append(np.eye(d, dtype=complex))
            continue
        if vt.shape[1] >= d:
            std_frames.append(np.zeros((d, 0), dtype=complex))
            continue
        # columns of the full unitary not in span(vt)
        q, _ = np.linalg.qr(np.hstack([vt, np.eye(d, dtype=complex)]))
        comp = q[:, vt.shape[1] : d]
        std_frames.append(comp)
    return subobject_from_std_frames(obj, std_frames)


def uniform_stack(blocks) -> np.ndarray | None:
    """The blocks as one stacked array when they share a nonempty shape."""
    shapes = {b.shape for b in blocks}
    if len(shapes) == 1 and min(next(iter(shapes))) > 0:
        return np.stack(blocks)
    return None


def fiber_svds(
    f: Morphism, tol: float = DEFAULT_RANK_TOL, scale=0.0, vectors: bool = True
) -> list:
    """SVD of each standardized block with its rank: [(rank, U, s, Vh)].

    This is the one place where the library takes the SVD of a morphism
    and decides its rank. Singular values at or below tol * max(largest
    singular value of the fiber, scale) count as zero; ``scale`` (a scalar,
    or one value per fiber) supplies an extra reference magnitude so that a
    map which is negligible relative to its surroundings is treated as zero.
    Scales are applied per fiber so that a Family fiber with genuinely tiny
    but meaningful entries is never truncated against an unrelated fiber's
    magnitude. Fibers of one common nonempty shape are decomposed in one
    batched call. U and Vh are full (square) unitaries; with
    ``vectors=False`` only the values are computed and U, Vh are None.
    """
    scales = np.broadcast_to(np.asarray(scale, float), (len(f.blocks),))
    blocks = f.standardized_blocks()
    stacked = uniform_stack(blocks)
    if stacked is not None:
        svds = np.linalg.svd(stacked, compute_uv=vectors)
        svds = zip(*svds) if vectors else svds
    else:
        svds = (
            np.linalg.svd(b, compute_uv=vectors) if min(b.shape)
            else (np.eye(b.shape[0]), np.zeros(0), np.eye(b.shape[1])) if vectors
            else np.zeros(0)
            for b in blocks
        )
    out = []
    for svd, sc in zip(svds, scales):
        u, s, vh = svd if vectors else (None, svd, None)
        cut = tol * max(s[0] if len(s) else 0.0, sc)
        rank = int(np.count_nonzero(s > cut)) if cut > 0 else 0
        out.append((rank, u, s, vh))
    return out


def kernel_and_image_closure(
    f: Morphism, tol: float = DEFAULT_RANK_TOL, scale=0.0
):
    """Orthonormal frames for ker f and cl(im f), fiberwise, with the rank
    decision of :func:`fiber_svds`.

    Returns (kernel SubObject, image-closure SubObject).
    """
    ker_std, im_std = [], []
    for rank, u, _, vh in fiber_svds(f, tol, scale):
        ker_std.append(vh[rank:].conj().T)
        im_std.append(u[:, :rank])
    kernel = subobject_from_std_frames(f.source, ker_std)
    image = subobject_from_std_frames(f.target, im_std)
    return kernel, image
