"""Extended category objects, chain complexes and extended cohomology.

An extended object is (the class of) a morphism alpha: A' -> A. Its
projective part is the orthocomplement of the image closure in A (reduced
cohomology, when alpha is a differential) and its torsion part is alpha
viewed as a map onto the image closure -- an injective, dense-image map
whose spectral density near zero carries the interesting analytic data.

Chain complexes live here too. Extended cohomology in each degree is the
extended object (d: C^{i-1} -> ker d_i): its projective dimension is the
trace-Betti number, and its torsion part is d_{i-1} on the co-exact part,
whose singular values give the determinant-class verdict (a convergent log
spectral moment) and the Novikov-Shubin exponent. ``cohomology`` and
``determinant_class_test`` read all of this off the one Hodge split of the
complex (:func:`l2torsion.torsion.hodge_split`) that the torsion pipeline
uses, so the three reports agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backends import (
    DEFAULT_RANK_TOL,
    CategoryBackend,
    HObject,
    Morphism,
    SubObject,
    adjoint,
    add,
    align,
    block_matrix,
    commutes,
    complement,
    compose,
    direct_sum_morphisms,
    direct_sum_objects,
    fiber_svds,
    frobenius,
    full_subobject,
    largest_norm,
    scale_morphism,
    subobject_from_std_frames,
    zero_morphism,
)
from .detline import (
    DetLineElement,
    Frame,
    check_exactness,
)
from .errors import (
    InconclusiveVerdictError,
    InputValidationError,
    NoCanonicalElementError,
    NotAChainComplexError,
    NotAnIsomorphismError,
    NotExactError,
    ShapeMismatchError,
)
from .spectral import (
    DetClassVerdict,
    SpectralDensity,
    classify_determinant,
    ns_exponent,
)


def zero_object(backend: CategoryBackend) -> HObject:
    return HObject(backend, np.zeros(backend.n_fibers, int))


@dataclass(eq=False)
class ExtendedObject:
    """Normalized extended object with its projective/torsion split.

    ``alpha`` is injective (the kernel of the defining morphism is quotiented
    away on construction); ``projective`` spans the orthocomplement of
    cl(im alpha) in the target. The torsion part, alpha corestricted onto
    cl(im alpha), is an injective map with dense image; ``torsion_profile``
    is the density of its singular values and ``verdict`` its certificate.
    """

    alpha: Morphism
    projective: SubObject
    torsion_profile: SpectralDensity
    verdict: DetClassVerdict

    @property
    def target(self) -> HObject:
        return self.alpha.target

    @property
    def source(self) -> HObject:
        return self.alpha.source

    @property
    def projective_dim(self) -> float:
        return self.projective.dim_tau

    @property
    def tau_trivial(self) -> bool:
        """True when the torsion part is certified trivial in the trace sense."""
        return self.projective_dim <= 1e-10 and self.verdict.convergent

    @property
    def is_projective(self) -> bool:
        return self.source.dim_tau <= 1e-12

    def ns_exponent(self) -> float | None:
        return ns_exponent(self.torsion_profile)


def extended_object(alpha: Morphism) -> ExtendedObject:
    """Normalize a morphism into an extended object.

    Everything is read off one fiberwise SVD U diag(s) Vh of alpha
    (:func:`fiber_svds`) with r kept singular values: the kernel (the
    trailing rows of Vh) is removed from the source, which does not change
    the class of the object; the projective part is spanned by the trailing
    columns of U; and the torsion part has the kept values s[:r] as its
    singular values, whose density is classified. The source keeps the
    coordinates of the orthocomplement of the kernel, so an injective alpha
    keeps identity source coordinates.
    """
    return _extended(alpha, fiber_svds(alpha))


def _extended(alpha: Morphism, svd) -> ExtendedObject:
    """:func:`extended_object` of alpha from its :func:`fiber_svds`."""
    # not svd.coimage(): an injective alpha keeps identity source coordinates
    coker = subobject_from_std_frames(alpha.target, svd.cokernel())
    source = subobject_from_std_frames(alpha.source, complement(svd.kernel()))
    alpha_inj = compose(alpha, source.include())
    density = SpectralDensity.from_fibers(svd.kept(), alpha.backend.fiber_weights)
    return ExtendedObject(alpha_inj, coker, density, classify_determinant(density))


def det_line_of_extended(x: ExtendedObject) -> DetLineElement:
    """Unit element of det(X) = det(A) (x) det(A')^* in the frames labelled
    "target" (over A) and "source" (over A').

    For projective objects (zero source) only the target frame survives, so
    the line reduces to det(A).
    """
    word = []
    if x.target.dim_tau > 0:
        word.append((Frame(x.target, "target"), 1))
    if x.source.dim_tau > 0:
        word.append((Frame(x.source, "source"), -1))
    return DetLineElement(tuple(word), 0.0)


def canonical_trivialization(x: ExtendedObject) -> DetLineElement:
    """Canonical scalar trivialization of a tau-trivial torsion object.

    The determinant line of a torsion object with convergent certificate
    contains a canonical nonzero element; relative to the declared frames of
    target and source its coefficient is the extended determinant of alpha.
    Returns that coefficient as an element of the scalar line.
    """
    if x.projective_dim > 1e-10:
        raise NoCanonicalElementError("object has a nonzero projective part")
    if x.verdict.status == "Divergent":
        raise NoCanonicalElementError("divergent spectral certificate")
    if x.verdict.status == "Inconclusive":
        raise InconclusiveVerdictError(
            "spectral certificate inconclusive; refusing to trivialize"
        )
    return DetLineElement((), x.torsion_profile.log_moment())


# ---------------------------------------------------------------------------
# chain complexes


def check_d_squared(norms: list, pairs, check_norm: float = 0.0) -> None:
    """Raise :class:`NotAChainComplexError` unless d_{i+1} d_i vanishes
    numerically for every i.

    ``norms[i]`` is the operator norm of d_i and ``pairs[i]`` lists
    ``(idx, (x, y))``, the aligned stacks of d_{i+1} and d_i per group of
    fibers. Each product is compared after dividing both maps by their
    norms, so that neither the composition nor the bound overflows; it
    must stay within 1e-10 times max(1, N^2 / (|d_{i+1}| |d_i|)), with N
    the reference norm ``check_norm``. A pair with a zero map passes.
    """
    for i, pair in enumerate(pairs):
        na, nb = norms[i + 1], norms[i]
        if na == 0.0 or nb == 0.0:
            continue
        bound = max(1.0, (check_norm / na) * (check_norm / nb))
        if any(largest_norm((x / na) @ (y / nb)) > 1e-10 * bound for _, (x, y) in pair):
            raise NotAChainComplexError(f"differentials {i} and {i + 1} do not compose to zero")


@dataclass(eq=False)
class ChainComplexC:
    """Cochain complex C^0 -> C^1 -> ... -> C^n of backend objects.

    ``objects[i]`` is C^i and ``diffs[i]`` is the differential C^i -> C^{i+1}
    (so there are len(objects) - 1 of them). The composition of consecutive
    differentials must vanish numerically: the constructor runs
    :func:`check_d_squared` on them.
    """

    objects: tuple
    diffs: tuple
    check_norm: float = 0.0  # extra reference norm N for the d^2 = 0 check
    # (the bound is at least N^2), used when the differentials were
    # compressed out of a larger complex and their own norms understate the
    # rounding noise inherited from it

    def fiber_scales(self) -> np.ndarray:
        """Per-fiber magnitude: largest Frobenius norm of a standardized
        differential block, computed without overflow.

        Used as the reference scale for rank decisions so that a
        differential which is negligible within its own fiber is treated as
        zero, while tiny fibers of a Family stay untouched.
        """
        out = np.zeros(self.backend.n_fibers)
        for d in self.diffs:
            for idx, b in d.standardized_blocks().groups:
                out[idx] = np.maximum(out[idx], frobenius(b))
        return out

    def __post_init__(self) -> None:
        self.objects = tuple(self.objects)
        self.diffs = tuple(self.diffs)
        if not self.objects:
            raise InputValidationError("a complex needs at least one object")
        if len(self.diffs) != len(self.objects) - 1:
            raise ShapeMismatchError("need exactly one differential per gap")
        for i, d in enumerate(self.diffs):
            if not (
                d.source.same_space(self.objects[i])
                and d.target.same_space(self.objects[i + 1])
            ):
                raise ShapeMismatchError(f"differential {i} does not fit the grading")
        if len(self.diffs) > 1:
            check_d_squared(
                [d.norm() for d in self.diffs],
                (align(a.blocks, b.blocks) for b, a in zip(self.diffs, self.diffs[1:])),
                self.check_norm,
            )

    @property
    def length(self) -> int:
        return len(self.objects)

    @property
    def backend(self) -> CategoryBackend:
        return self.objects[0].backend

    def laplacian(self, i: int) -> Morphism:
        """Delta_i = d_i^* d_i + d_{i-1} d_{i-1}^* on C^i; a differential
        outside the complex contributes no term."""
        terms = [compose(adjoint(d), d) for d in self.diffs[i:i + 1]]
        terms += [compose(d, adjoint(d)) for d in self.diffs[max(i - 1, 0):i]]
        if not terms:
            return zero_morphism(self.objects[i], self.objects[i])
        return terms[0] if len(terms) == 1 else add(*terms)

    @property
    def euler_characteristic(self) -> float:
        return float(
            sum((-1) ** i * o.dim_tau for i, o in enumerate(self.objects))
        )

    # The derived complexes below are made with ``replace`` and keep
    # check_norm: shifting, negating and padding change no product d_{i+1} d_i.

    def shift(self) -> "ChainComplexC":
        """Degree shift by one: a zero object is prepended, all degrees move up."""
        zero = zero_object(self.backend)
        return replace(
            self,
            objects=(zero,) + self.objects,
            diffs=(zero_morphism(zero, self.objects[0]),) + self.diffs,
        )

    def negate_differentials(self) -> "ChainComplexC":
        return replace(self, diffs=tuple(scale_morphism(d, -1.0) for d in self.diffs))

    def padded(self, n: int) -> "ChainComplexC":
        """The complex followed by zero objects and zero differentials up to
        length n; the complex itself when it is at least that long."""
        if n <= self.length:
            return self
        objects = self.objects + (zero_object(self.backend),) * (n - self.length)
        tail = zip(objects[self.length - 1:-1], objects[self.length:])
        return replace(
            self,
            objects=objects,
            diffs=self.diffs + tuple(zero_morphism(a, b) for a, b in tail),
        )


def direct_sum_complexes(a: ChainComplexC, b: ChainComplexC) -> ChainComplexC:
    """Degreewise direct sum (the shorter complex is padded with zeros)."""
    n = max(a.length, b.length)
    a, b = a.padded(n), b.padded(n)
    return ChainComplexC(
        tuple(map(direct_sum_objects, a.objects, b.objects)),
        tuple(map(direct_sum_morphisms, a.diffs, b.diffs)),
        max(a.check_norm, b.check_norm),
    )


@dataclass
class DegreeCohomology:
    """Extended cohomology data of one degree."""

    degree: int
    betti: float
    verdict: DetClassVerdict
    ns: float | None

    @property
    def tau_trivial(self) -> bool:
        return self.verdict.convergent


@dataclass
class CohomologyProfile:
    degrees: list

    def betti(self, i: int) -> float:
        return self.degrees[i].betti

    @property
    def determinant_class(self) -> bool:
        return all(d.verdict.convergent for d in self.degrees)


def cohomology(c: ChainComplexC, tol: float = DEFAULT_RANK_TOL) -> CohomologyProfile:
    """Extended cohomology of the complex, degree by degree.

    Everything is read off one Hodge split of the complex. In degree i the
    extended object is (d: C^{i-1} -> ker d_i). Its trace-Betti number is
    the dimension of the kernel of the Laplacian Delta_i: the harmonic
    dimension plus the mass of the eigenvalues s^2 (s a singular value of
    d_{i-1} or d_i) at or below ``tol`` times the largest one of the degree
    and fiber. Its verdict and Novikov-Shubin exponent come from the
    density of the singular values of d_{i-1} on the co-exact part, and
    degree 0 has no exponent.
    """
    from .torsion import hodge_split  # torsion imports this module

    split = hodge_split(c, tol)
    betti, verdicts = split.betti(), split.detclass()
    return CohomologyProfile([
        DegreeCohomology(
            degree=i,
            betti=betti[i],
            verdict=verdicts[i],
            ns=None if i == 0 else ns_exponent(split.densities[i - 1]),
        )
        for i in range(c.length)
    ])


def determinant_class_test(c: ChainComplexC) -> list:
    """Per-degree determinant-class verdicts for the complex.

    Degree i classifies the kept singular values of d_{i-1} on the
    co-exact part, read off the Hodge split; degree 0 gets the verdict of
    an empty density. The complex is of determinant class iff every degree
    is Convergent.
    """
    from .torsion import hodge_split  # torsion imports this module

    return hodge_split(c).detclass()


# ---------------------------------------------------------------------------
# morphisms of extended objects


def check_extended_morphism(
    x: ExtendedObject, y: ExtendedObject, f: Morphism, fprime: Morphism
) -> None:
    """Raise :class:`ShapeMismatchError` unless f alpha = beta f'
    numerically (:func:`commutes`), with alpha and beta the maps of x and y."""
    if not commutes(f, x.alpha, y.alpha, fprime):
        raise ShapeMismatchError("the pair (f, f') does not intertwine alpha, beta")


def _graph_map(x: ExtendedObject, y: ExtendedObject, f: Morphism, fprime: Morphism):
    """The two maps of the mapping sequence A' -> B' (+) A -> B."""
    mid = direct_sum_objects(y.source, x.target)
    g = Morphism(x.source, mid, block_matrix([[fprime], [x.alpha]]))
    h = Morphism(mid, y.target, block_matrix([[y.alpha, scale_morphism(f, -1.0)]]))
    return g, h


def extended_pushforward(
    x: ExtendedObject,
    y: ExtendedObject,
    f: Morphism,
    fprime: Morphism,
    element: DetLineElement,
) -> DetLineElement:
    """Push an element of det(X) to det(Y) along an extended-category iso [f].

    The frames "target" over A and "source" over A' (the frames of
    :func:`det_line_of_extended`) move to B and B'; other frames stay.

    The mapping sequence A' --g--> B'(+)A --h--> B must be exact (that is
    what makes [f] invertible); the determinant line map is then the
    exact-sequence isomorphism det(B'(+)A) = det(A') (x) det(B) in the
    native frames, which scales by the Fuglede-Kadison determinants of the
    two maps: gen(B')gen(A) = exp(log Det h - log Det g) gen(A')gen(B).
    Both determinants and the exactness ranks are read off the values-only
    SVDs that :func:`check_exactness` takes of the two maps. The result
    depends only on the class [f]: changing f by beta composed with
    anything leaves it unchanged.
    """
    check_extended_morphism(x, y, f, fprime)
    g, h = _graph_map(x, y, f, fprime)
    try:
        g_svd, h_svd = check_exactness(g, h)
    except NotExactError as exc:
        raise NotAnIsomorphismError(
            f"mapping sequence of [f] is not exact: {exc}"
        ) from exc
    w = g.backend.fiber_weights
    log_factor = h_svd.log_det(w) - g_svd.log_det(w)

    word, seen = [], {"source"} if x.source.dim_tau == 0 else set()
    for frame, e in element.word:
        for label, old, new in (("target", x.target, y.target), ("source", x.source, y.source)):
            if frame.label == label and frame.obj.same_space(old):
                seen.add(label)
                if new.dim_tau > 0:
                    word.append((Frame(new, label), e))
                break
        else:
            word.append((frame, e))
    if len(seen) < 2:
        raise ShapeMismatchError("element does not carry the frames of det(X)")
    return DetLineElement(tuple(word), element.log_coeff + log_factor)


@dataclass
class KernelCokernelLines:
    """Kernel and cokernel of an extended morphism with their line data.

    The factorization det(Y) (x) det(X)^* = det(coker) (x) det(ker)^* holds
    with zero correction in these frames because all subobject frames are
    chosen orthonormal; the scalar content lives in the canonical
    trivializations of the two sides.
    """

    kernel: ExtendedObject
    cokernel: ExtendedObject


def kernel_cokernel_lines(
    x: ExtendedObject, y: ExtendedObject, f: Morphism, fprime: Morphism
) -> KernelCokernelLines:
    """Kernel and cokernel of [f]: X -> Y in the extended category.

    coker([f]) is presented by (beta, -f): B'(+)A -> B and ker([f]) by the
    map a' -> (f'(a'), alpha(a')) into the kernel of (beta, -f).
    """
    check_extended_morphism(x, y, f, fprime)
    g, h = _graph_map(x, y, f, fprime)
    svd = fiber_svds(h)
    kernel = subobject_from_std_frames(h.source, svd.kernel())
    iota = kernel.compress(g, full_subobject(g.source))
    return KernelCokernelLines(extended_object(iota), _extended(h, svd))
