"""Torsion of chain complexes as a determinant-line element.

The torsion of a complex C is the image of a volume element of det(C) under
the canonical isomorphism nu onto det of (extended) cohomology. The
computation splits the complex at a spectral cut epsilon of the Laplacians:
the part above epsilon is strictly acyclic and contributes a closed-form
log-determinant; the part below epsilon carries the kernel and the
near-zero spectrum and goes through nu degree by degree. The combined
element does not depend on the cut. Both parts, the cut and the verdicts
are read off one Hodge decomposition of the complex: one SVD of each
differential on each fiber.

No determinant-class assumption is made anywhere: degrees whose torsion
part has a divergent (or inconclusive) spectral certificate simply keep
their frames in the output word instead of collapsing to a scalar.
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
    SubObject,
    add,
    align,
    block_matrix,
    complement,
    compose,
    direct_sum_objects,
    fiber_svds,
    hermitian,
    identity_morphism,
    largest_block_norm,
    partition,
    scale_morphism,
    subobject_from_std_frames,
    zero_morphism,
)
from .detline import (
    DetLineElement,
    Frame,
    check_exactness,
    orthogonal_section,
)
from .errors import (
    InputValidationError,
    L2TorsionError,
    NotAChainMapError,
    NotAcyclicError,
)
from .extcoh import ChainComplexC
from .spectral import (
    SpectralDensity,
    classify_determinant,
    empty_verdict,
    singular_density,
)


def complex_det_element(
    c: ChainComplexC, prefix: str = "C", log_coeff: float = 0.0
) -> DetLineElement:
    """Unit volume element of det(C) = (x)_i det(C^i)^((-1)^i)."""
    word = []
    for i, obj in enumerate(c.objects):
        if obj.dim_tau > 0:
            word.append((Frame(obj, f"{prefix}{i}"), (-1) ** i))
    return DetLineElement(tuple(word), log_coeff)


def _no_columns(obj: HObject) -> Fibers:
    """Frames of the zero subspace of obj, in standardized coordinates."""
    return Fibers(
        [(idx, np.zeros((len(idx), d, 0), complex)) for idx, d in obj.dim_groups()],
        len(obj.dims),
    )


@dataclass
class HodgeSplit:
    """Per-degree orthogonal decomposition C^i = Harm (+) cl(im d) (+) W,
    read off one fiberwise SVD of each differential.

    With d_i standardized on fiber f as U diag(s) Vh and its first r
    singular values kept by the rank cut, W^i is spanned by the leading r
    rows of Vh, ker d_i by the trailing rows, and cl(im d_i) by the leading
    r columns of U. In these frames the restricted differential
    W^i -> cl(im d_i) is diag(s[:r]): column j of ``coexact[i]`` on fiber f
    goes to the j-th kept value of d_i on fiber f times column j of
    ``boundaries[i + 1]``. The nonzero Laplacian eigenvalues of the complex
    are the squares of the kept values. The harmonic part is what is left:
    Harm^i = (B^i (+) W^i)^perp with B^i = cl(im d_{i-1}), the complement
    of the two frames side by side in standardized coordinates (one QR per
    shape group whose width lies strictly between 0 and the dimension).

    The frames are :class:`Fibers` shape groups, so fibers of different
    rank sit in different groups. ``singular[i]`` keeps the kept values of
    d_i flat, as :class:`FiberValues` (values plus the fiber of each, in
    column order within a fiber), so that every reading below is an array
    expression over all fibers at once.

    ``clear[i]`` is the Laplacian's rank cut on those values, decided once
    here: two masks, whether s^2 lies above tol times the largest
    eigenvalue of Delta_i (in C^i) and of Delta_{i+1} (in C^{i+1}) on the
    fiber of s, or counts as kernel there. The default epsilon, the
    epsilon cut and the trace-Betti numbers all read it.

    Every complex-level report reads the split through :meth:`detclass`
    and :meth:`betti`, so the torsion report, the extended cohomology and
    the determinant-class test cannot drift apart.
    """

    harmonic: list
    boundaries: list  # boundaries[i] = cl(im d_{i-1}) in C^i
    coexact: list  # coexact[i] = W^i = (ker d_i)^perp
    singular: list  # singular[i] = kept singular values of d_i, flat
    verdicts: list  # certificate for each restricted differential
    weights: np.ndarray  # trace weight of each fiber
    clear: list = field(default_factory=list)  # clear[i] = (in C^i, in C^(i+1))

    def density(self, i: int) -> SpectralDensity:
        """Trace-weighted density of the kept singular values of d_i."""
        return SpectralDensity.from_fibers(self.singular[i], self.weights)

    def detclass(self) -> list:
        """Determinant-class verdict of each degree: degree i certifies the
        restricted d_{i-1}, and degree 0, with no incoming differential,
        gets the verdict of an empty density."""
        return [empty_verdict(0.0)] + self.verdicts

    def betti(self) -> list:
        """Trace-Betti numbers of the complex: the harmonic dimensions plus
        the mass of the values whose s^2 the Laplacian's rank cut counts as
        kernel, those of d_{i-1} and of d_i in degree i."""
        kernel = [[np.zeros(0, np.intp)] for _ in self.harmonic]
        for i, (v, cut) in enumerate(zip(self.singular, self.clear)):
            for fibers, clear in zip(kernel[i:i + 2], cut):
                fibers.append(v.fiber[~clear])
        return [h.dim_tau + float(self.weights[np.concatenate(k)].sum())
                for h, k in zip(self.harmonic, kernel)]


def _laplacian_cut(singular: list, weights: np.ndarray, tol: float) -> list:
    """Per differential d_i, the masks over its kept values s of whether
    s^2 clears tol times the largest eigenvalue of Delta_i and of
    Delta_{i+1} on the fiber of s (the largest s^2 of d_{i-1} and d_i, and
    of d_i and d_{i+1}). The cut compares (s / largest s)^2 with tol, so
    that it holds where s^2 overflows or underflows."""
    top = [np.zeros(len(weights)) for _ in range(len(singular) + 1)]
    for i, v in enumerate(singular):
        for t in top[i:i + 2]:
            np.maximum.at(t, v.fiber, v.values)
    return [tuple((v.values / t[v.fiber]) ** 2 > tol for t in top[i:i + 2])
            for i, v in enumerate(singular)]


def hodge_split(c: ChainComplexC, tol: float = DEFAULT_RANK_TOL) -> HodgeSplit:
    split = HodgeSplit([], [], [], [], [], c.backend.fiber_weights)
    scale = c.fiber_scales()
    # standardized frames of B^i = cl(im d_{i-1}) and of W^i; B^0 and the
    # last W are empty
    images, coimages = [_no_columns(c.objects[0])], []
    for i, d in enumerate(c.diffs):
        svd = fiber_svds(d, tol, scale)
        images.append(svd.image())
        coimages.append(svd.coimage())
        split.singular.append(svd.kept())
        split.verdicts.append(classify_determinant(split.density(i)))
    coimages.append(_no_columns(c.objects[-1]))
    for obj, b, w in zip(c.objects, images, coimages):
        split.boundaries.append(subobject_from_std_frames(obj, b))
        split.coexact.append(subobject_from_std_frames(obj, w))
        both = Fibers([(idx, np.concatenate(st, axis=2)) for idx, st in align(b, w)], b.n)
        split.harmonic.append(subobject_from_std_frames(obj, complement(both)))
    split.clear = _laplacian_cut(split.singular, split.weights, tol)
    return split


def _fold(split: HodgeSplit, values: list, prefix: str) -> tuple:
    """nu on a part of the split: ``values[i]`` are the singular values of
    d_i that the part holds.

    The restricted differential identifies the part's share of W^i with
    that of cl(im d_i), and the pair cancels out of the determinant word
    with the pair's extended log-determinant, sign (-1)^(i+1), when it is
    certified Convergent; otherwise both frames stay in the word. Returns
    (log-coefficient, word).

    The values get no rank cut of their own: the split's cut,
    tol * max(largest value of the fiber, fiber scale of the complex), is
    at least the cut a subcomplex would draw from its own values and scale,
    so every value would pass it.
    """
    log_coeff, word = 0.0, []
    for i, kept in enumerate(values):
        backend = split.coexact[i].ambient.backend
        space = HObject(backend, kept.counts(len(split.weights)))
        if space.dim_tau <= 0:
            continue
        density = SpectralDensity.from_fibers(kept, split.weights)
        verdict = classify_determinant(density)
        if verdict.convergent:
            log_coeff += (-1) ** (i + 1) * verdict.log_integral
        else:
            word.append((Frame(space, f"{prefix}:W{i}"), (-1) ** i))
            word.append((Frame(space, f"{prefix}:B{i + 1}"), (-1) ** (i + 1)))
    return log_coeff, word


def _pushed(c, split, sigma, values, prefix) -> DetLineElement:
    """sigma (the unit volume element of det(C) when None) pushed through nu
    on the part of the split whose singular values of d_i are ``values[i]``:
    its coefficient rebased onto the complex's products, the harmonic
    frames, and the part folded by :func:`_fold`.

    Each frame of sigma is matched to its degree and rebased from its own
    products onto the complex's; raises when sigma is not an element of
    det(C).
    """
    if sigma is None:
        sigma = complex_det_element(c)
    log_coeff = sigma.log_coeff
    matched = [False] * c.length
    for frame, e in sigma.word:
        for i, obj in enumerate(c.objects):
            if not matched[i] and frame.obj.same_space(obj) and e == (-1) ** i:
                log_coeff += -(e / 2.0) * (frame.log_det_product - obj.log_det_product())
                matched[i] = True
                break
        else:
            raise L2TorsionError("input element does not match det of the complex")
    if any(obj.dim_tau > 0 and not m for obj, m in zip(c.objects, matched)):
        raise L2TorsionError("input element does not match det of the complex")
    folded, unfolded = _fold(split, values, prefix)
    word = [(Frame(h.space, f"{prefix}{i}"), (-1) ** i)
            for i, h in enumerate(split.harmonic) if h.dim_tau > 0]
    return DetLineElement(tuple(word + unfolded), log_coeff + folded)


def nu_map(
    c: ChainComplexC,
    sigma: DetLineElement | None = None,
    tol: float = DEFAULT_RANK_TOL,
) -> DetLineElement:
    """Canonical isomorphism nu: det(C) -> det(extended cohomology of C).

    Each C^i splits orthogonally into harmonic, boundary, and co-exact
    parts; the restriction of d_i identifies the co-exact part of C^i with
    the boundary part of C^{i+1}, and each such pair cancels out of the
    determinant word, contributing the (extended) log-determinant of the
    restricted differential with alternating sign. Harmonic frames survive
    as the cohomology word. Degrees whose restricted differential is not
    certified convergent are left unfolded: their co-exact/boundary frames
    stay in the word and no scalar contribution is recorded for them.
    """
    split = hodge_split(c, tol)
    return _pushed(c, split, sigma, split.singular, "H")


def _check_formulas(via_laplacian: float, via_svd: float) -> float:
    """Deviation of the two acyclic torsion formulas; raises above
    1e-8 * max(1, |Laplacian value|)."""
    if not math.isclose(via_svd, via_laplacian, rel_tol=0.0,
                        abs_tol=1e-8 * max(1.0, abs(via_laplacian))):
        raise L2TorsionError(
            "Laplacian and restricted-differential torsion formulas disagree: "
            f"{via_laplacian} vs {via_svd}"
        )
    return abs(via_svd - via_laplacian)


def torsion_acyclic(
    c: ChainComplexC, tol: float = DEFAULT_RANK_TOL, cross_check: bool = True
) -> float:
    """log-torsion of a strictly acyclic complex.

    Computed as (1/2) sum_i (-1)^i i log Det(Delta_i) and cross-checked
    against the product of restricted-differential determinants coming out
    of the nu construction; disagreement beyond 1e-8 raises. In
    standardized coordinates Delta_i = F_i^* F_i with F_i = [d_i; d_{i-1}^*]
    stacked, so log Det(Delta_i) is twice the log moment of the singular
    values of F_i (one values-only SVD per degree; nothing is squared).
    Values at or below sqrt(tol) times the largest of their fiber count as
    kernel: the cut tol * (largest eigenvalue) on Delta_i.
    """
    std, n = [d.standardized_blocks() for d in c.diffs], c.backend.n_fibers
    total = 0.0
    for i, obj in enumerate(c.objects):
        parts = std[i:i + 1] + [b.map(hermitian) for b in std[max(i - 1, 0):i]]
        # no adjacent differential: F_i has no rows and C^i is all kernel
        f = (Fibers([(idx, np.concatenate(st, axis=1)) for idx, st in align(*parts)], n)
             if parts else _no_columns(obj).map(hermitian))
        factor = Morphism(HObject(c.backend, obj.dim_array), HObject(c.backend, f.sizes(0)), f)
        density = singular_density(factor, math.sqrt(tol))
        if density.zero_mass > 1e-8:
            raise NotAcyclicError(f"Laplacian in degree {i} has a kernel")
        total += (-1) ** i * i * density.log_moment()
    if cross_check:
        via_nu = nu_map(c, tol=tol)
        if via_nu.word:
            raise NotAcyclicError("complex is not acyclic within tolerance")
        _check_formulas(total, via_nu.log_coeff)
    return total


# ---------------------------------------------------------------------------
# epsilon splitting


def _low(split: HodgeSplit, eps: float) -> list:
    """Per degree i, the mask of the singular values of d_i that go to the
    part at or below eps: s^2 <= eps, or s^2 under the Laplacian's rank cut
    in C^i or in C^{i+1}, where the large part would count it as kernel.
    Each mask stays a cut on the values of its fiber."""
    with np.errstate(over="ignore"):
        return [(v.values * v.values <= eps) | ~here | ~there
                for v, (here, there) in zip(split.singular, split.clear)]


def _epsilon(split: HodgeSplit) -> float | None:
    positive = np.concatenate([np.zeros(0)] + [
        v.values[here | there] for v, (here, there) in zip(split.singular, split.clear)
    ])
    if not len(positive):
        return None
    with np.errstate(over="ignore"):
        lo, hi = np.square([positive.min(), positive.max()]).tolist()
    return max(math.sqrt(lo * hi), hi * 1e-12)


def default_epsilon(c: ChainComplexC, tol: float = DEFAULT_RANK_TOL) -> float | None:
    """Geometric mean of the smallest above-threshold and the largest
    Laplacian eigenvalue; None when there is no positive spectrum.

    The eigenvalues are the squared singular values of the Hodge split;
    in each degree and fiber those at or below tol times the largest one
    count as zero, as they would for the Laplacian itself. Clamped from
    below at 1e-12 times the spectral top: when the spectrum accumulates at
    zero (the non-determinant-class situation) the geometric mean
    collapses, and the cut must stay high enough that the upper part
    remains numerically invertible; the near-zero mass belongs to the lower
    part, where it is reported through its certificate instead of a number.
    """
    return _epsilon(hodge_split(c, tol))


def _split_parts(c: ChainComplexC, split: HodgeSplit, low: list):
    """The two subcomplexes of the Hodge split for the masks ``low[i]``
    over the singular values of d_i (True for the part at or below epsilon).

    The harmonic part goes to the small side; a co-exact column of C^i and
    its image column in C^{i+1} go to the side their singular value picks.
    Each mask must be a cut on the values (as s^2 <= epsilon is), so that
    in each fiber it selects trailing columns: the large side is then a
    leading block of columns of every frame.

    The fibers are grouped once, by the widths of every Hodge frame and by
    every cut. Within a group every frame of both parts is a plain slice of
    the Hodge frames, and every compressed differential one batched product.
    """
    n = c.backend.n_fibers
    none = np.zeros(n, int)
    # large[i] counts, per fiber, the leading columns of boundaries[i]
    # (values of d_{i-1}) and large[i + 1] those of coexact[i] (values of d_i)
    large = [none] + [v.select(~m).counts(n) for v, m in zip(split.singular, low)] + [none]
    hodge = [(h.frames, b.frames, w.frames)
             for h, b, w in zip(split.harmonic, split.boundaries, split.coexact)]
    # one mixed-radix key over every width (one fiber needs none), below
    # ``bound`` and renumbered densely before it could overflow
    key, bound = none, 1
    for width in ([x.sizes(1) for fr in hodge for x in fr] + large[1:-1] if n > 1 else ()):
        radix = int(width.max()) + 1
        if bound * radix > 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max()) + 1
        key, bound = key * radix + width, bound * radix
    groups = [idx for idx, _ in partition(key)]
    # per part (small, then large) and degree, one stack per group of the
    # frames and of the compressed differentials
    frames, blocks = ([[[] for _ in xs] for _ in range(2)] for xs in (hodge, c.diffs))
    for idx in groups:
        for i, ((h, b, w), lb, lw) in enumerate(zip(hodge, large, large[1:])):
            hv, bv, wv, kb, kw = h.take(idx), b.take(idx), w.take(idx), lb[idx[0]], lw[idx[0]]
            frames[0][i].append(np.concatenate([hv, bv[:, :, kb:], wv[:, :, kw:]], axis=2))
            frames[1][i].append(np.concatenate([bv[:, :, :kb], wv[:, :, :kw]], axis=2))
        for i, d in enumerate(c.diffs):
            db, p = d.blocks.take(idx), c.objects[i + 1].gram
            for fr, bl in zip(frames, blocks):
                v = hermitian(fr[i + 1][-1])
                bl[i].append((v if p is None else v @ p.take(idx)) @ (db @ fr[i][-1]))
    norm = max((d.norm() for d in c.diffs), default=0.0)
    out = []
    for fr, bl in zip(frames, blocks):
        subs = [SubObject(obj, Fibers(list(zip(groups, g)), n)) for obj, g in zip(c.objects, fr)]
        diffs = tuple(Morphism(s.space, t.space, Fibers(list(zip(groups, g)), n))
                      for s, t, g in zip(subs, subs[1:], bl))
        out += [ChainComplexC(tuple(s.space for s in subs), diffs, check_norm=norm), subs]
    return out[0], out[2], out[1], out[3]


def split_complex(c: ChainComplexC, eps: float, tol: float = DEFAULT_RANK_TOL):
    """Split C into the [0, eps] and (eps, inf) spectral subcomplexes.

    Membership is decided once per singular value of the restricted
    differentials (the Laplacian eigenvalue is the singular value squared;
    one under the Laplacian's rank cut goes below eps too, see :func:`_low`)
    and the same decision is applied to the co-exact vector in one degree
    and its image in the next; that keeps the two subcomplexes exactly
    d-invariant even when eps falls inside a numerically degenerate
    eigenvalue pair.
    """
    split = hodge_split(c, tol)
    return _split_parts(c, split, _low(split, eps))


# ---------------------------------------------------------------------------
# the full torsion pipeline


@dataclass
class TorsionReport:
    """Result of the epsilon-split torsion computation."""

    epsilon: float | None
    rho_small: DetLineElement
    log_rho_large: float
    combined: DetLineElement
    detclass: list
    betti: list
    scalar_value: float | None
    checks: dict = field(default_factory=dict)

    @property
    def determinant_class(self) -> bool:
        return all(v.convergent for v in self.detclass)


def torsion(
    c: ChainComplexC,
    sigma: DetLineElement | None = None,
    epsilon: float | None = None,
    tol: float = DEFAULT_RANK_TOL,
    out_prefix: str = "H",
) -> TorsionReport:
    """Torsion of the complex as an element of det of extended cohomology.

    The complex is decomposed once, by :func:`hodge_split`, and everything
    is read off its singular values s:

    - the default ``epsilon``, the geometric mean of the spectral extremes
      of the Laplacians, whose nonzero eigenvalues are the s^2;
    - the determinant-class verdicts, those of the split one degree up;
    - the cut: s^2 <= epsilon, or s^2 under the Laplacian's rank cut, puts
      s in the small part, folded through nu together with the harmonic
      frames, and the rest in the strictly acyclic large part;
    - ``log_rho_large``, the signed sum of weighted log s over the large
      part, cross-checked against the Laplacian closed form of the large
      subcomplex (the deviation is ``checks["large_part_formulas"]``);
    - the trace-Betti numbers of the complex, the same at every epsilon
      and those of :func:`l2torsion.extcoh.cohomology`.

    A scalar value is reported only when the cohomology line is canonically
    trivial: zero trace-Betti numbers and a Convergent certificate in every
    degree.
    """
    if epsilon is not None and not epsilon > 0.0:
        raise InputValidationError("epsilon must be positive")
    return _torsion(c, hodge_split(c, tol), sigma, epsilon, tol, out_prefix)


def _torsion(c, split, sigma, epsilon, tol, out_prefix) -> TorsionReport:
    """The body of :func:`torsion`, on the Hodge split of c already taken."""
    if epsilon is None:
        epsilon = _epsilon(split)
    verdicts = split.detclass()

    low = _low(split, math.inf if epsilon is None else epsilon)
    small = [v.select(m) for v, m in zip(split.singular, low)]
    # the small part first, so that a mismatched sigma raises before the split
    rho_small = _pushed(c, split, sigma, small, out_prefix)
    log_rho_large, checks = 0.0, {}
    if epsilon is not None:
        # building both parts runs their d^2 = 0 checks
        _, large_c, _, _ = _split_parts(c, split, low)
        if any(o.dim_tau > 0 for o in large_c.objects):
            large = [v.select(~m) for v, m in zip(split.singular, low)]
            log_rho_large, unfolded = _fold(split, large, out_prefix)
            via_laplacian = torsion_acyclic(large_c, tol, cross_check=False)
            if unfolded:
                raise NotAcyclicError("complex is not acyclic within tolerance")
            checks["large_part_formulas"] = _check_formulas(via_laplacian, log_rho_large)

    betti = split.betti()
    combined = rho_small.scaled(log_rho_large)

    scalar_value = None
    if (
        combined.is_scalar
        and all(v.convergent for v in verdicts)
        and math.isfinite(combined.log_coeff)
        and all(b <= 1e-8 for b in betti)
    ):
        scalar_value = math.exp(combined.log_coeff)
    return TorsionReport(
        epsilon=epsilon,
        rho_small=rho_small,
        log_rho_large=log_rho_large,
        combined=combined,
        detclass=verdicts,
        betti=betti,
        scalar_value=scalar_value,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# long exact sequence and cones


def _is_chain_map(f_list, src: ChainComplexC, dst: ChainComplexC) -> None:
    if len(f_list) != src.length:
        raise InputValidationError(
            f"a chain map needs one map per degree: {src.length}, not {len(f_list)}")
    for i in range(src.length - 1):
        lhs = compose(dst.diffs[i], f_list[i])
        rhs = compose(f_list[i + 1], src.diffs[i])
        bound = max(
            dst.diffs[i].norm() * f_list[i].norm(),
            f_list[i + 1].norm() * src.diffs[i].norm(),
            1e-300,
        )
        if largest_block_norm(add(lhs, scale_morphism(rhs, -1.0))) > 1e-8 * bound:
            raise NotAChainMapError(f"square at degree {i} does not commute")


@dataclass
class LesIsomorphism:
    """Connecting isomorphism det H(L) (x) det H(N) -> det H(M).

    Built from the long exact cohomology sequence, realized on harmonic
    spaces: the alternating determinant word of that acyclic sequence is a
    scalar (its torsion), which is exactly the coefficient of the
    isomorphism relative to the harmonic frames.
    """

    log_factor: float
    h_middle: list  # harmonic subobjects of M
    prefix: str = "H"

    def apply(self, element: DetLineElement) -> DetLineElement:
        word = []
        for i, h in enumerate(self.h_middle):
            if h.dim_tau > 0:
                word.append((Frame(h.space, f"{self.prefix}{i}"), (-1) ** i))
        return DetLineElement(tuple(word), element.log_coeff + self.log_factor)


def les_connecting_iso(
    L: ChainComplexC,
    M: ChainComplexC,
    N: ChainComplexC,
    alpha: list,
    beta: list,
    tol: float = DEFAULT_RANK_TOL,
) -> LesIsomorphism:
    """Connecting isomorphism of a degreewise short exact sequence of
    complexes 0 -> L -> M -> N -> 0.

    The induced maps on harmonic spaces (orthogonal projections of alpha,
    beta, and of the zig-zag pullback alpha^+ d beta^+) assemble into one
    acyclic complex; its torsion, together with the degreewise
    identification of det M^i with det L^i (x) det N^i, gives the
    coefficient relating det H(L) (x) det H(N) to det H(M) in harmonic
    frames. alpha and beta are not isometric, so that identification
    scales by their Fuglede-Kadison determinants: degree i contributes
    (-1)^i (log Det alpha_i - log Det beta_i), read off the kept singular
    values of the SVDs that also give the exactness ranks and the sections.
    """
    harmonic = [hodge_split(x, tol).harmonic for x in (L, M, N)]
    return _les_connecting_iso(L, M, N, alpha, beta, tol, harmonic)


def _les_connecting_iso(L, M, N, alpha, beta, tol, harmonic) -> LesIsomorphism:
    """The body of :func:`les_connecting_iso`, on harmonic frames already taken."""
    n = M.length
    if L.length != n or N.length != n:
        raise InputValidationError("the three complexes must share their length")
    _is_chain_map(alpha, L, M)
    _is_chain_map(beta, M, N)
    # each map is decomposed once: the exactness check, the sections and the
    # base change all read the same SVDs
    svds = [(fiber_svds(a, tol), fiber_svds(b, tol)) for a, b in zip(alpha, beta)]
    for a, b, (sa, sb) in zip(alpha, beta, svds):
        check_exactness(a, b, tol, sa, sb)

    hl, hm, hn = harmonic

    alpha_pinv = [orthogonal_section(a, tol, sa) for a, (sa, _) in zip(alpha, svds)]
    beta_sec = [orthogonal_section(b, tol, sb) for b, (_, sb) in zip(beta, svds)]

    objects = tuple(h[i].space for i in range(n) for h in (hl, hm, hn))
    diffs = []
    for i in range(n):
        diffs += [hm[i].compress(alpha[i], hl[i]), hn[i].compress(beta[i], hm[i])]
        if i < n - 1:
            zig = compose(alpha_pinv[i + 1], compose(M.diffs[i], beta_sec[i]))
            diffs.append(hl[i + 1].compress(zig, hn[i]))
    les = ChainComplexC(objects, tuple(diffs))
    rho = nu_map(les, tol=tol)
    if rho.word:
        raise NotAcyclicError(
            "long exact sequence complex is not acyclic; the input sequence "
            "is not exact within tolerance"
        )
    w = M.backend.fiber_weights
    base_change = sum((-1) ** i * (sa.log_det(w) - sb.log_det(w))
                      for i, (sa, sb) in enumerate(svds))
    return LesIsomorphism(rho.log_coeff + base_change, hm)


def mapping_cone(c: ChainComplexC, ctilde: ChainComplexC, f_list) -> tuple:
    """Mapping cone of a chain map f: C -> C~.

    Cone^i = C^i (+) C~^{i-1} with differential [[-d, 0], [f, d~]]; returns
    (cone, sub_inclusions, quot_projections) for the sequence
    0 -> C~[1] -> Cone -> C(-d) -> 0.
    """
    return _cone_sequence(c, ctilde, f_list)[:3]


def _cone_sequence(c: ChainComplexC, ctilde: ChainComplexC, f_list) -> tuple:
    """:func:`mapping_cone` followed by the two end complexes of its
    sequence, C~[1] and C(-d) padded to the length of the cone."""
    if ctilde.length != c.length:
        raise InputValidationError("chain map endpoints must share their length")
    _is_chain_map(f_list, c, ctilde)
    sub = ctilde.shift()
    quot = c.negate_differentials().padded(sub.length)
    objects = tuple(map(direct_sum_objects, quot.objects, sub.objects))
    diffs = tuple(
        # f_i: C^i -> C~^i, which is the sub part of Cone^{i+1}
        Morphism(objects[i], objects[i + 1], block_matrix([
            [dq, zero_morphism(sub.objects[i], quot.objects[i + 1])],
            [f_i, ds],
        ]))
        for i, (dq, f_i, ds) in enumerate(zip(quot.diffs, f_list, sub.diffs))
    )
    inclusions, projections = [], []
    for q, s, obj in zip(quot.objects, sub.objects, objects):
        zero = zero_morphism(s, q)
        inclusions.append(Morphism(s, obj, block_matrix([[zero], [identity_morphism(s)]])))
        projections.append(Morphism(obj, q, block_matrix([[identity_morphism(q), zero]])))
    return ChainComplexC(objects, diffs), inclusions, projections, sub, quot


# largest deviation of the two log coefficients at which the cone check passes
CONE_AGREE_TOL = 1e-6


@dataclass
class ConeCheckReport:
    passed: bool
    log_lhs: float
    log_rhs: float
    deviation: float
    cone_report: TorsionReport


def cone_torsion_check(
    c: ChainComplexC,
    ctilde: ChainComplexC,
    f_list,
    tol: float = DEFAULT_RANK_TOL,
) -> ConeCheckReport:
    """Verify the cone torsion identity rho_cone = delta(rho_sub (x) rho_quot).

    The cone sits in the sequence 0 -> C~[1] -> Cone -> C(-d) -> 0; both
    sides are computed through the full pipeline and compared in log scale
    (harmonic frames on both sides are orthonormal over the same spaces, so
    comparing coefficients is comparing elements); the check passes when
    they differ by at most ``CONE_AGREE_TOL``.
    """
    cone, inclusions, projections, sub, quot = _cone_sequence(c, ctilde, f_list)
    splits = [hodge_split(x, tol) for x in (sub, cone, quot)]  # one split per complex
    rho_sub, rho_cone, rho_quot = (_torsion(x, split, None, None, tol, prefix) for x, split, prefix
                                   in zip((sub, cone, quot), splits, ("HL", "H", "HN")))
    delta = _les_connecting_iso(sub, cone, quot, inclusions, projections, tol,
                                [split.harmonic for split in splits])
    lhs = delta.apply(rho_sub.combined.tensor(rho_quot.combined))
    log_lhs = lhs.log_coeff
    log_rhs = rho_cone.combined.log_coeff
    dev = abs(log_lhs - log_rhs)
    return ConeCheckReport(
        passed=bool(dev <= CONE_AGREE_TOL),
        log_lhs=log_lhs,
        log_rhs=log_rhs,
        deviation=dev,
        cone_report=rho_cone,
    )
