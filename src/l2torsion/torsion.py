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

No determinant-class assumption is made anywhere: each differential is
certified once, and where that certificate is not Convergent its share of
the part below epsilon keeps its frames in the output word instead of
collapsing to a scalar. The part above epsilon has a gap, so it always folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from .backends import (
    DEFAULT_RANK_TOL,
    Fibers,
    HObject,
    Morphism,
    align,
    block_matrix,
    commutes,
    complement,
    compose,
    direct_sum_objects,
    fiber_range,
    fiber_svds,
    hermitian,
    identity_morphism,
    operator_norm,
    partition,
    subobject_from_std_frames,
    zero_morphism,
)
from .detline import (
    DetLineElement,
    Frame,
    alternating_word,
    check_exactness,
    orthogonal_section,
)
from .errors import (
    InputValidationError,
    L2TorsionError,
    NotAChainMapError,
    NotAcyclicError,
)
from .extcoh import ChainComplexC, check_d_squared
from .spectral import (
    SpectralDensity,
    classify_determinant,
    empty_verdict,
)


def complex_det_element(c: ChainComplexC) -> DetLineElement:
    """Unit volume element of det(C) = (x)_i det(C^i)^((-1)^i), in the frames
    "C"i."""
    return DetLineElement(alternating_word(c.objects, "C"))


def _no_columns(obj: HObject) -> Fibers:
    """Frames of the zero subspace of obj, in standardized coordinates."""
    return Fibers(
        [(idx, np.zeros((len(idx), d, 0), complex)) for idx, d in obj.dim_groups()],
        obj.backend.n_fibers,
    )


@dataclass
class HodgeSplit:
    """Per-degree orthogonal decomposition C^i = Harm (+) cl(im d) (+) W,
    read off one fiberwise SVD of each differential.

    With d_i standardized on fiber f as U diag(s) Vh and its first r
    singular values kept by the rank cut, W^i is spanned by the leading r
    rows of Vh, ker d_i by the trailing rows, and cl(im d_i) by the leading
    r columns of U. In these frames the restricted differential
    W^i -> cl(im d_i) is diag(s[:r]): column j of W^i on fiber f goes to
    the j-th kept value of d_i on fiber f times column j of B^{i+1}. The
    nonzero Laplacian eigenvalues of the complex are the squares of the
    kept values. The harmonic part is what is left:
    Harm^i = (B^i (+) W^i)^perp with B^i = cl(im d_{i-1}).

    The split keeps each differential's :class:`FiberSVD` (``svds``) and
    builds frames only when they are read. The widths of the three frames
    are read off the ranks alone (:attr:`widths`): boundary rank(d_{i-1}),
    co-exact rank(d_i), harmonic the rest of the dimension. The torsion
    word and the Betti numbers need only those, through
    :attr:`harmonic_spaces`. The frames themselves are built on first
    read and kept on this split, which belongs to one call: in
    standardized coordinates (:attr:`std_frames`, and :attr:`std_harmonic`
    by one QR per shape group whose width lies strictly between 0 and the
    dimension), which is all the epsilon split reads; and the harmonic
    part also as subobjects of the C^i (``harmonic``), for the long exact
    sequence, whose maps live in the complexes' own coordinates.

    ``singular[i]`` keeps the kept values of d_i flat, as
    :class:`FiberValues` (values plus the fiber of each, in column order
    within a fiber), so that every reading below is an array expression
    over all fibers at once. ``verdicts[i]`` certifies their density: the
    one determinant-class decision on d_i that every part reads.

    ``clear[i]`` is the Laplacian's rank cut on those values, decided once
    here: two masks, whether s^2 lies above tol times the largest
    eigenvalue of Delta_i (in C^i) and of Delta_{i+1} (in C^{i+1}) on the
    fiber of s, or counts as kernel there. The default epsilon, the
    epsilon cut and the trace-Betti numbers all read it.

    Every complex-level report reads the split through :meth:`detclass`
    and :meth:`betti`, so the torsion report, the extended cohomology and
    the determinant-class test cannot drift apart.
    """

    objects: tuple  # the C^i
    svds: list  # svds[i] = FiberSVD of d_i standardized
    singular: list  # singular[i] = kept singular values of d_i, flat
    densities: list  # densities[i] = their trace-weighted density
    verdicts: list  # verdicts[i] = certificate of densities[i]
    weights: np.ndarray  # trace weight of each fiber
    clear: list  # clear[i] = (in C^i, in C^(i+1))

    @cached_property
    def widths(self) -> list:
        """Per degree, the fiber widths (harmonic, boundary, co-exact):
        dim - rank(d_{i-1}) - rank(d_i) (at least 0), rank(d_{i-1}) and
        rank(d_i), with no rank before d_0 or after the last differential."""
        none = np.zeros(len(self.weights), int)
        ranks = [none] + [svd.rank for svd in self.svds] + [none]
        return [(np.maximum(obj.dim_array - b - w, 0), b, w)
                for obj, b, w in zip(self.objects, ranks, ranks[1:])]

    @cached_property
    def harmonic_spaces(self) -> list:
        """The objects Harm^i, of the harmonic widths."""
        return [HObject(obj.backend, h) for obj, (h, _, _) in zip(self.objects, self.widths)]

    @cached_property
    def std_frames(self) -> list:
        """Per degree, the frames (B^i, W^i) in standardized coordinates:
        the image of d_{i-1} and the co-image of d_i; B^0 and the last W
        are empty."""
        images = [_no_columns(self.objects[0])] + [svd.image() for svd in self.svds]
        coimages = [svd.coimage() for svd in self.svds] + [_no_columns(self.objects[-1])]
        return list(zip(images, coimages))

    @cached_property
    def std_harmonic(self) -> list:
        """Per degree, the frames of Harm^i in standardized coordinates:
        the complement of B^i and W^i side by side."""
        return [complement(Fibers([(idx, np.concatenate(st, axis=2)) for idx, st in align(b, w)],
                                  b.n))
                for b, w in self.std_frames]

    @cached_property
    def harmonic(self) -> list:  # harmonic[i] = Harm^i as a subobject of C^i
        return [subobject_from_std_frames(o, h) for o, h in zip(self.objects, self.std_harmonic)]

    def detclass(self) -> list:
        """Determinant-class verdict of each degree: degree i certifies the
        restricted d_{i-1}, and degree 0, with no incoming differential,
        gets the verdict of an empty density."""
        return [empty_verdict(0.0)] + self.verdicts

    def betti(self) -> list:
        """Trace-Betti numbers of the complex: the harmonic dimensions plus
        the mass of the values whose s^2 the Laplacian's rank cut counts as
        kernel, those of d_{i-1} and of d_i in degree i."""
        kernel = [[np.zeros(0, np.intp)] for _ in self.objects]
        for i, (v, cut) in enumerate(zip(self.singular, self.clear)):
            for fibers, clear in zip(kernel[i:i + 2], cut):
                fibers.append(v.fiber[~clear])
        return [h.dim_tau + float(self.weights[np.concatenate(k)].sum())
                for h, k in zip(self.harmonic_spaces, kernel)]


def _laplacian_cut(svds: list, singular: list, tol: float) -> list:
    """Per differential d_i, the masks over its kept values s (``singular[i]``)
    of whether s^2 clears tol times the largest eigenvalue of Delta_i and of
    Delta_{i+1} on the fiber of s (the largest s^2 of d_{i-1} and d_i, and
    of d_i and d_{i+1}; that of d_i leads its group in ``svds[i]``). The cut
    compares (s / largest s)^2 with tol, so that it holds where s^2
    overflows or underflows."""
    tops = [np.zeros(len(svd.rank)) for svd in svds]
    for top, svd in zip(tops, svds):
        for idx, _, s, _, r in svd.groups:
            if r:
                top[idx] = s[:, 0]
    top = tops[:1] + [np.maximum(a, b) for a, b in zip(tops, tops[1:])] + tops[-1:]
    return [tuple((v.values / t[v.fiber]) ** 2 > tol for t in top[i:i + 2])
            for i, v in enumerate(singular)]


def hodge_split(c: ChainComplexC, tol: float = DEFAULT_RANK_TOL) -> HodgeSplit:
    split = HodgeSplit(c.objects, [], [], [], [], c.backend.fiber_weights, [])
    scale = c.fiber_scales()
    for d in c.diffs:
        svd = fiber_svds(d, tol, scale)
        split.svds.append(svd)
        split.singular.append(svd.kept())
        split.densities.append(SpectralDensity.from_fibers(split.singular[-1], split.weights))
        split.verdicts.append(classify_determinant(split.densities[-1]))
    split.clear = _laplacian_cut(split.svds, split.singular, tol)
    return split


def _fold(split: HodgeSplit, values: list, prefix: str) -> tuple:
    """nu on a part of the split: ``values[i]`` are the singular values of
    d_i that the part holds.

    The restricted differential identifies the part's share of W^i with
    that of cl(im d_i). When the split certifies d_i Convergent (then so is
    every part of its spectrum), the pair cancels out of the word with the
    weighted log sum of the values, sign (-1)^(i+1); otherwise both frames
    stay in the word. Returns (log-coefficient, word).

    The values get no rank cut of their own: the split's cut,
    tol * max(largest value of the fiber, fiber scale of the complex), is
    at least the cut a subcomplex would draw from its own values and scale,
    so every value would pass it.
    """
    log_coeff, word = 0.0, []
    for i, (kept, verdict) in enumerate(zip(values, split.verdicts)):
        if verdict.convergent:
            log_coeff += (-1) ** (i + 1) * kept.log_det(split.weights)
            continue
        space = HObject(split.objects[i].backend, kept.counts(len(split.weights)))
        if space.dim_tau > 0:
            word.append((Frame(space, f"{prefix}:W{i}"), (-1) ** i))
            word.append((Frame(space, f"{prefix}:B{i + 1}"), (-1) ** (i + 1)))
    return log_coeff, word


def _pushed(split: HodgeSplit, log_coeff: float, values: list, prefix: str) -> DetLineElement:
    """exp(log_coeff) times the unit volume element of det(C) in C's own
    frames (:func:`complex_det_element`), pushed through nu on the part of
    the split whose singular values of d_i are ``values[i]``: the harmonic
    frames ``prefix``i, and the part folded by :func:`_fold` into the
    coefficient or the word."""
    folded, unfolded = _fold(split, values, prefix)
    word = alternating_word(split.harmonic_spaces, prefix)
    return DetLineElement(word + tuple(unfolded), log_coeff + folded)


def nu_map(c: ChainComplexC) -> DetLineElement:
    """Canonical isomorphism nu: det(C) -> det(extended cohomology of C), on
    the unit volume element of det(C), in the harmonic frames "H"i.

    Each C^i splits orthogonally into harmonic, boundary, and co-exact
    parts; the restriction of d_i identifies the co-exact part of C^i with
    the boundary part of C^{i+1}, and each such pair cancels out of the
    determinant word, contributing the (extended) log-determinant of the
    restricted differential with alternating sign. Harmonic frames survive
    as the cohomology word. Degrees whose restricted differential is not
    certified convergent are left unfolded: their co-exact/boundary frames
    stay in the word and no scalar contribution is recorded for them.
    """
    split = hodge_split(c)
    return _pushed(split, 0.0, split.singular, "H")


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


def _laplacian_torsion(std: list, dims: list, weights: np.ndarray, tol: float) -> float:
    """(1/2) sum_i (-1)^i i log Det(Delta_i) of the complex whose
    differentials in orthonormal coordinates are the Fibers ``std`` and
    whose degree i has the fiber dimensions ``dims[i]``; raises
    :class:`NotAcyclicError` when a Laplacian has a kernel.

    Delta_i = F_i^* F_i with F_i = [d_i; d_{i-1}^*] stacked, so
    log Det(Delta_i) is twice the weighted log sum of the kept singular
    values of F_i (one values-only SVD per distinct factor; nothing is
    squared or sorted). With one differential, F_0 = d_0 and F_1 = d_0^*
    share their singular values, so one SVD serves both degrees. Values at
    or below sqrt(tol) times the largest of their fiber count as kernel:
    the cut tol * (largest eigenvalue) on Delta_i.
    """
    total, svd = 0.0, None
    for i, dim in enumerate(dims):
        if i == 0 or len(std) > 1:  # one differential: F_1 = d_0^* has the values of F_0 = d_0
            parts = std[i:i + 1] + [b.map(hermitian) for b in std[max(i - 1, 0):i]]
            if len(parts) > 1:
                parts = [Fibers([(idx, np.concatenate(st, axis=1)) for idx, st in align(*parts)],
                                len(weights))]
            svd = parts and fiber_svds(parts[0], math.sqrt(tol), vectors=False)
        if svd:
            kernel, log_det = svd.kernel_mass(weights, dim), svd.log_det(weights) if i else 0.0
        else:  # no adjacent differential: F_i has no rows and C^i is all kernel
            kernel, log_det = float(np.dot(weights, dim)), 0.0
        if kernel > 1e-8:
            raise NotAcyclicError(f"Laplacian in degree {i} has a kernel")
        total += (-1) ** i * i * log_det
    return total


def torsion_acyclic(c: ChainComplexC, cross_check: bool = True) -> float:
    """log-torsion of a strictly acyclic complex.

    Computed by the Laplacian formula (1/2) sum_i (-1)^i i log Det(Delta_i)
    on the standardized differentials (see :func:`_laplacian_torsion`) and
    cross-checked against the product of restricted-differential
    determinants coming out of the nu construction; disagreement beyond
    1e-8 raises.
    """
    total = _laplacian_torsion([d.standardized_blocks() for d in c.diffs],
                               [o.dim_array for o in c.objects], c.backend.fiber_weights,
                               DEFAULT_RANK_TOL)
    if cross_check:
        via_nu = nu_map(c)
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


def default_epsilon(c: ChainComplexC) -> float | None:
    """Geometric mean of the smallest above-threshold and the largest
    Laplacian eigenvalue; None when there is no positive spectrum.

    The eigenvalues are the squared singular values of the Hodge split;
    in each degree and fiber those at or below ``DEFAULT_RANK_TOL`` times
    the largest one count as zero, as they would for the Laplacian itself.
    Clamped from below at 1e-12 times the spectral top: when the spectrum
    accumulates at zero (the non-determinant-class situation) the geometric
    mean collapses, and the cut must stay high enough that the upper part
    remains numerically invertible; the near-zero mass belongs to the lower
    part, where it is reported through its certificate instead of a number.
    """
    return _epsilon(hodge_split(c))


def _split_parts(c: ChainComplexC, split: HodgeSplit, low: list, small: bool = True):
    """The large part of the Hodge split for the masks ``low[i]`` over the
    singular values of d_i (True for the part at or below epsilon), and the
    small part when ``small``, as raw stacks in standardized coordinates.

    The harmonic part goes to the small side; a co-exact column of C^i and
    its image column in C^{i+1} go to the side their singular value picks.
    Each mask must be a cut on the values (as s^2 <= epsilon is), so that
    in each fiber it selects trailing columns: the large side is then a
    leading block of columns of every frame.

    Every frame is a slice of the split's standardized frames
    (:attr:`HodgeSplit.std_frames`, and :attr:`HodgeSplit.std_harmonic`
    for the small part), and every differential is compressed from its
    standardized blocks, with no product term. With ``small`` the stacks
    cover every fiber; without it they cover only the fibers ``fibers``
    that hold a column of the large part (all fibers as ``fiber_range``),
    and no harmonic frame and no stack of an empty large part is built.
    Those fibers are grouped once, by every cut and by the widths the parts
    read. Within a group every frame of both parts is a plain slice of the
    Hodge frames (one side's slice alone where the other is empty), and
    every compressed differential one batched product.

    Returns ``fibers``, the groups (arrays of positions in ``fibers``), the
    parts, the large one first, and the dimensions of the large part in
    each degree, one per fiber of ``fibers``. A part is (frames, diffs):
    ``frames[i]`` and ``diffs[i]`` hold one stack per group, of the part's
    frames in C^i and of d_i compressed between the part's frames.
    """
    n = c.backend.n_fibers
    none = np.zeros(n, int)
    # large[i] counts, per fiber, the leading columns of B^i (values of
    # d_{i-1}) and large[i + 1] those of W^i (values of d_i)
    large = [none] + [v.select(~m).counts(n) for v, m in zip(split.singular, low)] + [none]
    widths = [lb + lw for lb, lw in zip(large, large[1:])]
    # one mixed-radix key over every width the parts read (the large part
    # only the ranks, and the dimensions where they vary) that is not all
    # zero (one fiber needs none), below ``bound`` and renumbered densely
    # before it could overflow
    read = ([x for ws in split.widths for x in ws] if small else [s.rank for s in split.svds]
            + [o.dim_array for o in c.objects if o.uniform_dim is None])
    key, bound = none, 1
    for width in (read + large[1:-1] if n > 1 else ()):
        radix = int(width.max()) + 1
        if radix == 1:
            continue
        if bound * radix > 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max()) + 1
        key, bound = key * radix + width, bound * radix
    if small:
        fibers, harmonic = fiber_range(n), split.std_harmonic
    else:
        held, harmonic = np.any(widths, axis=0), [None] * len(c.objects)
        fibers = fiber_range(n) if held.all() else np.flatnonzero(held)
        if len(fibers) < n:
            key, widths = key[fibers], [w[fibers] for w in widths]
    maps = [d.standardized_blocks() for d in c.diffs]
    groups = [idx for idx, _ in partition(key)]
    # per part (large, then small) and degree, one stack per group of the
    # frames and of the compressed differentials
    frames, blocks = ([[[] for _ in xs] for _ in range(1 + small)] for xs in (harmonic, maps))
    for idx in groups:
        at = fibers if len(idx) == len(fibers) else fibers[idx]
        for i, (h, (b, w), lb, lw) in enumerate(zip(harmonic, split.std_frames, large, large[1:])):
            bv, wv, kb, kw = b.take(at), w.take(at), lb[at[0]], lw[at[0]]
            frames[0][i].append(np.concatenate([bv[:, :, :kb], wv[:, :, :kw]], axis=2)
                                if kb and kw else wv[:, :, :kw] if kw else bv[:, :, :kb])
            if small:
                frames[1][i].append(
                    np.concatenate([h.take(at), bv[:, :, kb:], wv[:, :, kw:]], axis=2))
        for i, d in enumerate(maps):
            db = d.take(at)
            for fr, bl in zip(frames, blocks):
                bl[i].append(hermitian(fr[i + 1][-1]) @ (db @ fr[i][-1]))
    return fibers, groups, list(zip(frames, blocks)), widths


def split_complex(c: ChainComplexC, eps: float):
    """Split C into the [0, eps] and (eps, inf) spectral subcomplexes.

    Membership is decided once per singular value of the restricted
    differentials (the Laplacian eigenvalue is the singular value squared;
    one under the Laplacian's rank cut goes below eps too, see :func:`_low`)
    and the same decision is applied to the co-exact vector in one degree
    and its image in the next; that keeps the two subcomplexes exactly
    d-invariant even when eps falls inside a numerically degenerate
    eigenvalue pair.

    Returns (small_c, large_c, small_subs, large_subs): each part as a
    :class:`ChainComplexC`, whose constructor runs its d^2 = 0 check, and
    its frames as subobjects of the C^i, converted here from the
    standardized frames of :func:`_split_parts`. The differentials are the
    standardized compressions of :func:`_split_parts`. The complexes keep
    the norm of c as their reference norm (``check_norm``), since their
    differentials carry the rounding of c's.
    """
    split = hodge_split(c)
    _, groups, parts, _ = _split_parts(c, split, _low(split, eps))
    n, norm = c.backend.n_fibers, max((d.norm() for d in c.diffs), default=0.0)
    out = []
    for frames, diffs in parts:
        subs = [subobject_from_std_frames(obj, Fibers(list(zip(groups, g)), n))
                for obj, g in zip(c.objects, frames)]
        maps = tuple(Morphism(s.space, t.space, Fibers(list(zip(groups, g)), n))
                     for s, t, g in zip(subs, subs[1:], diffs))
        out.append((ChainComplexC(tuple(s.space for s in subs), maps, check_norm=norm), subs))
    (large_c, large_subs), (small_c, small_subs) = out
    return small_c, large_c, small_subs, large_subs


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


def check_sigma_log(sigma_log) -> None:
    """Raise unless the log-coefficient sigma_log is a finite real number."""
    if not (isinstance(sigma_log, Real) and math.isfinite(sigma_log)):
        raise InputValidationError(f"sigma_log must be a finite real number, not {sigma_log!r}")


def torsion(
    c: ChainComplexC,
    sigma_log: float = 0.0,
    epsilon: float | None = None,
    tol: float = DEFAULT_RANK_TOL,
    out_prefix: str = "H",
) -> TorsionReport:
    """Torsion of the complex as an element of det of extended cohomology.

    It is the image under nu of exp(sigma_log) times the unit volume
    element of det(C) in C's own frames (:func:`complex_det_element`).
    det(C) is a line, so that coefficient is all there is to choose, and
    it adds ``sigma_log`` to ``combined.log_coeff``.

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
    degree; and only when exp(log_coeff) is a finite, nonzero float.
    """
    check_sigma_log(sigma_log)
    if epsilon is not None and not (isinstance(epsilon, Real) and epsilon > 0.0):
        raise InputValidationError(f"epsilon must be a positive real number, not {epsilon!r}")
    return _torsion(c, hodge_split(c, tol), sigma_log, epsilon, tol, out_prefix)


def _torsion(c, split, sigma_log, epsilon, tol, out_prefix) -> TorsionReport:
    """The body of :func:`torsion`, on the Hodge split of c already taken."""
    if epsilon is None:
        epsilon = _epsilon(split)
    verdicts = split.detclass()

    low = _low(split, math.inf if epsilon is None else epsilon)
    small = [v.select(m) for v, m in zip(split.singular, low)]
    rho_small = _pushed(split, sigma_log, small, out_prefix)
    log_rho_large, checks = 0.0, {}
    if epsilon is not None:
        # both parts get the d^2 = 0 check of a ChainComplexC, against the
        # norm of c; the small part is built only for it, and it needs two
        # differentials
        checked = len(c.diffs) > 1
        fibers, groups, parts, widths = _split_parts(c, split, low, checked)
        if checked:
            norm = max(d.norm() for d in c.diffs)
            for _, diffs in parts:
                check_d_squared([operator_norm(d) for d in diffs],
                                (zip(groups, zip(a, b)) for b, a in zip(diffs, diffs[1:])), norm)
        if any(w.any() for w in widths):
            # the part has a spectral gap, so its log-determinants converge
            log_rho_large = sum((-1) ** (i + 1) * v.select(~m).log_det(split.weights)
                                for i, (v, m) in enumerate(zip(split.singular, low)))
            stacks = [Fibers(list(zip(groups, g)), len(fibers)) for g in parts[0][1]]
            via_laplacian = _laplacian_torsion(stacks, widths, split.weights[fibers], tol)
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
        scalar_value = combined.scalar_value()
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
        if not commutes(dst.diffs[i], f_list[i], f_list[i + 1], src.diffs[i]):
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

    def apply(self, element: DetLineElement) -> DetLineElement:
        """The element's coefficient times exp(log_factor), on the frames "H"i."""
        return DetLineElement(alternating_word([h.space for h in self.h_middle], "H"),
                              element.log_coeff + self.log_factor)


def les_connecting_iso(
    L: ChainComplexC,
    M: ChainComplexC,
    N: ChainComplexC,
    alpha: list,
    beta: list,
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
    harmonic = [hodge_split(x).harmonic for x in (L, M, N)]
    return _les_connecting_iso(L, M, N, alpha, beta, harmonic)


def _les_connecting_iso(L, M, N, alpha, beta, harmonic) -> LesIsomorphism:
    """The body of :func:`les_connecting_iso`, on harmonic frames already taken."""
    n = M.length
    if L.length != n or N.length != n:
        raise InputValidationError("the three complexes must share their length")
    _is_chain_map(alpha, L, M)
    _is_chain_map(beta, M, N)
    # the sections and the base change read the SVDs of the exactness check
    svds = [check_exactness(a, b, vectors=True) for a, b in zip(alpha, beta)]
    hl, hm, hn = harmonic

    objects = tuple(h[i].space for i in range(n) for h in (hl, hm, hn))
    diffs = []
    for i in range(n):
        diffs += [hm[i].compress(alpha[i], hl[i]), hn[i].compress(beta[i], hm[i])]
        if i < n - 1:
            # the zig-zag alpha^+ d beta^+ reads the sections of beta_i and
            # alpha_{i+1} only
            beta_sec = orthogonal_section(beta[i], svds[i][1])
            alpha_pinv = orthogonal_section(alpha[i + 1], svds[i + 1][0])
            zig = compose(alpha_pinv, compose(M.diffs[i], beta_sec))
            diffs.append(hl[i + 1].compress(zig, hn[i]))
    les = ChainComplexC(objects, tuple(diffs))
    rho = nu_map(les)
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


# largest deviation of the two log coefficients at which a sequence check passes
SEQUENCE_AGREE_TOL = 1e-6


@dataclass
class SequenceCheckReport:
    passed: bool
    log_lhs: float
    log_rhs: float
    deviation: float


def sequence_torsion_check(L: ChainComplexC, M: ChainComplexC, N: ChainComplexC,
                           alpha: list, beta: list) -> SequenceCheckReport:
    """Verify multiplicativity rho(M) = delta(rho(L) (x) rho(N)) along a
    degreewise short exact sequence 0 -> L -> M -> N -> 0 of complexes.

    Each complex is Hodge split once; its torsion and its harmonic frames
    for the connecting isomorphism delta (:func:`les_connecting_iso`) are
    both read off that split. The two sides are compared in log scale
    (harmonic frames on both sides are orthonormal over the same spaces, so
    comparing coefficients is comparing elements); the check passes when
    they differ by at most ``SEQUENCE_AGREE_TOL``.
    """
    splits = [hodge_split(x) for x in (L, M, N)]
    rho_l, rho_m, rho_n = (
        _torsion(x, split, 0.0, None, DEFAULT_RANK_TOL, prefix)
        for x, split, prefix in zip((L, M, N), splits, ("HL", "H", "HN")))
    delta = _les_connecting_iso(L, M, N, alpha, beta, [split.harmonic for split in splits])
    log_lhs = delta.apply(rho_l.combined.tensor(rho_n.combined)).log_coeff
    log_rhs = rho_m.combined.log_coeff
    dev = abs(log_lhs - log_rhs)
    return SequenceCheckReport(bool(dev <= SEQUENCE_AGREE_TOL), log_lhs, log_rhs, dev)


def cone_torsion_check(c: ChainComplexC, ctilde: ChainComplexC, f_list) -> SequenceCheckReport:
    """Verify the cone torsion identity rho_cone = delta(rho_sub (x) rho_quot):
    :func:`sequence_torsion_check` on the sequence
    0 -> C~[1] -> Cone -> C(-d) -> 0."""
    cone, inclusions, projections, sub, quot = _cone_sequence(c, ctilde, f_list)
    return sequence_torsion_check(sub, cone, quot, inclusions, projections)
