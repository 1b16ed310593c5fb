"""Determinant lines and their canonical isomorphisms.

A determinant line is tracked symbolically: a :class:`Frame` names the
distinguished generator attached to an object (the wedge of any basis that
is orthonormal for the object's product), and a :class:`DetLineElement` is a
formal word of frames with integer exponents times a positive coefficient
stored in log form. All canonical maps between determinant lines then
reduce to bookkeeping on the log-coefficient:

* changing the product on an object rescales the generator by the square
  root of the determinant of the product change;
* pushing forward along a (weak) isomorphism rescales by its
  Fuglede-Kadison determinant;
* a short exact sequence identifies det(sub) x det(quotient) with
  det(total) via push-forward along the assembled block map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import (
    FiberSVD,
    Fibers,
    HObject,
    Morphism,
    compose,
    fiber_svds,
    hermitian,
    largest_block_norm,
)
from .errors import (
    NotAnIsomorphismError,
    NotExactError,
    ShapeMismatchError,
)
from .spectral import finite_exp, fk_det_extended


@dataclass(eq=False)
class Frame:
    """Named generator of the determinant line of an object."""

    obj: HObject
    label: str

    def matches(self, other: "Frame") -> bool:
        return self.label == other.label and self.obj.same_space(other.obj)


@dataclass
class DetLineElement:
    """Element c * prod_i det(frame_i)^(e_i) with c stored as log_coeff.

    ``log_coeff`` may be -inf (a zero element of the line) or NaN when a
    coefficient could not be certified finite.
    """

    word: tuple = ()
    log_coeff: float = 0.0

    def simplify(self) -> "DetLineElement":
        merged: list = []
        for frame, e in self.word:
            for k, (g, eg) in enumerate(merged):
                if g.matches(frame):
                    merged[k] = (g, eg + e)
                    break
            else:
                merged.append((frame, e))
        return DetLineElement(
            tuple((g, e) for g, e in merged if e != 0), self.log_coeff
        )

    def scaled(self, log_factor: float) -> "DetLineElement":
        return DetLineElement(self.word, self.log_coeff + log_factor)

    def tensor(self, other: "DetLineElement") -> "DetLineElement":
        return DetLineElement(
            self.word + other.word, self.log_coeff + other.log_coeff
        ).simplify()

    def dual(self) -> "DetLineElement":
        return DetLineElement(
            tuple((f, -e) for f, e in self.word), -self.log_coeff
        )

    @property
    def is_scalar(self) -> bool:
        return len(self.simplify().word) == 0

    def scalar_log(self) -> float:
        s = self.simplify()
        if s.word:
            raise ShapeMismatchError("element is not a scalar multiple of 1")
        return s.log_coeff

    def scalar_value(self) -> float | None:
        """exp of :meth:`scalar_log`; None where it overflows or underflows
        to 0.0."""
        return finite_exp(self.scalar_log())


def standard_element(obj: HObject, label: str) -> DetLineElement:
    """The distinguished generator of det(obj), as an element."""
    return DetLineElement(((Frame(obj, label), 1),), 0.0)


def unit_element() -> DetLineElement:
    return DetLineElement((), 0.0)


def _rewrite(element: DetLineElement, label: str, space: HObject, replace) -> DetLineElement:
    """Rewrite every frame ``label`` of the element; raise unless there is one.

    Each such frame must live on ``space``. ``replace(frame)`` gives the
    frames that take its place, each with the frame's exponent e, and the
    log factor that e times is added to the coefficient. It is the word
    rewrite that :func:`rebase_products`, :func:`push_forward` and
    :func:`exact_sequence_iso` share.
    """
    word = []
    log_coeff = element.log_coeff
    found = False
    for frame, e in element.word:
        if frame.label != label:
            word.append((frame, e))
            continue
        if not frame.obj.same_space(space):
            raise ShapeMismatchError(f"frame {label!r} lives on a different space")
        frames, log_factor = replace(frame)
        word.extend((f, e) for f in frames)
        log_coeff += e * log_factor
        found = True
    if not found:
        raise ShapeMismatchError(f"no frame labelled {label!r} in element")
    return DetLineElement(tuple(word), log_coeff)


def _rebase_factor(obj: HObject, new_obj: HObject) -> float:
    """Log factor per unit exponent of moving a frame from the product of
    obj to that of new_obj over the same space."""
    return -(obj.log_det_product() - new_obj.log_det_product()) / 2.0


def rebase_products(
    element: DetLineElement, label: str, new_obj: HObject
) -> DetLineElement:
    """Rewrite the frame ``label`` over the same space with different products.

    The generator attached to a product P is the wedge of a P-orthonormal
    basis, so changing P -> P' rescales it by exp((ldp' - ldp)/2) per unit
    exponent, where ldp is the trace-log-determinant of the product.
    """
    return _rewrite(element, label, new_obj,
                    lambda frame: ((Frame(new_obj, label),), _rebase_factor(frame.obj, new_obj)))


def push_forward(
    element: DetLineElement, f: Morphism, new_label: str | None = None
) -> DetLineElement:
    """Transport the element's one frame over f.source along the weak iso f.

    Replaces it by a frame over f.target (labelled ``new_label`` or as
    before), rescaling the coefficient by the (extended) Fuglede-Kadison
    determinant of f raised to the frame exponent, as :func:`fk_det_extended`
    certifies it. The coefficient becomes infinite when the certificate is
    Divergent and NaN when it is Inconclusive, keeping the element well formed.
    """
    log_det, verdict = fk_det_extended(f)
    if not (verdict.injective and verdict.dense_image):
        raise NotAnIsomorphismError("push_forward needs an injective dense map")
    candidates = [fr.label for fr, _ in element.word if fr.obj.same_space(f.source)]
    if len(candidates) != 1:
        raise ShapeMismatchError("push_forward needs a unique frame over the map source")
    label = candidates[0]
    target = Frame(f.target, new_label or label)
    return _rewrite(element, label, f.source, lambda frame: ((target,), log_det))


def canonical_element(f: Morphism) -> DetLineElement:
    """Canonical element of det(source)^-1 (x) det(target) attached to a weak
    iso, in the frames labelled "source" and "target".

    Its coefficient is the extended Fuglede-Kadison determinant of f; the
    element degenerates (log-coefficient -inf or NaN) exactly when the
    determinant certificate is not Convergent.
    """
    log_det, verdict = fk_det_extended(f)
    word = ((Frame(f.source, "source"), -1), (Frame(f.target, "target"), 1))
    return DetLineElement(word, log_det)


def alternating_word(spaces, prefix: str) -> tuple:
    """The word of (x)_i det(spaces[i])^((-1)^i): in order of i, the frame
    ``prefix``i of each space of positive dimension with exponent (-1)^i."""
    return tuple((Frame(obj, f"{prefix}{i}"), (-1) ** i)
                 for i, obj in enumerate(spaces) if obj.dim_tau > 0)


def orthogonal_section(beta: Morphism, svd: FiberSVD | None = None) -> Morphism:
    """Right inverse of a surjection landing in the orthocomplement of ker.

    Fiberwise the pseudo-inverse Vh[:r]^H diag(1/s[:r]) U[:, :r]^H over the
    singular triplets that :func:`fiber_svds` keeps (``svd``, when the
    caller has already decomposed beta), taken back from standardized
    coordinates.
    """
    if svd is None:
        svd = fiber_svds(beta)
    sections = svd.pick(
        lambda u, s, vh, r: (hermitian(vh[:, :r]) / s[:, None, :r]) @ hermitian(u[:, :, :r])
    )
    into, out_of = beta.target.factors(), beta.source.factors()
    groups = []
    for idx, g in sections.groups:
        if into is not None:
            g = g @ into[0].take(idx)
        if out_of is not None:
            g = np.linalg.solve(out_of[0].take(idx), g)
        groups.append((idx, g))
    return Morphism(beta.target, beta.source, Fibers(groups, sections.n))


def check_exactness(alpha: Morphism, beta: Morphism, vectors: bool = False) -> tuple:
    """Verify sub --alpha--> total --beta--> quot is short exact; raise if not.

    Decomposes each map once with :func:`fiber_svds` (values only unless
    ``vectors``) and compares the ranks fiber by fiber: alpha must be
    injective and beta surjective on every fiber, however small its trace
    weight. Returns ``(alpha_svd, beta_svd)``, so that a caller reads the
    sections (with ``vectors``) and the Fuglede-Kadison determinants
    (``FiberSVD.log_det``) of the pair off the same decompositions.
    """
    if not alpha.target.same_space(beta.source):
        raise ShapeMismatchError("middle objects of the sequence differ")
    comp = compose(beta, alpha)
    scale = max(alpha.norm() * beta.norm(), 1.0)
    if largest_block_norm(comp) > 1e-8 * scale:
        raise NotExactError("composition beta alpha is not numerically zero")
    alpha_svd = fiber_svds(alpha, vectors=vectors)
    beta_svd = fiber_svds(beta, vectors=vectors)
    rank_a, rank_b = alpha_svd.rank, beta_svd.rank
    if np.any(rank_a != alpha.source.dim_array):
        raise NotExactError("the sub map is not injective")
    if np.any(rank_b != beta.target.dim_array):
        raise NotExactError("the quotient map is not surjective")
    if np.any(rank_a != beta.source.dim_array - rank_b):
        raise NotExactError("image of the sub map does not fill ker of the quotient map")
    return alpha_svd, beta_svd


def _pulled_back(m: Morphism, product: HObject) -> Fibers:
    """Per fiber, m^H P m with P the product of ``product`` on m's target."""
    p = product.gram
    return Fibers(
        [(idx, hermitian(a) @ a if p is None else hermitian(a) @ p.take(idx) @ a)
         for idx, a in m.blocks.groups],
        m.blocks.n,
    )


def induced_sub_object(alpha: Morphism) -> HObject:
    """The sub object equipped with the product pulled back along alpha."""
    return alpha.source.with_products(_pulled_back(alpha, alpha.target))


def induced_quotient_object(beta: Morphism, svd: FiberSVD | None = None) -> tuple:
    """Quotient object with the product induced by the orthogonal splitting.

    Returns ``(object, section)`` where the section is the right inverse of
    beta landing in the orthocomplement of its kernel (read off ``svd``
    when given).
    """
    section = orthogonal_section(beta, svd)
    return beta.target.with_products(_pulled_back(section, beta.source)), section


def exact_sequence_iso(
    alpha: Morphism,
    beta: Morphism,
    element: DetLineElement,
    total_label: str = "total",
) -> DetLineElement:
    """Canonical iso det(total) -> det(sub) (x) det(quot) for a short exact
    sequence sub --alpha--> total --beta--> quot.

    Every frame ``total_label`` becomes the frames "sub" and "quot". The
    sub object is re-equipped with the product pulled back along alpha
    and the quotient with the product carried over from the orthocomplement
    of ker(beta); in those induced frames the assembled block map
    (alpha, section) is a product-isometry. Each frame is first rebased
    from its own products onto those of alpha.target by the exact factor
    of :func:`_rebase_factor` (-0.0 when they are the same, so the
    coefficient then stays bit for bit as it was). Re-express the induced
    frames with :func:`rebase_products` to compare against natively framed
    elements.
    """
    _, beta_svd = check_exactness(alpha, beta, vectors=True)
    sub_obj = induced_sub_object(alpha)
    quot_obj, _ = induced_quotient_object(beta, beta_svd)
    new_frames = (Frame(sub_obj, "sub"), Frame(quot_obj, "quot"))
    return _rewrite(element, total_label, alpha.target,
                    lambda frame: (new_frames, _rebase_factor(frame.obj, alpha.target)))
