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

import math
from dataclasses import dataclass

import numpy as np

from .backends import (
    DEFAULT_RANK_TOL,
    FiberSVD,
    Fibers,
    HObject,
    Morphism,
    align,
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
from .spectral import fk_det_extended


@dataclass(eq=False)
class Frame:
    """Named generator of the determinant line of an object."""

    obj: HObject
    label: str

    @property
    def log_det_product(self) -> float:
        return self.obj.log_det_product()

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

    def scalar_value(self) -> float:
        return math.exp(self.scalar_log())


def standard_element(obj: HObject, label: str) -> DetLineElement:
    """The distinguished generator of det(obj), as an element."""
    return DetLineElement(((Frame(obj, label), 1),), 0.0)


def unit_element() -> DetLineElement:
    return DetLineElement((), 0.0)


def rebase_products(
    element: DetLineElement, label: str, new_obj: HObject
) -> DetLineElement:
    """Rewrite the frame ``label`` over the same space with different products.

    The generator attached to a product P is the wedge of a P-orthonormal
    basis, so changing P -> P' rescales it by exp((ldp' - ldp)/2) per unit
    exponent, where ldp is the trace-log-determinant of the product.
    """
    word = []
    log_coeff = element.log_coeff
    found = False
    for frame, e in element.word:
        if frame.label == label:
            if not (frame.obj.backend.same_as(new_obj.backend)
                    and frame.obj.dims == new_obj.dims):
                raise ShapeMismatchError("rebase target lives on a different space")
            log_coeff += -(e / 2.0) * (frame.log_det_product - new_obj.log_det_product())
            word.append((Frame(new_obj, label), e))
            found = True
        else:
            word.append((frame, e))
    if not found:
        raise ShapeMismatchError(f"no frame labelled {label!r} in element")
    return DetLineElement(tuple(word), log_coeff)


def push_forward(
    element: DetLineElement,
    f: Morphism,
    label: str | None = None,
    new_label: str | None = None,
    tol: float = DEFAULT_RANK_TOL,
) -> DetLineElement:
    """Transport the factor ``label`` of the element along the weak iso f.

    Replaces the frame over f.source by a frame over f.target, rescaling the
    coefficient by the (extended) Fuglede-Kadison determinant of f raised to
    the frame exponent, as :func:`fk_det_extended` certifies it. The
    coefficient becomes infinite when the certificate is Divergent and NaN
    when it is Inconclusive, keeping the element well formed.
    """
    log_det, verdict = fk_det_extended(f, tol)
    if not (verdict.injective and verdict.dense_image):
        raise NotAnIsomorphismError("push_forward needs an injective dense map")
    if label is None:
        candidates = [
            fr.label for fr, _ in element.word if fr.obj.same_space(f.source)
        ]
        if len(candidates) != 1:
            raise ShapeMismatchError(
                "push_forward needs a unique frame over the map source"
            )
        label = candidates[0]
    word = []
    log_coeff = element.log_coeff
    found = False
    for frame, e in element.word:
        if frame.label == label:
            if not frame.obj.same_space(f.source):
                raise ShapeMismatchError("frame does not live on the map source")
            log_coeff += e * log_det
            word.append((Frame(f.target, new_label or label), e))
            found = True
        else:
            word.append((frame, e))
    if not found:
        raise ShapeMismatchError(f"no frame labelled {label!r} in element")
    return DetLineElement(tuple(word), log_coeff)


def canonical_element(f: Morphism, labels=("source", "target")) -> DetLineElement:
    """Canonical element of det(source)^-1 (x) det(target) attached to a weak iso.

    Its coefficient is the extended Fuglede-Kadison determinant of f; the
    element degenerates (log-coefficient -inf or NaN) exactly when the
    determinant certificate is not Convergent.
    """
    log_det, verdict = fk_det_extended(f)
    word = ((Frame(f.source, labels[0]), -1), (Frame(f.target, labels[1]), 1))
    return DetLineElement(word, log_det)


def orthogonal_section(
    beta: Morphism, tol: float = DEFAULT_RANK_TOL, svd: FiberSVD | None = None
) -> Morphism:
    """Right inverse of a surjection landing in the orthocomplement of ker.

    Fiberwise the pseudo-inverse Vh[:r]^H diag(1/s[:r]) U[:, :r]^H over the
    singular triplets that :func:`fiber_svds` keeps (``svd``, when the
    caller has already decomposed beta), taken back from standardized
    coordinates.
    """
    if svd is None:
        svd = fiber_svds(beta, tol)
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


def check_exactness(
    alpha: Morphism,
    beta: Morphism,
    tol: float = DEFAULT_RANK_TOL,
    alpha_svd: FiberSVD | None = None,
    beta_svd: FiberSVD | None = None,
):
    """Verify sub --alpha--> total --beta--> quot is short exact; raise if not.

    Reads the ranks of alpha and beta off :func:`fiber_svds` (values only),
    or off ``alpha_svd`` / ``beta_svd`` when the caller has decomposed the
    maps already, and compares them fiber by fiber: alpha must be injective
    and beta surjective on every fiber, however small its trace weight.
    """
    if not alpha.target.same_space(beta.source):
        raise ShapeMismatchError("middle objects of the sequence differ")
    comp = compose(beta, alpha)
    scale = max(alpha.norm() * beta.norm(), 1.0)
    if largest_block_norm(comp) > 1e-8 * scale:
        raise NotExactError("composition beta alpha is not numerically zero")
    if alpha_svd is None:
        alpha_svd = fiber_svds(alpha, tol, vectors=False)
    if beta_svd is None:
        beta_svd = fiber_svds(beta, tol, vectors=False)
    rank_a, rank_b = alpha_svd.rank, beta_svd.rank
    if np.any(rank_a != alpha.source.dim_array):
        raise NotExactError("the sub map is not injective")
    if np.any(rank_b != beta.target.dim_array):
        raise NotExactError("the quotient map is not surjective")
    if np.any(rank_a != beta.source.dim_array - rank_b):
        raise NotExactError("image of the sub map does not fill ker of the quotient map")


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


def induced_quotient_object(
    beta: Morphism, tol: float = DEFAULT_RANK_TOL, svd: FiberSVD | None = None
) -> tuple:
    """Quotient object with the product induced by the orthogonal splitting.

    Returns ``(object, section)`` where the section is the right inverse of
    beta landing in the orthocomplement of its kernel (read off ``svd``
    when given).
    """
    section = orthogonal_section(beta, tol, svd)
    return beta.target.with_products(_pulled_back(section, beta.source)), section


def _products_differ(a: HObject, b: HObject) -> bool:
    """Whether the products of two objects over the same space differ in
    some fiber by more than 1e-10 relative to b's."""
    return any(
        np.any(np.linalg.norm(x - y, axis=(1, 2)) > 1e-10 * np.linalg.norm(y, axis=(1, 2)))
        for _, (x, y) in align(a.product_fibers(), b.product_fibers())
    )


def exact_sequence_iso(
    alpha: Morphism,
    beta: Morphism,
    element: DetLineElement,
    total_label: str = "total",
    sub_label: str = "sub",
    quot_label: str = "quot",
    tol: float = DEFAULT_RANK_TOL,
) -> DetLineElement:
    """Canonical iso det(total) -> det(sub) (x) det(quot) for a short exact
    sequence sub --alpha--> total --beta--> quot.

    The sub object is re-equipped with the product pulled back along alpha
    and the quotient with the product carried over from the orthocomplement
    of ker(beta); in those induced frames the assembled block map
    (alpha, section) is a product-isometry, so the coefficient is unchanged.
    Re-express the induced frames with :func:`rebase_products` to compare
    against natively framed elements.
    """
    beta_svd = fiber_svds(beta, tol)
    check_exactness(alpha, beta, tol, beta_svd=beta_svd)
    sub_obj = induced_sub_object(alpha)
    quot_obj, _ = induced_quotient_object(beta, tol, beta_svd)
    word = []
    log_coeff = element.log_coeff
    found = False
    for frame, e in element.word:
        if frame.label == total_label:
            if not frame.obj.same_space(alpha.target):
                raise ShapeMismatchError("total frame lives on the wrong space")
            if _products_differ(frame.obj, alpha.target):
                # frame product differs from the one the maps were given;
                # rebase onto the maps' product first so isometry holds
                log_coeff += -(e / 2.0) * (
                    frame.log_det_product - alpha.target.log_det_product()
                )
            word.append((Frame(sub_obj, sub_label), e))
            word.append((Frame(quot_obj, quot_label), e))
            found = True
        else:
            word.append((frame, e))
    if not found:
        raise ShapeMismatchError(f"no frame labelled {total_label!r} in element")
    return DetLineElement(tuple(word), log_coeff)

