"""JSON/CSV input and output formats.

Complex scalars are stored as [re, im] pairs. Backends, morphisms, cell
complexes, representations, determinant-line elements, verdicts, and
torsion reports all round-trip through plain JSON so the command line
pipeline stays diff-friendly.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .backends import (
    BackendKind,
    CategoryBackend,
    HObject,
    Morphism,
    _integers,
    family_backend,
    group_backend,
    group_ring_morphism,
    matrix_backend,
)
from .cellular import (
    CellComplex,
    Representation,
    circle_regular_representation,
    finite_pi,
    infinite_cyclic_pi,
    matrix_representation,
    regular_representation,
)
from .detline import DetLineElement
from .errors import InputValidationError, ShapeMismatchError
from .spectral import DetClassVerdict, SpectralDensity
from .torsion import TorsionReport


def _c2j(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _j2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_c2j(z) for z in row] for row in np.atleast_2d(m)]


def _array_from_json(data, depth: int) -> np.ndarray:
    """``depth`` levels of nested lists of numbers as a complex array;
    raises :class:`InputValidationError` when they are ragged or hold
    something else."""
    def read(v, depth):
        return _j2c(v) if depth == 0 else [read(x, depth - 1) for x in v]

    try:
        return np.array(read(data, depth), dtype=complex)
    except (TypeError, ValueError, IndexError, KeyError):
        raise InputValidationError(
            f"expected {depth} levels of nested lists of numbers") from None


def _matrix_from_json(rows) -> np.ndarray:
    return _array_from_json(rows, 2)


def _shaped(a: np.ndarray, shape: tuple) -> np.ndarray:
    """a, with an empty a reshaped to ``shape``; raises
    :class:`ShapeMismatchError` unless a then has that shape."""
    if a.size == 0 and 0 in shape:
        a = a.reshape(shape)
    if a.shape != shape:
        raise ShapeMismatchError(f"data of shape {a.shape} where {shape} is declared")
    return a


def _finite_number(x: float):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    if x == -math.inf:
        return "-inf"
    if x == math.inf:
        return "inf"
    return float(x)


# ---------------------------------------------------------------------------
# backends and morphisms


def backend_to_json(b: CategoryBackend) -> dict:
    out = {"kind": b.kind.value, "scale": b.scale}
    if b.kind is BackendKind.FINITE_GROUP:
        out["group_table"] = np.asarray(b.group_table).tolist()
    if b.kind is BackendKind.FAMILY:
        out["samples"] = np.asarray(b.sample_points).tolist()
    return out


def backend_from_json(d: dict) -> CategoryBackend:
    kind = d.get("kind")
    try:
        scale = float(d.get("scale", 1.0))
    except (TypeError, ValueError):
        raise InputValidationError("the trace scale must be a number") from None
    if kind == "Matrix":
        return matrix_backend(scale)
    if kind == "FiniteGroup":
        if "group_table" not in d:
            raise InputValidationError("FiniteGroup backend needs 'group_table'")
        return group_backend(d["group_table"], scale)
    if kind == "Family":
        if "samples" not in d:
            raise InputValidationError("Family backend needs 'samples'")
        return family_backend(d["samples"], scale)
    raise InputValidationError(f"unknown backend kind {kind!r}")


def morphism_to_json(m: Morphism) -> dict:
    """The morphism as JSON: its backend, the dimensions of source and
    target (ranks over the group ring for FiniteGroup), the blocks, and
    ``source_products`` / ``target_products``, one matrix per fiber, for a
    side whose products are not all standard."""
    b = m.backend
    out = {
        "backend": backend_to_json(b),
        "source_dims": list(m.source.dims),
        "target_dims": list(m.target.dims),
    }
    if b.kind is BackendKind.FAMILY:
        out["data"] = [_matrix_to_json(blk) for blk in m.blocks]
    elif b.kind is BackendKind.FINITE_GROUP:
        coeffs = m.group_ring_coefficients()
        out["data"] = [
            [[_c2j(z) for z in entry] for entry in row] for row in coeffs
        ]
        out["target_dims"], out["source_dims"] = [coeffs.shape[0]], [coeffs.shape[1]]
    else:
        out["data"] = _matrix_to_json(m.blocks[0])
    for side, obj in (("source", m.source), ("target", m.target)):
        if obj.gram is not None:
            out[f"{side}_products"] = [_matrix_to_json(p) for p in obj.gram]
    return out


def _object_from_json(backend: CategoryBackend, d: dict, side: str) -> HObject:
    """The object ``side`` ("source" or "target") of a morphism's JSON."""
    dims = d.get(f"{side}_dims")
    if not isinstance(dims, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in dims
    ):
        raise InputValidationError(f"a morphism needs '{side}_dims', a list of integers")
    if backend.kind is BackendKind.FINITE_GROUP:
        dims = [k * backend.group_order for k in dims]
    obj = HObject(backend, dims)
    products = d.get(f"{side}_products")
    if products is None:
        return obj
    if not isinstance(products, list) or len(products) != backend.n_fibers:
        raise InputValidationError(f"'{side}_products' must list one matrix per fiber")
    return obj.with_products([
        None if p is None else _shaped(_matrix_from_json(p), (k, k))
        for p, k in zip(products, obj.dims)
    ])


def morphism_from_json(d: dict) -> Morphism:
    """Inverse of :func:`morphism_to_json`. The declared dimensions fix the
    shape of every block, empty ones included, and the products pass the
    checks of :class:`HObject`."""
    if "backend" not in d or "data" not in d:
        raise InputValidationError("a morphism needs 'backend' and 'data'")
    backend = backend_from_json(d["backend"])
    src = _object_from_json(backend, d, "source")
    tgt = _object_from_json(backend, d, "target")
    data = d["data"]
    if backend.kind is BackendKind.FINITE_GROUP:
        n = backend.group_order
        coeffs = _shaped(_array_from_json(data, 3), (tgt.dims[0] // n, src.dims[0] // n, n))
        return group_ring_morphism(src, tgt, coeffs)
    if backend.kind is BackendKind.MATRIX:
        data = [data]
    if not isinstance(data, list) or len(data) != backend.n_fibers:
        raise InputValidationError("a morphism needs one block per fiber")
    return Morphism(src, tgt, tuple(
        _shaped(_matrix_from_json(blk), shape)
        for blk, shape in zip(data, zip(tgt.dims, src.dims))
    ))


# ---------------------------------------------------------------------------
# spectral output


def density_to_csv(density: SpectralDensity) -> str:
    lines = ["lambda,cumulative_mass"]
    if density.zero_mass > 0:
        lines.append(f"0.0,{float(density.zero_mass):.17g}")
    running = float(density.zero_mass)
    for lam, mass in zip(density.values, density.masses):
        running += float(mass)
        lines.append(f"{float(lam):.17g},{running:.17g}")
    return "\n".join(lines) + "\n"


def verdict_to_json(v: DetClassVerdict, ns: float | None = None) -> dict:
    return {
        "status": v.status,
        "log_integral": _finite_number(v.log_integral),
        "ns_exponent": _finite_number(ns),
        "ladder": [[eps, val] for eps, val in v.ladder],
        "below_floor": _finite_number(v.below_floor),
        "injective": bool(v.injective),
        "dense_image": bool(v.dense_image),
    }


def element_to_json(e: DetLineElement) -> dict:
    return {
        "frame": [
            {
                "label": frame.label,
                "exponent": int(exp),
                "dim_tau": frame.obj.dim_tau,
            }
            for frame, exp in e.word
        ],
        "log_coeff": _finite_number(e.log_coeff),
    }


def report_to_json(r: TorsionReport) -> dict:
    return {
        "epsilon": _finite_number(r.epsilon) if r.epsilon is not None else None,
        "log_rho_large": _finite_number(r.log_rho_large),
        "rho_small": element_to_json(r.rho_small),
        "combined": element_to_json(r.combined),
        "scalar_value": _finite_number(r.scalar_value)
        if r.scalar_value is not None
        else None,
        "detclass": [verdict_to_json(v) for v in r.detclass],
        "betti": [float(b) for b in r.betti],
        "checks": r.checks,
    }


# ---------------------------------------------------------------------------
# cell complexes and representations


def cell_complex_to_json(k: CellComplex) -> dict:
    return {
        "cells": [[int(d), cid] for cid, d in k.cells.items()],
        "boundaries": {
            cid: [
                [fid, [[int(tok), c if isinstance(c, int) else float(c)]
                       for tok, c in s]]
                for fid, s in faces
            ]
            for cid, faces in k.boundaries.items()
        },
        "pi": {"finite": [list(r) for r in k.pi.table]}
        if k.pi.finite
        else {"infinite_cyclic": True},
        "chi": k.euler_characteristic,
    }


def cell_complex_from_json(d: dict) -> CellComplex:
    """Read :func:`cell_complex_to_json`'s format; dimensions, tokens and
    "chi" must be integers, as :func:`l2torsion.backends._integers` reads them."""
    pi_d = d.get("pi", {})
    if "finite" in pi_d:
        pi = finite_pi(pi_d["finite"])
    elif pi_d.get("infinite_cyclic"):
        pi = infinite_cyclic_pi()
    else:
        raise InputValidationError("pi must be 'finite' or 'infinite_cyclic'")
    try:
        cells = {cid: _integers(dim, "cell dimensions").item() for dim, cid in d["cells"]}
        boundaries = {
            cid: tuple(
                (fid, tuple((_integers(tok, "tokens").item(), c if isinstance(c, int)
                             else float(c)) for tok, c in s))
                for fid, s in faces
            )
            for cid, faces in d.get("boundaries", {}).items()
        }
        chi = _integers(d.get("chi", 0), "Euler characteristics ('chi')").item()
    except (KeyError, TypeError, ValueError, AttributeError):
        raise InputValidationError(
            "a cell complex needs 'cells' as [dimension, id] pairs and 'boundaries' "
            "as lists of [face, [[token, coefficient], ...]]") from None
    k = CellComplex(cells, boundaries, pi)
    if "chi" in d and chi != k.euler_characteristic:
        raise InputValidationError(
            "declared Euler characteristic disagrees with the cell counts"
        )
    return k


def representation_to_json(rep: Representation) -> dict:
    out = {"pi": {"finite": [list(r) for r in rep.pi.table]}
           if rep.pi.finite else {"infinite_cyclic": True}}
    desc = rep.descriptor
    if "regular_s1" in desc:
        out["images"] = {"regular_s1": desc["regular_s1"]}
    elif desc.get("regular"):
        out["images"] = {"regular": True}
    elif rep.pi.finite:
        out["images"] = {
            "elements": [
                _matrix_to_json(rep.image(g).blocks[0]) for g in range(rep.pi.order)
            ]
        }
    else:
        out["images"] = {"t": _matrix_to_json(rep.image(1).blocks[0])}
    return out


def representation_from_json(d: dict, grid: int | None = None) -> Representation:
    """The representation of a JSON object. ``grid``, when given, replaces
    the sample count of a ``regular_s1`` representation; any other
    representation has no grid, and raises :class:`InputValidationError`
    when given one."""
    pi_d = d.get("pi", {})
    images = d.get("images", {})
    if "regular_s1" in images:
        spec = images["regular_s1"]
        if not isinstance(spec, dict):
            raise InputValidationError("'regular_s1' must be an object")
        return circle_regular_representation(grid or spec.get("grid", 1024))
    if grid is not None:
        raise InputValidationError("a grid applies only to a 'regular_s1' representation")
    if "finite" in pi_d:
        pi = finite_pi(pi_d["finite"])
        if images.get("regular"):
            return regular_representation(pi)
        mats = [_matrix_from_json(m) for m in images.get("elements", [])]
        return matrix_representation(pi, mats)
    if pi_d.get("infinite_cyclic"):
        if "t" not in images:
            raise InputValidationError("an infinite cyclic representation needs the image of 't'")
        return matrix_representation(
            infinite_cyclic_pi(), {1: _matrix_from_json(images["t"])}
        )
    raise InputValidationError("representation needs a group and images")


# ---------------------------------------------------------------------------
# the JSON text


_INDENT = "  "


class _Unwritten(Exception):
    """A value :func:`_write` leaves to the standard library."""


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# the text of a value of exactly one of these types
_SCALARS = {
    str: encode_basestring_ascii,
    type(None): lambda o: "null",
    bool: lambda o: "true" if o else "false",
    int: int.__repr__,
    float: _float_text,
}
_is_float = float.__instancecheck__
_is_str = str.__instancecheck__


def _write(o, level: int, out: list, prefix: str = "") -> None:
    """Append ``prefix`` and the text of o at nesting ``level`` to ``out``,
    as ``json.dumps(o, indent=2, sort_keys=True)`` writes it. Raises
    :class:`_Unwritten` on a dict key that is not a str and on a value that
    is neither a list, tuple or dict nor of exactly one of the ``_SCALARS``
    types (a subclass of one, such as ``np.float64`` outside a list of
    floats, is left to ``json.dumps``)."""
    text = _SCALARS.get(type(o))
    if text is not None:
        out.append(prefix + text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append(prefix + "[]")
            return
        inner, outer = "\n" + _INDENT * (level + 1), "\n" + _INDENT * level
        if all(map(_is_float, o)):  # one join for a list of floats
            out.append(prefix + "[" + inner + ("," + inner).join(map(_float_text, o))
                       + outer + "]")
            return
        sep = prefix + "[" + inner
        for x in o:
            _write(x, level + 1, out, sep)
            sep = "," + inner
        out.append(outer + "]")
    elif isinstance(o, dict):
        if not o:
            out.append(prefix + "{}")
            return
        if not all(map(_is_str, o)):
            raise _Unwritten
        inner, sep = "\n" + _INDENT * (level + 1), prefix + "{"
        for k in sorted(o):
            _write(o[k], level + 1, out, sep + inner + encode_basestring_ascii(k) + ": ")
            sep = ","
        out.append("\n" + _INDENT * level + "}")
    else:
        raise _Unwritten


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for
    byte, without the standard library's pure-Python encoder, which its
    ``indent`` selects. Payloads the writer leaves (non-str keys, other
    types, cycles) go to ``json.dumps`` itself, output and errors alike."""
    out = []
    try:
        _write(obj, 0, out)
    except (_Unwritten, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)
