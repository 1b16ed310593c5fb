"""The benchmark's three workloads: inputs made from a seed, ops, oracles.

A workload is a list of rounds and a round is a list of ops. The timed loop
runs whole rounds, cycling through the list, so every op kind keeps the same
share of the run whatever the run length. The seed changes the inputs but
not the answers, so every op is checked against a fixed oracle.

- ``family_grid``: wide ``Family`` grids. A round is the circle with regular
  coefficients, the two-term ``e^(-1/x)`` complex, and the circle again, all
  on 1024 fibers. The seed re-lifts the circle cells and permutes the
  divergent samples.
- ``group_regular``: dense ``FiniteGroup`` regular expansions. A round is
  lens(128, 1), the torus quotient by (Z/11)^2, and lens(128, 1) again. The
  seed re-lifts the cells.
- ``random_suites``: many small ``Matrix`` complexes. Each round is one
  exact-triple multiplicativity check, one mapping-cone check and one
  epsilon-independence pair, in a seeded order. The seed draws the complexes.

The two-kind workloads run their slower kind twice per round. With the two
kinds in equal numbers the median op time would sit in the gap between the
two kinds' clusters, set by the slowest op of one kind and the fastest of
the other, and jump from run to run; with two to one it sits inside the
slower kind's cluster, and so does the tail.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GRID = 1024  # fibers of each family_grid op
LENS_P = 128  # lens(p, 1): one fiber with blocks of width up to 2p
TORUS_Q = 11  # torus quotient by (Z/q)^2: blocks of width up to 2q^2
SUITE_ROUNDS = 450  # distinct random_suites rounds, about one pass per run
TRACE_ROUNDS = {"family_grid": 1, "group_regular": 1, "random_suites": 20}


def lib(name: str):
    """The ``l2torsion.<name>`` module.

    Ops look functions up on the module at call time, so the traced run sees
    the wrapped functions. ``import l2torsion.torsion`` would give the
    function that the package re-exports under the module's name.
    """
    return importlib.import_module(f"l2torsion.{name}")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # a reason when the oracle is missed


def _reported(report):
    """Serialize a torsion report as a user of the library would."""
    serialize = lib("serialize")
    return report, serialize.dumps(serialize.report_to_json(report))


def _json_matches(report, text: str) -> str | None:
    stored = json.loads(text)["combined"]["log_coeff"]
    if stored != report.combined.log_coeff:
        return f"serialized log_coeff {stored} != {report.combined.log_coeff}"
    return None


def _close(name: str, got, want, tol: float) -> str | None:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
        return f"{name} {got.tolist()} != {want.tolist()} within {tol:g}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------------------
# family_grid


def _check_circle(out) -> str | None:
    report, text = out
    bound = 1.01 * math.log(2.0) / GRID  # midpoint grid error is ln 2 / N
    if report.scalar_value is None:
        return "circle torsion has no scalar value"
    if abs(report.scalar_value - 1.0) > bound:
        return f"|tau - 1| = {abs(report.scalar_value - 1.0):.3e} > {bound:.3e}"
    return _json_matches(report, text)


def _check_divergent(out) -> str | None:
    report, text = out
    if report.scalar_value is not None:
        return "divergent family reported a scalar"
    if report.detclass[1].status != "Divergent":
        return f"degree-1 verdict is {report.detclass[1].status}"
    if not math.isfinite(report.combined.log_coeff):
        return "log_coeff is not finite"
    if len(report.combined.word) != 4:
        return f"word length {len(report.combined.word)} != 4"
    return _json_matches(report, text)


def family_grid(seed: int) -> list:
    rng = np.random.default_rng(seed)
    cellular, backends = lib("cellular"), lib("backends")
    torsion_mod, extcoh, harness = lib("torsion"), lib("extcoh"), lib("harness")

    circle = cellular.re_lift(
        cellular.circle_complex(),
        {cid: int(rng.integers(-3, 4)) for cid in ("v", "e")},
    )
    rep = cellular.circle_regular_representation(GRID)

    samples = backends.uniform_interval_samples(GRID)[rng.permutation(GRID)]
    with np.errstate(over="ignore", under="ignore"):
        values = np.exp(-1.0 / samples[:, 0])
    diff = harness.family_multiplication_map(values, samples)
    divergent = extcoh.ChainComplexC((diff.source, diff.target), (diff,))

    circle_op = Op("circle",
                   lambda: _reported(cellular.combinatorial_torsion(circle, rep)),
                   _check_circle)
    divergent_op = Op("divergent",
                      lambda: _reported(torsion_mod.torsion(divergent)),
                      _check_divergent)
    return [[circle_op, divergent_op, circle_op]]


# ---------------------------------------------------------------------------
# group_regular


def _cell_op(kind, complex_, betti, log_coeff) -> Op:
    cellular = lib("cellular")
    rep = cellular.regular_representation(complex_.pi)

    def check(out) -> str | None:
        report, text = out
        return _first(
            _close("betti", report.betti, betti, 1e-9),
            _close("log_coeff", report.combined.log_coeff, log_coeff, 1e-9),
            _json_matches(report, text),
        )

    return Op(kind,
              lambda: _reported(cellular.combinatorial_torsion(complex_, rep)),
              check)


def group_regular(seed: int) -> list:
    rng = np.random.default_rng(seed)
    cellular = lib("cellular")

    def lifted(k):
        return cellular.re_lift(
            k, {cid: int(rng.integers(k.pi.order)) for cid in k.cells}
        )

    p, q = LENS_P, TORUS_Q
    lens = lifted(cellular.lens_complex(p, 1))
    torus = lifted(cellular.torus_quotient_complex(q))
    lens_op = _cell_op("lens", lens, [1 / p, 0, 0, 1 / p], -math.log(p) / p)
    torus_op = _cell_op("torus", torus, [1 / q**2, 2 / q**2, 1 / q**2], 0.0)
    return [[lens_op, torus_op, lens_op]]


# ---------------------------------------------------------------------------
# random_suites


def _below(name: str, tol: float) -> Callable[[float], str | None]:
    def check(dev) -> str | None:
        return None if dev < tol else f"{name} deviation {dev:.3e} >= {tol:g}"
    return check


def _exact_triple_op(triple) -> Op:
    T = lib("torsion")
    L, M, N, alphas, betas = triple

    def run():
        rho_l = T.torsion(L, out_prefix="HL").combined
        rho_n = T.torsion(N, out_prefix="HN").combined
        rho_m = T.torsion(M).combined
        delta = T.les_connecting_iso(L, M, N, alphas, betas)
        return abs(delta.apply(rho_l.tensor(rho_n)).log_coeff - rho_m.log_coeff)

    return Op("exact_triple", run, _below("sequence", 1e-6))


def _cone_op(c, ct, f_list) -> Op:
    T = lib("torsion")
    return Op("cone", lambda: T.cone_torsion_check(c, ct, f_list).deviation,
              _below("cone", 1e-6))


def _epsilon_op(c, factor: float) -> Op:
    T = lib("torsion")

    def run():
        first = T.torsion(c)
        moved = T.torsion(c, epsilon=first.epsilon * factor)
        return abs(first.combined.log_coeff - moved.combined.log_coeff)

    return Op("epsilon_pair", run, _below("epsilon", 1e-8))


def random_suites(seed: int) -> list:
    """Rounds drawn with the harness generators, as the check suites draw them."""
    rng = np.random.default_rng(seed)
    H = lib("harness")
    rounds = []
    for r in range(SUITE_ROUNDS):
        triple = H.random_exact_triple(
            rng, length=int(rng.integers(2, 4)), acyclic=("L", "N", "both")[r % 3]
        )
        length = int(rng.integers(2, 4))
        if r % 2 == 0:
            c = H.random_acyclic_complex(rng, length, max_rank=3)
        else:
            c = H.random_complex_with_cohomology(rng, length)
        ct = H.random_acyclic_complex(rng, length, max_rank=3)
        f_list = H.random_chain_map(rng, c, ct)
        # a complex whose differentials all vanish has no epsilon to move
        while True:
            e = H.random_complex_with_cohomology(rng, length=int(rng.integers(2, 5)))
            if any(d.norm() > 0 for d in e.diffs):
                break
        ops = [
            _exact_triple_op(triple),
            _cone_op(c, ct, f_list),
            _epsilon_op(e, (3.0, 1 / 3.0)[int(rng.integers(2))]),
        ]
        rounds.append([ops[i] for i in rng.permutation(3)])
    return rounds


WORKLOADS = {
    "family_grid": family_grid,
    "group_regular": group_regular,
    "random_suites": random_suites,
}
