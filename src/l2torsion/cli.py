"""Command line front-end for the torsion pipeline.

Subcommands: ``torsion`` (cell complex + representation -> report),
``fkdet`` (morphism -> log determinant), ``density`` (morphism -> CSV),
``detclass`` (cell complex + representation -> per-degree verdicts),
``checks`` (randomized suites), ``examples`` (emit the bundled inputs).

Exit codes: 0 success; 2 validation/parse failure; 3 when a scalar torsion
was requested but the determinant-class certificate forbids one, or its
exponential exp(log_coeff) lies outside float range (the report with the
line element is still written).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .backends import DEFAULT_RANK_TOL, check_rank_tol
from .cellular import (
    cochain_complex,
    circle_complex,
    circle_complex_two_cells,
    circle_unit_representation,
    combinatorial_torsion,
    cyclic_character_representation,
    lens_complex,
    regular_representation,
    torus_quotient_complex,
)
from .errors import InputValidationError, L2TorsionError
from .extcoh import cohomology
from .harness import DEFAULT_SEED, run_all_suites
from .serialize import (
    cell_complex_from_json,
    cell_complex_to_json,
    density_to_csv,
    dumps,
    morphism_from_json,
    report_to_json,
    representation_from_json,
    representation_to_json,
    verdict_to_json,
)
from .spectral import fk_det_extended, singular_density

log = logging.getLogger("l2torsion")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_SCALAR = 3


@dataclass
class RunConfig:
    """Validated batch-run configuration. A command reads only its own
    flags (:data:`FLAGS`); the header records every field, at its default
    where the command has no flag for it."""

    command: str
    complex_path: str | None = None
    rep_path: str | None = None
    morphism_path: str | None = None
    grid: int | None = None
    epsilon: float | None = None
    tol_rank: float = DEFAULT_RANK_TOL
    seed: int = DEFAULT_SEED
    suite: str = "all"
    out: str | None = None

    def __post_init__(self) -> None:
        check_rank_tol(self.tol_rank)
        if self.grid is not None and self.grid < 8:
            raise InputValidationError("grid size must be at least 8")
        if self.epsilon is not None and not self.epsilon > 0:
            raise InputValidationError("epsilon must be positive")

    def header(self) -> dict:
        return {
            "version": __version__,
            "command": self.command,
            "tolerances": {"rank": self.tol_rank},
            "grid": self.grid,
            "epsilon": self.epsilon,
            "seed": self.seed,
        }


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputValidationError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputValidationError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        )
    if not isinstance(data, dict):
        raise InputValidationError(f"{path} must hold a JSON object")
    return data


def _write(out: str | None, name: str, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text)
    log.info("wrote %s", path / name)


def _load_pair(cfg: RunConfig):
    if not cfg.complex_path or not cfg.rep_path:
        raise InputValidationError("this command needs --complex and --rep")
    k = cell_complex_from_json(_load_json(cfg.complex_path))
    rep = representation_from_json(_load_json(cfg.rep_path), grid=cfg.grid)
    if rep.pi.finite != k.pi.finite or (
        rep.pi.finite and rep.pi.table != k.pi.table
    ):
        raise InputValidationError(
            "representation group does not match the complex group"
        )
    rep.check_relations()
    return k, rep


def cmd_torsion(cfg: RunConfig) -> int:
    k, rep = _load_pair(cfg)
    report = combinatorial_torsion(k, rep, epsilon=cfg.epsilon, tol=cfg.tol_rank)
    payload = cfg.header()
    payload["report"] = report_to_json(report)
    _write(cfg.out, "torsion.json", dumps(payload))
    if report.scalar_value is None:
        reasons = []
        if any(b > 1e-8 for b in report.betti):
            reasons.append(f"nonzero trace-Betti numbers {report.betti}")
        if not all(v.convergent for v in report.detclass):
            reasons.append(
                f"determinant-class certificate {[v.status for v in report.detclass]}"
            )
        if not report.combined.is_scalar:
            reasons.append("torsion element does not reduce to a scalar")
        if not reasons and math.isfinite(report.combined.log_coeff):
            reasons.append("exp(log_coeff) lies outside float range")
        log.warning("no scalar torsion: %s", "; ".join(reasons) or "see report")
        return EXIT_NO_SCALAR
    return EXIT_OK


def cmd_fkdet(cfg: RunConfig) -> int:
    if not cfg.morphism_path:
        raise InputValidationError("fkdet needs --morphism")
    m = morphism_from_json(_load_json(cfg.morphism_path))
    log_det, verdict = fk_det_extended(m, tol=cfg.tol_rank)
    payload = cfg.header()
    payload["verdict"] = verdict_to_json(verdict)
    payload["log_det"] = None if not math.isfinite(log_det) else log_det
    _write(cfg.out, "fkdet.json", dumps(payload))
    return EXIT_OK if verdict.convergent else EXIT_NO_SCALAR


def cmd_density(cfg: RunConfig) -> int:
    if not cfg.morphism_path:
        raise InputValidationError("density needs --morphism")
    m = morphism_from_json(_load_json(cfg.morphism_path))
    density = singular_density(m, tol=cfg.tol_rank)
    _write(cfg.out, "density.csv", density_to_csv(density))
    return EXIT_OK


def cmd_detclass(cfg: RunConfig) -> int:
    k, rep = _load_pair(cfg)
    c = cochain_complex(k, rep)
    profile = cohomology(c, tol=cfg.tol_rank)
    payload = cfg.header()
    payload["degrees"] = [
        {
            "degree": d.degree,
            "betti": d.betti,
            "tau_trivial": d.tau_trivial,
            **verdict_to_json(d.verdict, d.ns),
        }
        for d in profile.degrees
    ]
    payload["determinant_class"] = profile.determinant_class
    _write(cfg.out, "detclass.json", dumps(payload))
    return EXIT_OK


def cmd_checks(cfg: RunConfig) -> int:
    fast = cfg.suite == "fast"
    results = run_all_suites(seed=cfg.seed, fast=fast)
    payload = cfg.header()
    payload["results"] = results
    _write(cfg.out, "checks.json", dumps(payload))
    return EXIT_OK if results["passed"] else EXIT_INVALID


EXAMPLES = {
    "circle.json": lambda: cell_complex_to_json(circle_complex()),
    "circle_two_cells.json": lambda: cell_complex_to_json(circle_complex_two_cells()),
    "torus_quotient.json": lambda: cell_complex_to_json(torus_quotient_complex(3)),
    "lens_5_1.json": lambda: cell_complex_to_json(lens_complex(5, 1)),
    "lens_7_2.json": lambda: cell_complex_to_json(lens_complex(7, 2)),
    "rep_lambda_minus1.json": lambda: representation_to_json(
        circle_unit_representation(-1.0 + 0.0j)
    ),
    "rep_circle_regular.json": lambda: {
        "pi": {"infinite_cyclic": True},
        "images": {"regular_s1": {"grid": 4096}},
    },
    "rep_lens5_character.json": lambda: representation_to_json(
        cyclic_character_representation(5, 1)
    ),
    "rep_torus_regular.json": lambda: representation_to_json(
        regular_representation(torus_quotient_complex(3).pi)
    ),
}


def cmd_examples(cfg: RunConfig) -> int:
    outdir = cfg.out or "examples_out"
    for name, build in EXAMPLES.items():
        _write(outdir, name, dumps(build()))
    return EXIT_OK


# each flag, as argparse takes it; its dest is the RunConfig field it sets
ARGUMENTS = {
    "complex": {"dest": "complex_path"},
    "rep": {"dest": "rep_path"},
    "morphism": {"dest": "morphism_path"},
    "grid": {"type": int},
    "epsilon": {"type": float},
    "tol-rank": {"type": float},
    "seed": {"type": int},
    "suite": {"choices": ("all", "fast")},
    "out": {},
}

# the flags each command reads; any other flag is a usage error
FLAGS = {
    "torsion": ("complex", "rep", "grid", "epsilon", "tol-rank", "out"),
    "fkdet": ("morphism", "tol-rank", "out"),
    "density": ("morphism", "tol-rank", "out"),
    "detclass": ("complex", "rep", "grid", "tol-rank", "out"),
    "checks": ("seed", "suite", "out"),
    "examples": ("out",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2torsion",
        description="L2-torsion of complexes over finite von Neumann categories",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        # a flag left out is left out of the namespace: RunConfig supplies
        # its default
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **ARGUMENTS[flag])
    return parser


COMMANDS = {
    "torsion": cmd_torsion,
    "fkdet": cmd_fkdet,
    "density": cmd_density,
    "detclass": cmd_detclass,
    "checks": cmd_checks,
    "examples": cmd_examples,
}


def run(config: RunConfig) -> int:
    return COMMANDS[config.command](config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    settings = vars(args)
    del settings["verbose"]
    try:
        return run(RunConfig(**settings))
    except (InputValidationError, L2TorsionError) as exc:
        log.error("%s", exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
