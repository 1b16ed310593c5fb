#!/usr/bin/env python3
"""Record the outputs of a checkout's ops, and diff two such records.

A performance change should leave every output as it was. This script
records, for the checkout it lives in:

- every op of the ``family_grid`` benchmark workload for seeds 1 and 3
  (the serialized torsion report);
- every op of the ``group_regular`` workload for seeds 1 and 3 (the
  serialized torsion report);
- the ops of the first 60 ``random_suites`` rounds of seed 2 (the
  deviation each check returns);
- the sha256 of the bytes of every differential block that
  ``cochain_complex`` builds for lens(128, 1), the torus quotient by
  (Z/11)^2, lens(7, 2) and lens(5, 1) with three edges subdivided (whose
  boundary entries include single negative terms) with regular
  coefficients, the circle at grid 1024, lens(5, 1) under the Z/5
  character and the circle with t -> -1;
- the golden complexes of ``tests/test_golden.py``: the serialized torsion
  report of each case, and the extended cohomology of each complex;
- the payloads of the ``checks`` command: the randomized suites, fast at
  seed 3 and in full at seed 7.

The workloads are read from ``benchmark/workloads.py`` as they stand.
Usage, from anywhere:

    python3 scripts/compare_outputs.py write OUT.json
    python3 scripts/compare_outputs.py diff BEFORE.json AFTER.json

``diff`` prints the number of byte-identical outputs and the largest
relative deviation of the numbers in the others, and exits 1 when an output
differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAMILY_SEEDS = (1, 3)
GROUP_SEEDS = (1, 3)
SUITE_SEED, SUITE_ROUNDS = 2, 60
CHECKS_RUNS = ((3, True), (7, False))  # (seed, fast) of run_all_suites


def _import_checkout():
    """Put this checkout's library, benchmark and tests first on the path."""
    for sub in ("src", "benchmark", "tests"):
        sys.path.insert(0, os.path.join(ROOT, sub))
    import workloads
    return workloads


def _op_output(out) -> str:
    """An op's output as text: a report's JSON, or the repr of a number."""
    if isinstance(out, tuple):  # (report, its JSON) of the family_grid ops
        return out[1]
    return repr(out)


def _golden() -> dict:
    import test_golden
    from l2torsion.extcoh import cohomology
    from l2torsion.serialize import dumps, report_to_json, verdict_to_json
    from l2torsion.torsion import torsion

    out = {}
    for name, c in test_golden._random_complexes():
        eps0 = torsion(c).epsilon
        for factor in test_golden.FACTORS if eps0 is not None else (1.0,):
            eps = None if factor == 1.0 else eps0 * factor
            out[f"golden/{name}@{factor:.3g}"] = dumps(report_to_json(torsion(c, epsilon=eps)))
        out[f"golden/{name}/cohomology"] = dumps([
            {"betti": d.betti, "ns": d.ns, "verdict": verdict_to_json(d.verdict)}
            for d in cohomology(c).degrees
        ])
    for name, run in test_golden._example_runs():
        out[f"golden/{name}"] = dumps(report_to_json(run()))
    return out


def _cochains() -> dict:
    from l2torsion import cellular as cel

    subdivided = cel.lens_complex(5, 1)
    for edge in ("e1", "e1.a", "e1.b"):
        subdivided = cel.elementary_subdivision(subdivided, edge)
    regular = {"lens(128,1)": cel.lens_complex(128, 1),
               "torus(11)": cel.torus_quotient_complex(11),
               "lens(7,2)": cel.lens_complex(7, 2),
               "lens(5,1)+3 edges": subdivided}
    cases = {f"{name}/regular": (k, cel.regular_representation(k.pi))
             for name, k in regular.items()}
    cases["circle/regular_s1(1024)"] = (cel.circle_complex(),
                                        cel.circle_regular_representation(1024))
    cases["lens(5,1)/character"] = (cel.lens_complex(5, 1),
                                    cel.cyclic_character_representation(5, 1))
    cases["circle/lambda_minus1"] = (cel.circle_complex(),
                                     cel.circle_unit_representation(-1.0 + 0.0j))
    out = {}
    for name, (k, rep) in cases.items():
        digest = hashlib.sha256()
        for d in cel.cochain_complex(k, rep).diffs:
            for _, stack in d.blocks.groups:
                digest.update(stack.tobytes())
        out[f"cochain/{name}"] = digest.hexdigest()
    return out


def _checks() -> dict:
    from l2torsion.harness import run_all_suites
    from l2torsion.serialize import dumps

    return {f"checks/{seed}{'/fast' if fast else ''}": dumps(run_all_suites(seed=seed, fast=fast))
            for seed, fast in CHECKS_RUNS}


def record() -> dict:
    workloads = _import_checkout()
    out = {}
    for seed in FAMILY_SEEDS:
        for r, ops in enumerate(workloads.family_grid(seed)):
            for k, op in enumerate(ops):
                out[f"family_grid/{seed}/{r}/{k}:{op.kind}"] = _op_output(op.run())
    for seed in GROUP_SEEDS:
        for r, ops in enumerate(workloads.group_regular(seed)):
            for k, op in enumerate(ops):
                out[f"group_regular/{seed}/{r}/{k}:{op.kind}"] = _op_output(op.run())
    suites = workloads.random_suites(SUITE_SEED)[:SUITE_ROUNDS]
    for r, ops in enumerate(suites):
        for k, op in enumerate(ops):
            out[f"random_suites/{SUITE_SEED}/{r}/{k}:{op.kind}"] = _op_output(op.run())
    out.update(_cochains())
    out.update(_golden())
    out.update(_checks())
    return out


def _numbers(text: str) -> list:
    """The numbers of an output, in order."""
    def walk(x):
        if isinstance(x, bool):
            return
        if isinstance(x, (int, float)):
            yield float(x)
        elif isinstance(x, list):
            for v in x:
                yield from walk(v)
        elif isinstance(x, dict):
            for k in sorted(x):
                yield from walk(x[k])
    return list(walk(json.loads(text)))


def _deviation(a: str, b: str) -> float:
    """Largest relative deviation of the numbers of two outputs; inf when
    their structure differs."""
    try:
        xs, ys = _numbers(a), _numbers(b)
    except ValueError:
        return math.inf
    if len(xs) != len(ys):
        return math.inf
    worst = 0.0
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    return worst


def diff(before: dict, after: dict) -> int:
    keys = sorted(set(before) | set(after))
    missing = [k for k in keys if k not in before or k not in after]
    same = [k for k in keys if before.get(k) == after.get(k) and k not in missing]
    changed = [k for k in keys if k not in same and k not in missing]
    worst = max((_deviation(before[k], after[k]) for k in changed), default=0.0)
    print(f"{len(same)}/{len(keys)} outputs byte-identical")
    for k in missing:
        print(f"  only in one record: {k}")
    for k in changed:
        print(f"  differs: {k} (relative deviation {_deviation(before[k], after[k]):.3e})")
    print(f"largest relative deviation: {worst:.3e}")
    return 0 if len(same) == len(keys) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write").add_argument("out")
    p = sub.add_parser("diff")
    p.add_argument("before")
    p.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "write":
        with open(args.out, "w") as fh:
            json.dump(record(), fh, indent=1, sort_keys=True)
        return 0
    with open(args.before) as fh, open(args.after) as gh:
        return diff(json.load(fh), json.load(gh))


if __name__ == "__main__":
    sys.exit(main())
