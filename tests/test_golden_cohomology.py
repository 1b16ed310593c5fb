"""Extended cohomology and determinant-class verdicts read off the Hodge split.

``golden_cohomology.json`` holds, degree by degree, what ``cohomology()``
and ``determinant_class_test()`` returned at commit db2343d, where each of
them decomposed the complex again per degree (kernel and image-closure
SVDs, an extended object and the kernel of the Laplacian) instead of
reading the one Hodge split. The complexes are the seeded random ones of
``test_golden.py``, the e^(-1/x) family, and the cochain complexes of the
circle (N = 256), lens(8, 1) and torus_quotient(3) with regular
coefficients. To record the fixture again, run this file with the library
to record on the path:

    PYTHONPATH=src python tests/test_golden_cohomology.py > tests/golden_cohomology.json

The recorded ``determinant_class_test()`` ladders are empty in the degrees
whose C^{i-1} is zero. Those degrees now carry the all-zero ladder of an
empty density, the one ``cohomology()`` reports there; every other recorded
field is compared as it stands.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest

from l2torsion.cellular import (
    circle_complex,
    circle_regular_representation,
    cochain_complex,
    lens_complex,
    regular_representation,
    torus_quotient_complex,
)
from l2torsion.extcoh import ChainComplexC, cohomology, determinant_class_test
from l2torsion.harness import random_complex_with_cohomology
from l2torsion.spectral import LADDER_DEPTH
from l2torsion.torsion import torsion
from test_golden import GRID, _close, _coeff_ok, _divergent_complex, _random_complexes

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_cohomology.json")


def _complexes() -> dict:
    lens, torus = lens_complex(8, 1), torus_quotient_complex(3)
    return dict(_random_complexes() + [
        ("divergent", _divergent_complex()),
        ("circle-regular",
         cochain_complex(circle_complex(), circle_regular_representation(GRID))),
        ("lens-8-1-regular", cochain_complex(lens, regular_representation(lens.pi))),
        ("torus-quotient-3-regular",
         cochain_complex(torus, regular_representation(torus.pi))),
    ])


def _verdict(v) -> dict:
    return {"status": v.status, "log_integral": v.log_integral,
            "ladder": [[eps, val] for eps, val in v.ladder]}


def _summary(c: ChainComplexC) -> dict:
    return {
        "cohomology": [
            dict(_verdict(d.verdict), betti=float(d.betti), ns=d.ns)
            for d in cohomology(c).degrees
        ],
        "determinant_class_test": [_verdict(v) for v in determinant_class_test(c)],
    }


COMPLEXES = _complexes()


def record() -> list:
    return [dict(_summary(c), name=name) for name, c in COMPLEXES.items()]


# ---------------------------------------------------------------------------
# the tests


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(FIXTURE) as fh:
        return {rec["name"]: rec for rec in json.load(fh)}


def _log_integral_ok(got, want) -> bool:
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return _coeff_ok(got, want)


def _ladder_ok(got, want) -> bool:
    return len(got) == len(want) and all(
        ge == we and _coeff_ok(gv, wv) for (ge, gv), (we, wv) in zip(got, want)
    )


@pytest.mark.parametrize("name", COMPLEXES)
def test_matches_recording(name, recorded):
    c, rec = COMPLEXES[name], recorded[name]
    got = _summary(c)
    assert len(got["cohomology"]) == len(rec["cohomology"]) == c.length
    for g, w in zip(got["cohomology"], rec["cohomology"]):
        assert _close(g["betti"], w["betti"], abs_=1e-12)
        assert g["status"] == w["status"]
        assert _log_integral_ok(g["log_integral"], w["log_integral"])
        assert _close(g["ns"], w["ns"], abs_=1e-8)
        assert _ladder_ok(g["ladder"], w["ladder"])
    assert len(got["determinant_class_test"]) == len(rec["determinant_class_test"])
    for i, (g, w) in enumerate(zip(got["determinant_class_test"],
                                   rec["determinant_class_test"])):
        assert g["status"] == w["status"]
        assert _log_integral_ok(g["log_integral"], w["log_integral"])
        want = w["ladder"]
        if not want:
            # the one intended change: no incoming spectrum, all-zero ladder
            assert i == 0 or c.objects[i - 1].dim_tau == 0
            want = [[10.0 ** -m, 0.0] for m in range(1, LADDER_DEPTH + 1)]
        assert _ladder_ok(g["ladder"], want)


@pytest.mark.parametrize("name", COMPLEXES)
def test_reports_agree_with_torsion(name):
    c = COMPLEXES[name]
    verdicts = determinant_class_test(c)
    assert [v.status for v in torsion(c).detclass] == [v.status for v in verdicts]
    betti = [d.betti for d in cohomology(c).degrees]
    assert torsion(c, epsilon=math.inf).betti == betti


@pytest.mark.parametrize("query", [cohomology, determinant_class_test])
def test_one_hodge_split_and_no_second_decomposition(query, monkeypatch):
    """Both queries read the complex off one Hodge split and decompose
    nothing again degree by degree."""
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    extcoh = sys.modules["l2torsion.extcoh"]
    count(sys.modules["l2torsion.torsion"], "hodge_split")
    for name in ("extended_object", "complement", "fiber_svds"):
        count(extcoh, name)
    count(ChainComplexC, "laplacian")
    query(random_complex_with_cohomology(np.random.default_rng(7)))
    assert calls == Counter(hodge_split=1)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
