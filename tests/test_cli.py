"""End-to-end command line runs through main()."""

import json
import math

import numpy as np
import pytest

from l2torsion.backends import (
    family_backend,
    family_morphism,
    family_object,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    uniform_interval_samples,
)
from l2torsion.cli import EXIT_INVALID, EXIT_NO_SCALAR, EXIT_OK, main
from l2torsion.serialize import morphism_to_json


@pytest.fixture()
def inputs(tmp_path):
    """Bundled example inputs written out once per test."""
    outdir = tmp_path / "inputs"
    assert main(["examples", "--out", str(outdir)]) == EXIT_OK
    return outdir


def _read(path):
    with open(path) as fh:
        return json.load(fh)


class TestExamples:
    def test_emits_all_inputs(self, inputs):
        names = {p.name for p in inputs.iterdir()}
        assert "circle.json" in names
        assert "lens_5_1.json" in names
        assert "rep_lambda_minus1.json" in names

    def test_inputs_are_valid_json(self, inputs):
        for p in inputs.iterdir():
            _read(p)


class TestTorsionCommand:
    def test_circle_scalar(self, inputs, tmp_path):
        out = tmp_path / "run"
        code = main([
            "torsion",
            "--complex", str(inputs / "circle.json"),
            "--rep", str(inputs / "rep_lambda_minus1.json"),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = _read(out / "torsion.json")
        assert payload["report"]["scalar_value"] == pytest.approx(0.5, abs=1e-10)
        assert payload["version"]
        assert payload["command"] == "torsion"

    def test_lens_scalar(self, inputs, tmp_path):
        out = tmp_path / "run"
        code = main([
            "torsion",
            "--complex", str(inputs / "lens_5_1.json"),
            "--rep", str(inputs / "rep_lens5_character.json"),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        zeta = np.exp(2j * np.pi / 5)
        payload = _read(out / "torsion.json")
        assert payload["report"]["scalar_value"] == pytest.approx(
            abs(zeta - 1.0) ** -2, abs=1e-8
        )

    def test_betti_blocks_scalar_exit_3(self, inputs, tmp_path):
        out = tmp_path / "run"
        code = main([
            "torsion",
            "--complex", str(inputs / "torus_quotient.json"),
            "--rep", str(inputs / "rep_torus_regular.json"),
            "--out", str(out),
        ])
        assert code == EXIT_NO_SCALAR
        payload = _read(out / "torsion.json")
        assert payload["report"]["scalar_value"] is None
        assert payload["report"]["betti"][1] == pytest.approx(2.0 / 9.0, abs=1e-8)

    def test_group_mismatch_rejected(self, inputs):
        code = main([
            "torsion",
            "--complex", str(inputs / "circle.json"),
            "--rep", str(inputs / "rep_lens5_character.json"),
        ])
        assert code == EXIT_INVALID

    def test_deterministic_reports(self, inputs, tmp_path):
        args = [
            "torsion",
            "--complex", str(inputs / "circle.json"),
            "--rep", str(inputs / "rep_lambda_minus1.json"),
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "torsion.json").read_bytes() == (b / "torsion.json").read_bytes()


class TestMorphismCommands:
    @pytest.fixture()
    def morphism_file(self, tmp_path):
        obj = matrix_object(matrix_backend(), 2)
        m = matrix_morphism(obj, obj, [[3.0, 0.0], [0.0, 2.0]])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(morphism_to_json(m)))
        return path

    def test_fkdet(self, morphism_file, tmp_path):
        out = tmp_path / "run"
        code = main(["fkdet", "--morphism", str(morphism_file), "--out", str(out)])
        assert code == EXIT_OK
        payload = _read(out / "fkdet.json")
        assert payload["log_det"] == pytest.approx(math.log(6.0), abs=1e-12)
        assert payload["verdict"]["status"] == "Convergent"

    def test_density_csv(self, morphism_file, tmp_path):
        out = tmp_path / "run"
        code = main(["density", "--morphism", str(morphism_file), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "density.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,cumulative_mass"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows[-1][1] == pytest.approx(2.0)
        assert sorted(r[0] for r in rows) == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_missing_morphism_flag(self):
        assert main(["fkdet"]) == EXIT_INVALID

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["scale", "weight"])
    def test_nonfinite_trace_data_rejected(self, tmp_path, caplog, where, value):
        if where == "scale":
            obj = matrix_object(matrix_backend(), 1)
            payload = morphism_to_json(matrix_morphism(obj, obj, [[2.0]]))
            payload["backend"]["scale"] = value
        else:
            obj = family_object(family_backend(uniform_interval_samples(4)), 1)
            payload = morphism_to_json(family_morphism(obj, obj, [[[2.0]]] * 4))
            payload["backend"]["samples"][1][1] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main(["fkdet", "--morphism", str(path)]) == EXIT_INVALID
        assert "finite" in caplog.text


class TestDetclassCommand:
    def test_circle_regular(self, inputs, tmp_path):
        out = tmp_path / "run"
        code = main([
            "detclass",
            "--complex", str(inputs / "circle.json"),
            "--rep", str(inputs / "rep_circle_regular.json"),
            "--grid", "512",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = _read(out / "detclass.json")
        assert payload["determinant_class"] is True
        assert all(d["status"] == "Convergent" for d in payload["degrees"])


class TestInvalidInputs:
    def test_missing_file(self):
        assert main(["torsion", "--complex", "/no/such.json",
                     "--rep", "/no/such2.json"]) == EXIT_INVALID

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cells": [')
        assert main(["torsion", "--complex", str(bad), "--rep", str(bad)]) == (
            EXIT_INVALID
        )

    def test_bad_epsilon(self, inputs):
        for epsilon in ("-1.0", "nan"):
            code = main([
                "torsion",
                "--complex", str(inputs / "circle.json"),
                "--rep", str(inputs / "rep_lambda_minus1.json"),
                "--epsilon", epsilon,
            ])
            assert code == EXIT_INVALID, epsilon

    def test_bad_rank_tolerance(self, inputs, caplog):
        code = main([
            "torsion",
            "--complex", str(inputs / "circle.json"),
            "--rep", str(inputs / "rep_lambda_minus1.json"),
            "--tol-rank", "nan",
        ])
        assert code == EXIT_INVALID
        assert "rank tolerance" in caplog.text

    def test_bad_grid(self, inputs):
        code = main([
            "detclass",
            "--complex", str(inputs / "circle.json"),
            "--rep", str(inputs / "rep_circle_regular.json"),
            "--grid", "4",
        ])
        assert code == EXIT_INVALID


class TestChecksCommand:
    def test_fast_suite_passes(self, tmp_path):
        out = tmp_path / "run"
        code = main(["checks", "--suite", "fast", "--out", str(out)])
        assert code == EXIT_OK
        payload = _read(out / "checks.json")
        assert payload["results"]["passed"] is True
