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
from l2torsion.harness import DEFAULT_SEED
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

    def test_fkdet_cokernel_at_a_coarse_rank_cut(self, tmp_path):
        """A cokernel of mass 1/16 is not a dense image at --tol-rank 0.1."""
        backend = family_backend(uniform_interval_samples(16))
        blocks = [np.array([[2.0]])] * 15 + [np.array([[2.0], [0.0]])]
        m = family_morphism(family_object(backend, 1), family_object(backend, (1,) * 15 + (2,)),
                            blocks)
        path, out = tmp_path / "m.json", tmp_path / "run"
        path.write_text(json.dumps(morphism_to_json(m)))
        main(["fkdet", "--morphism", str(path), "--tol-rank", "0.1", "--out", str(out)])
        assert _read(out / "fkdet.json")["verdict"]["dense_image"] is False


def _scaled_pairs(low: int, factor: int) -> dict:
    """60 cells x_i of dimension ``low`` and 60 cells y_i one above, with
    boundary factor * x_i, over the infinite cyclic group."""
    xs = [f"x{i}" for i in range(60)]
    ys = [f"y{i}" for i in range(60)]
    return {
        "pi": {"infinite_cyclic": True},
        "cells": [[low, x] for x in xs] + [[low + 1, y] for y in ys],
        "boundaries": {y: [[x, [[0, factor]]]] for x, y in zip(xs, ys)},
    }


class TestScalarOutsideFloatRange:
    """log rho = +-60 ln 10^6 = +-828.9: exp overflows, or underflows to
    0.0. The report keeps the log coefficient and withholds the scalar."""

    @pytest.mark.parametrize("low, sign", [(1, 1.0), (0, -1.0)])
    def test_exit_3_with_the_log_coefficient(self, inputs, tmp_path, caplog, low, sign):
        path, out = tmp_path / "k.json", tmp_path / "run"
        path.write_text(json.dumps(_scaled_pairs(low, 10**6)))
        code = main(["torsion", "--complex", str(path),
                     "--rep", str(inputs / "rep_lambda_minus1.json"), "--out", str(out)])
        assert code == EXIT_NO_SCALAR
        report = _read(out / "torsion.json")["report"]
        assert report["scalar_value"] is None
        assert report["combined"]["log_coeff"] == pytest.approx(sign * 60 * math.log(1e6))
        assert "outside float range" in caplog.text


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


# the flags each command reads, and a value for every flag
READS = {
    "torsion": ("complex", "rep", "grid", "epsilon", "tol-rank", "out"),
    "fkdet": ("morphism", "tol-rank", "out"),
    "density": ("morphism", "tol-rank", "out"),
    "detclass": ("complex", "rep", "grid", "tol-rank", "out"),
    "checks": ("seed", "suite", "out"),
    "examples": ("out",),
}
VALUES = {"complex": "k.json", "rep": "r.json", "morphism": "m.json", "grid": "64",
          "epsilon": "0.5", "tol-rank": "1e-9", "seed": "5", "suite": "fast", "out": "o"}
HEADER = {"version", "command", "tolerances", "grid", "epsilon", "seed"}


class TestFlags:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, reads in READS.items()
        for flag in VALUES if flag not in reads
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{flag}", VALUES[flag]])
        assert exc.value.code == EXIT_INVALID
        assert f"--{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["torsion", "detclass"])
    def test_complex_commands_read_every_flag(self, command, inputs, tmp_path):
        values = {"complex": str(inputs / "circle.json"),
                  "rep": str(inputs / "rep_circle_regular.json"), "out": str(tmp_path / "o")}
        args = [command] + [x for flag in READS[command]
                            for x in (f"--{flag}", values.get(flag, VALUES[flag]))]
        assert main(args) == EXIT_OK
        payload = _read(tmp_path / "o" / f"{command}.json")
        assert HEADER <= set(payload)
        assert payload["grid"] == 64 and payload["tolerances"] == {"rank": 1e-9}
        assert payload["epsilon"] == (0.5 if command == "torsion" else None)
        assert payload["seed"] == DEFAULT_SEED

    @pytest.mark.parametrize("command, name", [("fkdet", "fkdet.json"), ("density", "density.csv")])
    def test_morphism_commands_read_every_flag(self, command, name, tmp_path):
        obj = matrix_object(matrix_backend(), 2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(morphism_to_json(
            matrix_morphism(obj, obj, [[3.0, 0.0], [0.0, 1e-8]]))))
        out = tmp_path / "o"
        # 1e-8 falls under the cut 1e-6 * 3, so the map has a kernel: no
        # determinant (exit 3) and kernel mass in the density
        code = main([command, "--morphism", str(path), "--tol-rank", "1e-6", "--out", str(out)])
        assert code == (EXIT_NO_SCALAR if command == "fkdet" else EXIT_OK)
        if command == "density":
            rows = (out / name).read_text().strip().splitlines()[1:]
            assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.0, 3.0])
            return
        payload = _read(out / name)
        assert HEADER <= set(payload)
        assert payload["tolerances"] == {"rank": 1e-6}
        assert (payload["grid"], payload["epsilon"], payload["seed"]) == (None, None, DEFAULT_SEED)

    def test_checks_reads_every_flag(self, tmp_path):
        out = tmp_path / "o"
        assert main(["checks", "--seed", "5", "--suite", "fast", "--out", str(out)]) == EXIT_OK
        payload = _read(out / "checks.json")
        assert HEADER <= set(payload)
        assert payload["seed"] == 5 and payload["tolerances"] == {"rank": 1e-10}
        assert (payload["grid"], payload["epsilon"]) == (None, None)

    def test_grid_without_a_grid_is_rejected(self, inputs):
        """Only a regular_s1 representation has a grid to set."""
        code = main([
            "torsion",
            "--complex", str(inputs / "lens_5_1.json"),
            "--rep", str(inputs / "rep_lens5_character.json"),
            "--grid", "64",
        ])
        assert code == EXIT_INVALID
