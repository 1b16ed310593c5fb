"""The package's import surface and the runnable scripts."""

import json
import math
import os
import subprocess
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_torsion_submodule_is_a_module():
    import l2torsion.torsion as T

    assert isinstance(T, types.ModuleType)
    assert callable(T.torsion)


def _run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_divergent_demo_reports_no_scalar():
    report = json.loads(_run_script("divergent_demo.py", "--grid", "256"))
    assert report["scalar_value"] is None
    assert report["detclass"][1]["status"] == "Divergent"


def test_grid_refinement_error_is_ln2_over_n():
    rows = _run_script("grid_refinement.py", "--grids", "64", "256").splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [64, 256]
    for row in rows:
        grid, value = int(row.split()[0]), float(row.split()[1])
        assert abs(value - 1.0) <= 1.01 * math.log(2.0) / grid


def test_benchmark_tracer_installs():
    """The benchmark tracer wraps library methods by name; it must still
    find every one of them."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from tracer import Tracer; Tracer().install()"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "benchmark")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_family_grid_meets_its_oracles():
    """One second of the family_grid benchmark: every op meets its oracle."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
         "--workload", "family_grid", "--seconds", "1", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_benchmark_random_suites_meets_its_oracles():
    """One second of the random_suites benchmark: every exact-triple, cone
    and epsilon-pair op meets its oracle."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
         "--workload", "random_suites", "--seconds", "1", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_options_no_caller_sets_are_constants():
    """Frame labels, prefixes, trace scales, seeds and sampling bounds that
    no caller set are constants, and HObject has no ``products`` view."""
    import inspect

    from l2torsion import backends, cellular, detline, extcoh, harness, torsion

    removed = {
        detline.canonical_element: {"labels"},
        detline.push_forward: {"label"},
        detline.exact_sequence_iso: {"sub_label", "quot_label"},
        extcoh.det_line_of_extended: {"target_label", "source_label"},
        extcoh.extended_pushforward: {"labels", "new_labels"},
        torsion.complex_det_element: {"prefix"},
        torsion.nu_map: {"sigma"},
        torsion.LesIsomorphism: {"prefix"},
        backends.group_object: {"product"},
        backends.uniform_interval_samples: {"a", "b"},
        cellular.Representation.check_relations: {"tol"},
        cellular.matrix_representation: {"scale"},
        cellular.regular_representation: {"scale"},
        cellular.circle_regular_representation: {"scale"},
        cellular.subdivision_invariance_check: {"seed", "epsilon"},
        harness.random_invertible: {"smin", "smax"},
        harness.random_complex_with_cohomology: {"max_rank", "max_betti"},
    }
    assert sum(map(len, removed.values())) == 24
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__qualname__
    assert not hasattr(backends.HObject, "products")


def test_rank_cut_only_where_a_caller_sets_it():
    """``tol`` is a parameter of the entry points that set or thread a rank
    cut; the functions below them use ``DEFAULT_RANK_TOL``. torsion takes
    the coefficient of its volume element, not an element."""
    import inspect

    from l2torsion import backends, cellular, detline, extcoh, spectral, torsion

    removed = {
        backends.kernel_and_image_closure: {"tol", "svd"},
        detline.push_forward: {"tol"},
        detline.orthogonal_section: {"tol"},
        detline.check_exactness: {"tol"},
        detline.induced_quotient_object: {"tol"},
        detline.exact_sequence_iso: {"tol"},
        extcoh.extended_object: {"tol"},
        extcoh.determinant_class_test: {"tol"},
        extcoh.extended_pushforward: {"tol"},
        extcoh.kernel_cokernel_lines: {"tol"},
        spectral.log_fk_det: {"tol"},
        spectral.fk_det: {"tol"},
        spectral.tau_isomorphism_test: {"tol"},
        torsion.nu_map: {"tol"},
        torsion.torsion_acyclic: {"tol"},
        torsion.default_epsilon: {"tol"},
        torsion.split_complex: {"tol"},
        torsion.les_connecting_iso: {"tol"},
        torsion._les_connecting_iso: {"tol"},
        torsion.cone_torsion_check: {"tol"},
        torsion.torsion: {"sigma"},
        torsion.complex_det_element: {"log_coeff"},
    }
    kept = [
        backends.fiber_svds, torsion.hodge_split, torsion.torsion, torsion._torsion,
        torsion._laplacian_torsion, torsion._laplacian_cut, extcoh.cohomology,
        cellular.combinatorial_torsion, spectral.fk_det_extended,
        spectral.singular_density, spectral.spectral_density,
    ]
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__qualname__
    for fn in kept:
        assert "tol" in inspect.signature(fn).parameters, fn.__qualname__
    assert "sigma_log" in inspect.signature(torsion.torsion).parameters
    assert {"svd"} <= set(inspect.signature(detline.orthogonal_section).parameters)
    assert {"svd"} <= set(inspect.signature(detline.induced_quotient_object).parameters)
    for fn in (cellular.combinatorial_torsion, torsion.torsion):
        assert inspect.signature(fn).parameters["tol"].default == backends.DEFAULT_RANK_TOL


def test_settable_values_lists_every_default():
    """The settable-values audit finds a caller that sets every defaulted
    parameter of the library."""
    out = _run_script("settable_values.py")
    assert out.startswith("defaulted parameters: 58, set by no caller: 0\n")
