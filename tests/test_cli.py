import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from harmonic_ports import (
    Metric,
    cli,
    errors,
    build_complex,
    gen_mesh,
    hodge,
    initial_state,
    sim,
    stokesdirac,
    write_mesh,
    write_state,
)
from harmonic_ports import metric as metric_mod
from harmonic_ports.cli import main, sd_verify_main

from conftest import ACCEPTANCE

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _write_torus(tmp_path, resolution=4):
    path = tmp_path / "torus.json"
    write_mesh(gen_mesh("torus", resolution), path)
    return str(path)


def _write_mobius(tmp_path):
    obj = {
        "dimension": 2,
        "vertices": [
            [float(np.cos(2 * np.pi * i / 5)), float(np.sin(2 * np.pi * i / 5)), 0.1 * i]
            for i in range(5)
        ],
        "simplices": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]],
    }
    path = tmp_path / "mobius.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_gen_writes_mesh_and_reports_counts(tmp_path, capsys):
    out = tmp_path / "annulus.json"
    code, rep = _run(capsys, ["gen", "--shape", "annulus", "--resolution", "2", "--out", str(out)])
    assert code == 0
    assert rep["command"] == "gen"
    assert rep["euler_characteristic"] == 0
    assert out.exists()
    obj = json.loads(out.read_text())
    assert obj["dimension"] == 2
    assert rep["counts"] == obj["counts"]


def test_analyze_reports_harmonic_dimensions(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    code, rep = _run(capsys, ["analyze", mesh])
    assert code == 0
    assert rep["passed"] is True
    assert rep["betti"] == [1, 2, 1]
    assert rep["harmonic_dimensions"]["neumann"] == [1, 2, 1]
    assert rep["harmonic_dimensions"]["dirichlet"] == [1, 2, 1]
    assert rep["validation"]["manifold"] is True
    assert rep["validation"]["orientable"] is True


def test_analyze_flags_non_orientable_input(tmp_path, capsys):
    code, rep = _run(capsys, ["analyze", _write_mobius(tmp_path)])
    assert code == 1
    assert rep["passed"] is False
    assert rep["validation"]["orientable"] is False
    assert rep["harmonic_dimensions"] is None
    findings = rep["validation"]["findings"]
    assert any(f["kind"] == "non_orientable" for f in findings)


def test_sd_verify_refuses_a_planar_mobius_strip(tmp_path, capsys):
    # the strict read checks orientability whatever the embedding dimension
    obj = json.loads(Path(_write_mobius(tmp_path)).read_text())
    obj["vertices"] = [v[:2] for v in obj["vertices"]]
    path = tmp_path / "planar.json"
    path.write_text(json.dumps(obj))
    assert main(["sd-verify", str(path), "--p", "1", "--q", "2"]) == 1
    assert capsys.readouterr().err == "error: orientation conflict across face (3, 4)\n"


@pytest.mark.parametrize("mesh, error", [
    ({"dimension": 2, "vertices": [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -0.5, 0.8],
                                   [0.5, -0.5, -0.8]],
      "simplices": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}, "face (0, 1) has 3 cofaces"),
    ({"dimension": 2, "vertices": [[0, 0], [1, -1], [1, 1], [-1, 1], [-1, -1]],
      "simplices": [[0, 1, 2], [0, 3, 4]]}, "vertex 0 link is not a path or cycle"),
], ids=["fin", "bowtie"])
def test_sd_verify_refuses_non_manifold_input(tmp_path, capsys, mesh, error):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(mesh))
    assert main(["sd-verify", str(path), "--p", "1", "--q", "2"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    code, rep = _run(capsys, ["analyze", str(path)])
    assert code == 1 and rep["validation"]["manifold"] is False


def test_analyze_flags_isolated_vertex(tmp_path, capsys):
    # a vertex in no top simplex is a validation finding, not a numerical failure
    path = tmp_path / "disk.json"
    write_mesh(gen_mesh("disk", 2), path)
    obj = json.loads(path.read_text())
    obj["vertices"].append([5.0, 5.0])
    path.write_text(json.dumps(obj))
    code, rep = _run(capsys, ["analyze", str(path)])
    assert code == 1
    assert rep["passed"] is False
    assert rep["validation"]["manifold"] is False
    assert rep["harmonic_dimensions"] is None
    findings = rep["validation"]["findings"]
    assert any(f["kind"] == "isolated_vertex" for f in findings)


@pytest.mark.parametrize("argv", [
    ["sd-verify", "MESH", "--p", "1", "--q", "2"],
    ["simulate", "MESH", "--p", "1", "--q", "2", "--steps", "1", "--out", "unwritten.csv"],
    ["decompose", "MESH", "unread.json"],
], ids=lambda argv: argv[0])
def test_strict_commands_refuse_an_isolated_vertex(tmp_path, capsys, argv):
    # a usage error (exit 3), not a zero mass diagonal (exit 2)
    path = tmp_path / "disk.json"
    write_mesh(gen_mesh("disk", 2), path)
    obj = json.loads(path.read_text())
    obj["vertices"].append([5.0, 5.0])
    path.write_text(json.dumps(obj))
    code = main([str(path) if a == "MESH" else a for a in argv])
    assert code == 3
    assert capsys.readouterr().err == f"error: vertex {len(obj['vertices']) - 1} lies in no top simplex\n"


def test_analyze_rejects_degenerate_geometry(tmp_path, capsys):
    # a numerically flat triangle defeats the frame factorization
    obj = {
        "dimension": 2,
        "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-300, 0.0]],
        "simplices": [[0, 1, 2]],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(obj))
    code = main(["analyze", str(path)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "sd-verify", "simulate", "decompose"])
def test_degenerate_element_exits_2_from_every_subcommand(tmp_path, capsys, command):
    # the second triangle (0, 1, 3) has zero area: every command's metric
    # frame check raises, after a lenient (analyze) or strict read
    obj = {"dimension": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]],
           "simplices": [[0, 1, 2], [0, 1, 3]]}
    mesh = tmp_path / "flat.json"
    mesh.write_text(json.dumps(obj))
    cochain = tmp_path / "c.json"
    cochain.write_text(json.dumps({"degree": 1, "values": [0.0] * 5}))
    argv = {
        "analyze": ["analyze", str(mesh)],
        "sd-verify": ["sd-verify", str(mesh), "--p", "1", "--q", "2"],
        "simulate": ["simulate", str(mesh), "--p", "1", "--q", "2", "--out",
                     str(tmp_path / "trace.csv")],
        "decompose": ["decompose", str(mesh), str(cochain)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: degenerate element (0, 1, 3)\n"


@pytest.mark.parametrize("command", ["analyze", "sd-verify", "simulate"])
def test_repeated_top_simplex_exits_1_with_one_line(tmp_path, capsys, command):
    # a library error outside the numerical and usage groups exits 1
    obj = {"dimension": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
           "simplices": [[0, 1, 2], [0, 1, 2]]}
    mesh = tmp_path / "twice.json"
    mesh.write_text(json.dumps(obj))
    argv = {
        "analyze": ["analyze", str(mesh)],
        "sd-verify": ["sd-verify", str(mesh), "--p", "1", "--q", "2"],
        "simulate": ["simulate", str(mesh), "--p", "1", "--q", "2", "--out",
                     str(tmp_path / "trace.csv")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: simplex (0, 1, 2) appears twice\n"


def test_underflowed_mass_exits_2_with_one_line(tmp_path, capsys):
    # at a scale of 1e60 every entry of the degree-3 mass of ball:2
    # underflows to 0
    cx = gen_mesh("ball", 2)
    mesh = tmp_path / "ball.json"
    write_mesh(build_complex(cx.simplices[3], cx.vertices * 1e60), mesh)
    assert main(["analyze", str(mesh)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "mass matrix at degree 3" in err


def test_non_finite_numbers_in_input_files_exit_3(tmp_path, capsys):
    # 1e309 overflows to inf when parsed; readers reject it as malformed
    flat = {"dimension": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "simplices": [[0, 1, 2]]}
    bad_mesh = tmp_path / "bad_mesh.json"
    bad_mesh.write_text(json.dumps(flat).replace("1.0", "1e309", 1))
    cx = gen_mesh("torus", 4)
    coch = {"degree": 1, "values": [0.5] * cx.num_simplices(1), "ordering": "canonical"}
    bad_cochain = tmp_path / "bad_cochain.json"
    bad_cochain.write_text(json.dumps(coch).replace("0.5", "1e309", 1))
    for argv in (["analyze", str(bad_mesh)],
                 ["decompose", _write_torus(tmp_path), str(bad_cochain)]):
        code = main(argv)
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


def test_json_booleans_are_not_integers_exit_3(tmp_path, capsys):
    # true and false are JSON booleans, not the integers 1 and 0
    flat = {"dimension": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "simplices": [[0, 1, 2]]}
    cases = [
        ("bool_vertex.json", dict(flat, simplices=[[0, True, 2]]),
         "each simplex must list 3 vertex indices"),
        ("bool_dimension.json", dict(flat, dimension=True),
         "dimension must be a positive integer"),
    ]
    for name, obj, message in cases:
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path)]) == 3, name
        assert message in capsys.readouterr().err
    cx = gen_mesh("torus", 4)
    coch = {"degree": True, "values": [0.5] * cx.num_simplices(1)}
    path = tmp_path / "bool_degree.json"
    path.write_text(json.dumps(coch))
    assert main(["decompose", _write_torus(tmp_path), str(path)]) == 3
    assert "cochain degree must be an integer" in capsys.readouterr().err


def test_integers_beyond_float_range_in_input_files_exit_3(tmp_path, capsys):
    # a 401-digit integer is valid JSON but has no float value
    huge = "9" * 401
    flat = {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]],
            "simplices": [[0, 1, 2]]}
    bad_mesh = tmp_path / "bad_mesh.json"
    bad_mesh.write_text(json.dumps(flat).replace("[1, 0]", f"[{huge}, 0]", 1))
    cx = gen_mesh("torus", 4)
    coch = {"degree": 1, "values": [0.5] * cx.num_simplices(1), "ordering": "canonical"}
    bad_cochain = tmp_path / "bad_cochain.json"
    bad_cochain.write_text(json.dumps(coch).replace("0.5", f"-{huge}", 1))
    for argv in (["analyze", str(bad_mesh)],
                 ["decompose", _write_torus(tmp_path), str(bad_cochain)]):
        code = main(argv)
        assert code == 3
        assert "integer with 401 digits exceeds the float range" in capsys.readouterr().err


@pytest.mark.parametrize("name, failure", [
    ("eigsh", spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))),
    ("splu", RuntimeError("Factor is exactly singular")),
])
def test_eigensolver_failures_exit_2(tmp_path, capsys, monkeypatch, name, failure):
    def fail(*args, **kwargs):
        raise failure

    # degrees 0 and 2 are built in closed form, so degree 1 meets the failure
    monkeypatch.setattr(hodge.spla, name, fail)
    code = main(["analyze", _write_torus(tmp_path)])
    assert code == 2
    assert "harmonic eigenproblem at degree 1" in capsys.readouterr().err


# Today's exit code of every library error and of the builtin errors
# _dispatch handles.
EXIT_CODES = {
    "HarmonicPortsError": 1, "DuplicateSimplex": 1, "DanglingVertexIndex": 1,
    "NonOrientable": 1, "NonManifold": 1, "IsolatedVertex": 3, "NotInHarmonicComplement": 1,
    "NumericalFailure": 2, "FactorizationFailure": 2, "AmbiguousKernel": 2,
    "OverflowInExactArithmetic": 2, "SolverFailure": 2, "MemoryError": 2,
    "UsageError": 3, "DegreeMismatch": 3, "ComplexMismatch": 3, "DegreeOutOfRange": 3,
    "InvalidDegrees": 3, "UnsupportedResolution": 3, "WrongDimension": 3,
    "OSError": 3, "ValueError": 3,
}
ERROR_TYPES = [obj for obj in vars(errors).values() if isinstance(obj, type)]


@pytest.mark.parametrize(
    "error", ERROR_TYPES + [MemoryError, OSError, ValueError], ids=lambda e: e.__name__
)
def test_every_error_exits_with_its_code(capsys, error):
    def fail(args):
        raise error("boom")

    assert cli._dispatch(fail, None) == EXIT_CODES[error.__name__]
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "error: out of memory: " if error is MemoryError else "error: "
    assert captured.err == prefix + "boom\n"


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(self, k):
        raise MemoryError("Unable to allocate 11.9 GiB for an array")

    monkeypatch.setattr(Metric, "mass_csr", fail)
    code = main(["analyze", _write_torus(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: out of memory: Unable to allocate 11.9 GiB for an array\n"


def test_decompose_cochain_round_trip(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    cx = gen_mesh("torus", 4)
    rng = np.random.default_rng(0)
    coch = {"degree": 1, "values": rng.normal(size=cx.num_simplices(1)).tolist(),
            "ordering": "canonical"}
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(coch))
    code, rep = _run(capsys, ["decompose", mesh, str(cpath)])
    assert code == 0
    assert rep["passed"] is True
    assert rep["reconstruction_residual"] <= 1e-8
    assert rep["orthogonality_residual"] <= 1e-8
    comps = rep["components"]
    assert [c["degree"] for c in comps.values()] == [1, 1, 1, 1]
    assert set(comps) == {"d_alpha", "delta_beta", "lambda_T", "delta_gamma"}
    total = sum(np.array(c["values"]) for c in comps.values())
    assert np.allclose(total, coch["values"], atol=1e-8)


def test_decompose_reports_the_gram_of_its_decomposition(tmp_path, capsys, monkeypatch):
    # the report reads the one Gram the decomposition formed for its own check
    real, decompositions = cli.hodge_morrey_friedrichs, []

    def kept(metric, c):
        decompositions.append(real(metric, c))
        return decompositions[-1]

    monkeypatch.setattr(cli, "hodge_morrey_friedrichs", kept)
    mesh = _write_torus(tmp_path)
    values = np.random.default_rng(0).normal(size=gen_mesh("torus", 4).num_simplices(1))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"degree": 1, "values": values.tolist()}))
    code, rep = _run(capsys, ["decompose", mesh, str(cpath)])
    (dec,) = decompositions
    assert code == 0
    assert rep["gram"] == dec.gram.tolist()
    off = np.abs(dec.gram[~np.eye(4, dtype=bool)]).max()
    assert rep["orthogonality_residual"] == pytest.approx(off / dec.gram.trace(), rel=1e-9)


def test_decompose_vector_field(tmp_path, capsys):
    mesh_path = tmp_path / "st.json"
    cx = gen_mesh("solid_torus", 3)
    write_mesh(cx, mesh_path)
    pts = cx.vertices
    vec = np.stack([-pts[:, 1], pts[:, 0], np.zeros(len(pts))], axis=1)
    vec /= np.maximum(pts[:, 0] ** 2 + pts[:, 1] ** 2, 1e-9)[:, None]
    fpath = tmp_path / "field.json"
    fpath.write_text(json.dumps({"field_type": "vertex", "vectors": vec.tolist()}))
    code, rep = _run(capsys, ["decompose", str(mesh_path), str(fpath)])
    assert code == 0
    assert rep["dim_harmonic_knots"] == 1
    assert rep["dim_harmonic_gradients"] == 0
    assert rep["knot_norm"] > rep["gradient_norm"]
    assert rep["orthogonality_residual"] <= 1e-8


def test_decompose_vector_field_fails_on_parts_that_are_not_orthogonal(
    tmp_path, capsys, monkeypatch
):
    # the parts still sum to the field, so only the orthogonality check
    # can catch a knot part shifted by 1e-3 of the field
    real = cli.decompose_vector_field_3d

    def skewed(metric, vectors, field_type):
        result = real(metric, vectors, field_type)
        omega = result["cochain"]
        knot = result["knot_part"] + 1e-3 * omega
        return {**result, "knot_part": knot, "gradient_part": omega - knot}

    monkeypatch.setattr(cli, "decompose_vector_field_3d", skewed)
    mesh_path = tmp_path / "ball.json"
    cx = gen_mesh("ball", 2)
    write_mesh(cx, mesh_path)
    vec = np.random.default_rng(0).normal(size=(cx.num_simplices(0), 3))
    fpath = tmp_path / "field.json"
    fpath.write_text(json.dumps({"field_type": "vertex", "vectors": vec.tolist()}))
    code, rep = _run(capsys, ["decompose", str(mesh_path), str(fpath)])
    assert code == 1
    assert rep["passed"] is False
    assert rep["reconstruction_residual"] == 0.0
    assert rep["orthogonality_residual"] > 1e-8


def test_decompose_vector_field_checks_the_parts_it_sums(tmp_path, capsys, monkeypatch):
    # the gradient part is built from its HMF pieces, not as the field
    # minus the knot part, so a perturbed piece shows in the residual
    real = hodge.hodge_morrey_friedrichs

    def perturbed(metric, omega):
        dec = real(metric, omega)
        return dataclasses.replace(dec, d_alpha=dec.d_alpha * (1 + 1e-4))

    monkeypatch.setattr(hodge, "hodge_morrey_friedrichs", perturbed)
    mesh_path = tmp_path / "ball.json"
    cx = gen_mesh("ball", 2)
    write_mesh(cx, mesh_path)
    vec = np.random.default_rng(0).normal(size=(cx.num_simplices(0), 3))
    fpath = tmp_path / "field.json"
    fpath.write_text(json.dumps({"field_type": "vertex", "vectors": vec.tolist()}))
    code, rep = _run(capsys, ["decompose", str(mesh_path), str(fpath)])
    assert code == 1
    assert rep["passed"] is False
    assert rep["reconstruction_residual"] > 1e-8


def test_overflowing_vector_field_exits_3(tmp_path, capsys):
    # sampling a finite but huge field overflows; the cochain refuses it
    mesh_path = tmp_path / "ball.json"
    cx = gen_mesh("ball", 1)
    write_mesh(cx, mesh_path)
    fpath = tmp_path / "field.json"
    vec = [[1e308, 1e308, 1e308]] * cx.num_simplices(0)
    fpath.write_text(json.dumps({"field_type": "vertex", "vectors": vec}))
    with pytest.warns(RuntimeWarning):
        code = main(["decompose", str(mesh_path), str(fpath)])
    assert code == 3
    assert "cochain values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, message", [
    ({"field_type": "edge", "vectors": [[0.0] * 3]}, "field_type must be 'vertex' or 'cell'"),
    ({"field_type": "vertex", "vectors": [[0.0] * 2]}, "vectors must be a list of 3-component rows"),
    # without vectors the file is no field, and is read as a cochain
    ({"field_type": "vertex"}, "cochain object needs 'degree' and 'values'"),
])
def test_malformed_vector_field_exits_3(tmp_path, capsys, field, message):
    mesh_path = tmp_path / "ball.json"
    write_mesh(gen_mesh("ball", 1), mesh_path)
    fpath = tmp_path / "field.json"
    fpath.write_text(json.dumps(field))
    assert main(["decompose", str(mesh_path), str(fpath)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_stretched_ball_decompose_names_the_neumann_solve_not_a_basis(tmp_path, capsys):
    # ball:2 stretched 1000x in x: the coexact piece of a degree-0 cochain
    # overlaps the remainder; degree 0's Dirichlet basis is closed form
    cx = gen_mesh("ball", 2)
    vertices = cx.vertices.copy()
    vertices[:, 0] *= 1000.0
    mesh_path = tmp_path / "ball-x1000.json"
    write_mesh(build_complex(cx._simplex_rows[3], vertices), mesh_path)
    values = np.random.default_rng(0).standard_normal(cx.num_simplices(0))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"degree": 0, "values": values.tolist()}))
    code = main(["decompose", str(mesh_path), str(cpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: HMF pieces overlap by ")
    assert "at degree 0: delta_beta (Neumann mixed solve at degree 1) and delta_gamma" in err
    assert "dimension" not in err


def test_sd_verify_random_states(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    code, rep = _run(capsys, ["sd-verify", mesh, "--p", "1", "--q", "2",
                              "--random-states", "5", "--seed", "3"])
    assert code == 0
    assert rep["passed"] is True
    assert len(rep["states"]) == 5
    for entry in rep["states"]:
        assert entry["passed"] is True
        assert entry["split_residual_relative"] <= 1e-10
    for check in rep["integrability_spot_checks"]:
        assert check["solvable"] == check["expected_solvable"]


def test_sd_verify_rejects_zero_random_states_exit_3(tmp_path, capsys):
    argv = ["sd-verify", _write_torus(tmp_path), "--p", "1", "--q", "2", "--random-states", "0"]
    assert main(argv) == 3
    assert "--random-states must be positive" in capsys.readouterr().err


def test_sd_verify_state_file(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    cx = gen_mesh("torus", 4)
    rng = np.random.default_rng(1)
    state = {
        "alpha_p": {"degree": 1, "values": rng.normal(size=cx.num_simplices(1)).tolist(),
                     "ordering": "canonical"},
        "alpha_q": {"degree": 2, "values": rng.normal(size=cx.num_simplices(2)).tolist(),
                     "ordering": "canonical"},
    }
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    code, rep = _run(capsys, ["sd-verify", mesh, "--p", "1", "--q", "2",
                              "--state", str(spath)])
    assert code == 0
    assert len(rep["states"]) == 1

    code2 = sd_verify_main([mesh, "--p", "1", "--q", "2", "--state", str(spath)])
    rep2 = json.loads(capsys.readouterr().out)
    assert code2 == 0
    assert rep2["states"] == rep["states"]


def test_sd_verify_rejects_a_state_without_alpha_q_exit_3(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    values = [0.0] * gen_mesh("torus", 4).num_simplices(1)
    spath = tmp_path / "half.json"
    spath.write_text(json.dumps({"alpha_p": {"degree": 1, "values": values}}))
    assert main(["sd-verify", mesh, "--p", "1", "--q", "2", "--state", str(spath)]) == 3
    assert capsys.readouterr().err == "error: state file needs 'alpha_p' and 'alpha_q' cochains\n"


def test_sd_verify_rejects_mismatched_state_degrees(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    cx = gen_mesh("torus", 4)
    state = {
        "alpha_p": {"degree": 2, "values": [0.0] * cx.num_simplices(2), "ordering": "canonical"},
        "alpha_q": {"degree": 1, "values": [0.0] * cx.num_simplices(1), "ordering": "canonical"},
    }
    spath = tmp_path / "swapped.json"
    spath.write_text(json.dumps(state))
    code = main(["sd-verify", mesh, "--p", "1", "--q", "2", "--state", str(spath)])
    capsys.readouterr()
    assert code == 3


def test_sd_verify_rejects_a_string_state_value_exit_3(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    cx = gen_mesh("torus", 4)
    state = {
        "alpha_p": {"degree": 1, "values": ["1.5"] + [0.0] * (cx.num_simplices(1) - 1)},
        "alpha_q": {"degree": 2, "values": [0.0] * cx.num_simplices(2)},
    }
    spath = tmp_path / "strings.json"
    spath.write_text(json.dumps(state))
    code = main(["sd-verify", mesh, "--p", "1", "--q", "2", "--state", str(spath)])
    assert code == 3
    assert "cochain values must be numbers" in capsys.readouterr().err


def _write_moved(tmp_path, shape, resolution, move, tag):
    """gen_mesh(shape, resolution) with its vertex array v replaced by move(v)."""
    path = tmp_path / f"{shape}_{tag}.json"
    write_mesh(gen_mesh(shape, resolution), path)
    obj = json.loads(path.read_text())
    obj["vertices"] = move(np.array(obj["vertices"])).tolist()
    path.write_text(json.dumps(obj))
    return str(path)


def _write_scaled(tmp_path, shape, resolution, scale):
    """gen_mesh(shape, resolution) with every vertex scaled by scale."""
    return _write_moved(tmp_path, shape, resolution, lambda v: scale * v, f"{scale:g}")


def _rigid_motion(v):
    """The rows of v rotated by a seeded rotation, then shifted by 1e3 along
    every axis."""
    rotation = np.linalg.qr(np.random.default_rng(0).standard_normal((v.shape[1],) * 2))[0]
    rotation[:, 0] *= np.sign(np.linalg.det(rotation))  # det +1: no reflection
    return v @ rotation.T + 1e3


@pytest.mark.parametrize("shape, resolution, p, q", [
    ("torus", 5, 2, 1), ("annulus", 3, 2, 1), ("ball", 2, 3, 1),
])
def test_sd_verify_obstruction_spot_check_is_unit_free(tmp_path, capsys, shape, resolution, p, q):
    # the obstruction is scaled to the exact cochain's Whitney norm, so the
    # obstructed cochain is refused at every length unit
    verdicts = []
    for scale in (1.0, 1e-8, 1e8):
        mesh = _write_scaled(tmp_path, shape, resolution, scale)
        code, rep = _run(capsys, ["sd-verify", mesh, "--p", str(p), "--q", str(q),
                                  "--random-states", "2"])
        checks = [(c["case"], c["solvable"]) for c in rep["integrability_spot_checks"]]
        verdicts.append((code, rep["passed"], checks))
    assert verdicts[0] == (0, True, [("constructed_exact", True), ("harmonic_obstruction", False)])
    assert verdicts[1] == verdicts[2] == verdicts[0]


@pytest.mark.parametrize("shape, resolution, p, q", [("torus", 5, 1, 2), ("ball", 2, 2, 2)])
def test_sd_verify_verdict_survives_a_rigid_motion(tmp_path, capsys, shape, resolution, p, q):
    # a rotation and a 1e3 shift keep the exit code, the verdict and the
    # spot checks' verdicts of the mesh as generated
    verdicts = []
    for tag, move in (("base", lambda v: v), ("moved", _rigid_motion)):
        mesh = _write_moved(tmp_path, shape, resolution, move, tag)
        code, rep = _run(capsys, ["sd-verify", mesh, "--p", str(p), "--q", str(q),
                                  "--random-states", "2"])
        checks = [(c["case"], c["solvable"]) for c in rep["integrability_spot_checks"]]
        verdicts.append((code, rep["passed"], checks))
    assert verdicts[0][:2] == (0, True) and verdicts[1] == verdicts[0]


def test_sd_verify_computes_one_port_action_per_state(tmp_path, capsys, monkeypatch):
    # the flow identity rows come with the extended balance, from its
    # port action
    calls = []
    real = stokesdirac._port

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stokesdirac, "_port", counted)
    code, rep = _run(capsys, ["sd-verify", _write_torus(tmp_path), "--p", "1", "--q", "2",
                              "--random-states", "3"])
    assert code == 0
    assert len(rep["states"]) == 3
    assert all(entry["harmonic_flow_identities"] for entry in rep["states"])
    assert len(calls) == 3


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_each_command_factors_each_matrix_once(tmp_path, capsys, monkeypatch, shape):
    # every factor a command needs is kept and shared: the spot checks of
    # sd-verify build the Dirichlet basis on the saddle factor of their
    # witness solve, which the states then read.  A saddle of degree k
    # solves with the mass factor of degree k - 1 alone, factored on A's
    # first application: analyze, which builds no saddle at degree n, and
    # decompose at degrees n - 1 and n, whose degree-n saddle serves only
    # mixed solves, factor no mass block at degree n - 1
    genuine, labels = metric_mod._splu, []

    def counted(matrix, what):
        labels.append(what)
        return genuine(matrix, what)

    for module in (metric_mod, hodge, sim):
        monkeypatch.setattr(module, "_splu", counted)
    cx = gen_mesh(shape, ACCEPTANCE[shape])
    n, mesh = cx.dimension, str(tmp_path / "mesh.json")
    write_mesh(cx, mesh)
    commands = [["analyze", mesh]]
    near_top = {str(tmp_path / f"c{k}.json") for k in (n - 1, n)}  # decompose's cochains
    for k in range(n + 1):
        values = np.random.default_rng(k).normal(size=cx.num_simplices(k)).tolist()
        (tmp_path / f"c{k}.json").write_text(json.dumps({"degree": k, "values": values}))
        commands.append(["decompose", mesh, str(tmp_path / f"c{k}.json")])
    for p in range(1, n + 1):
        pair = ["--p", str(p), "--q", str(n + 1 - p)]
        commands += [["sd-verify", mesh, *pair, "--random-states", "2"],
                     ["simulate", mesh, *pair, "--steps", "2", "--out", str(tmp_path / "t.csv")]]
    for argv in commands:
        labels.clear()
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert len(labels) == len(set(labels)), (argv, labels)
        if argv[0] == "analyze" or argv[-1] in near_top:
            below_top = {f"mass matrix at degree {n - 1}", f"interior mass at degree {n - 1}"}
            assert not below_top & set(labels), (argv, labels)


def test_simulate_writes_trace_and_snapshots(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    out = tmp_path / "trace.csv"
    code, rep = _run(capsys, ["simulate", mesh, "--p", "1", "--q", "2",
                              "--dt", "0.01", "--steps", "20", "--stride", "10",
                              "--out", str(out)])
    assert code == 0
    assert rep["passed"] is True
    assert rep["relative_energy_drift"] <= 1e-10
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,H,dHdt_residual,boundary_power,harm_p_0")
    assert len(lines) == 22
    snapdir = tmp_path / "trace_snapshots"
    for step in (0, 10, 20):
        assert (snapdir / f"alpha_p_{step:06d}.json").exists()
        assert (snapdir / f"alpha_q_{step:06d}.json").exists()
    obj = json.loads((snapdir / "alpha_p_000000.json").read_text())
    assert obj["degree"] == 1


def test_simulate_harmonic_init_reports_conserved_charge(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    out = tmp_path / "h.csv"
    code, rep = _run(capsys, ["simulate", mesh, "--p", "1", "--q", "2",
                              "--init", "harmonic:1:0:1.0", "--dt", "0.01",
                              "--steps", "10", "--out", str(out)])
    assert code == 0
    assert rep["max_abs_harmonic_drift"] <= 1e-8
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[4]) == pytest.approx(1.0, abs=1e-12)


def test_simulate_harmonic_drift_verdict_is_unit_free(tmp_path, capsys):
    # the harmonic coefficients carry the state's units; the verdict
    # judges their drift against sqrt(2 H_0) and reports it unchanged
    mesh = _write_torus(tmp_path, 5)
    alpha_p, alpha_q = initial_state(Metric(gen_mesh("torus", 5)), 1, 2, "random", 0)
    state = tmp_path / "state.json"
    write_state(alpha_p * 1e8, alpha_q * 1e8, state)
    code, rep = _run(capsys, ["simulate", mesh, "--p", "1", "--q", "2", "--steps", "100",
                              "--state", str(state), "--out", str(tmp_path / "s.csv")])
    assert code == 0 and rep["passed"] is True
    assert rep["max_abs_harmonic_drift"] > rep["tolerances"]["harmonic_drift"]
    assert rep["max_abs_harmonic_drift"] <= 1e-8 * np.sqrt(2.0 * rep["H_initial"])


@pytest.mark.parametrize("tag, move, dt", [
    ("x1e-08", lambda v: 1e-8 * v, "1e-26"),  # dt scaled by L^3 keeps dt rho(A) at L = 1's
    ("moved", _rigid_motion, "0.01"),
], ids=["x1e-08", "moved"])
def test_simulate_verdict_is_unit_and_motion_free(tmp_path, capsys, tag, move, dt):
    # torus:5 (1,2) at length unit L = 1e-8, or after a rotation and a 1e3
    # shift, keeps the exit code and verdict of the mesh as generated
    def verdict(mesh, step):
        code, rep = _run(capsys, ["simulate", mesh, "--p", "1", "--q", "2", "--steps", "100",
                                  "--dt", step, "--out", str(tmp_path / "s.csv")])
        return code, rep["passed"]

    reference = verdict(_write_torus(tmp_path, 5), "0.01")
    assert reference == (0, True)
    assert verdict(_write_moved(tmp_path, "torus", 5, move, tag), dt) == reference


@pytest.mark.parametrize("resolution, extra", [
    (50, ["--init", "harmonic:1:0:1.0"]),
    (20, ["--init", "harmonic:1:1:1.0", "--dt", "0.02"]),
])
def test_simulate_harmonic_state_reaches_the_backward_error_bound(
    tmp_path, capsys, resolution, extra
):
    # a harmonic state is a fixed point of the flow: its (z, e) rows of the
    # midpoint system are rounding noise, which omega_1 alone cannot pass
    mesh = _write_torus(tmp_path, resolution)
    code, rep = _run(capsys, ["simulate", mesh, "--p", "1", "--q", "2", "--steps", "20",
                              "--out", str(tmp_path / "h.csv")] + extra)
    assert code == 0
    assert rep["relative_energy_drift"] <= 1e-10
    assert rep["max_abs_harmonic_drift"] <= 1e-8


def test_simulate_balance_gate_on_bounded_mesh(tmp_path, capsys):
    mpath = tmp_path / "disk.json"
    write_mesh(gen_mesh("disk", 2), mpath)
    out = tmp_path / "d.csv"
    code, rep = _run(capsys, ["simulate", str(mpath), "--p", "1", "--q", "2",
                              "--dt", "0.005", "--steps", "20", "--out", str(out)])
    assert code == 0
    assert rep["passed"] is True
    assert rep["max_step_balance_residual"] <= 1e-8


def _write_disk_state(tmp_path, amplitude):
    """disk:4 mesh and a smooth (1, 2) state, a Gaussian bump at vertex 0,
    scaled by amplitude."""
    mpath = tmp_path / "disk.json"
    cx = gen_mesh("disk", 4)
    write_mesh(cx, mpath)
    alpha_p, alpha_q = initial_state(Metric(cx), 1, 2, "gaussian:0:0.5")
    spath = tmp_path / f"state_{amplitude:g}.json"
    write_state(alpha_p * amplitude, alpha_q * amplitude, spath)
    return str(mpath), str(spath)


def _simulate_state(tmp_path, capsys, mesh, state):
    return _run(capsys, ["simulate", mesh, "--p", "1", "--q", "2", "--steps", "10",
                         "--state", state, "--out", str(tmp_path / "s.csv")])


@pytest.mark.parametrize("amplitude", [0.0, 1e-6, 1.0, 1e6])
def test_simulate_step_balance_is_unit_free(tmp_path, capsys, amplitude):
    mesh, state = _write_disk_state(tmp_path, amplitude)
    code, rep = _simulate_state(tmp_path, capsys, mesh, state)
    assert code == 0
    assert rep["max_step_balance_residual"] <= 1e-12


@pytest.mark.parametrize("amplitude", [0.0, 1e-6, 1.0])
def test_simulate_step_balance_matches_the_per_row_loop(tmp_path, capsys, amplitude):
    # the element-wise residual against the per-row loop it replaced
    mesh, state = _write_disk_state(tmp_path, amplitude)
    code, rep = _simulate_state(tmp_path, capsys, mesh, state)
    rows = np.loadtxt(rep["out"], delimiter=",", skiprows=1)
    H, dt, balance = rows[:, 1], rep["dt"], 0.0
    for k in range(1, rows.shape[0]):
        dh = (H[k] - H[k - 1]) / dt
        floor = max(abs(dh), H[k - 1] / dt, np.finfo(float).tiny)
        balance = max(balance, abs(dh - rows[k, 3]) / floor)
    assert code == 0 and rep["max_step_balance_residual"] == balance


def test_simulate_catches_wrong_boundary_power_at_small_amplitude(
    tmp_path, capsys, monkeypatch
):
    # run takes row 0's and each step's balance from the port action's
    # arrays, through one sum
    real = sim._power_rate

    def doubled(*args):
        dH_dt, boundary_term = real(*args)
        return dH_dt, 2.0 * boundary_term

    monkeypatch.setattr(sim, "_power_rate", doubled)
    mesh, state = _write_disk_state(tmp_path, 1e-6)
    code, rep = _simulate_state(tmp_path, capsys, mesh, state)
    assert code == 1
    assert rep["passed"] is False


def test_simulate_rejects_non_finite_dt_exit_3(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    for dt in ("inf", "nan"):
        code = main(["simulate", mesh, "--p", "1", "--q", "2", "--dt", dt,
                     "--steps", "3", "--out", str(tmp_path / "t.csv")])
        assert code == 3, dt
        assert "dt must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("init, message", [
    ("harmonic:1:0:inf", "amplitude must be finite"), ("gaussian:0:1e200", "finite nonzero square"),
])
def test_simulate_rejects_non_finite_init_numbers_exit_3(tmp_path, capsys, init, message):
    code = main(["simulate", _write_torus(tmp_path), "--p", "1", "--q", "2", "--init", init,
                 "--steps", "3", "--out", str(tmp_path / "t.csv")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert message in captured.err


def test_usage_errors_exit_3(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    cases = [
        ["gen", "--shape", "torus", "--resolution", "2", "--out", str(tmp_path / "x.json")],
        ["analyze", str(tmp_path / "missing.json")],
        ["sd-verify", mesh, "--p", "1", "--q", "1", "--random-states", "1"],
        ["simulate", mesh, "--p", "1", "--q", "2", "--dt", "0",
         "--steps", "5", "--out", str(tmp_path / "t.csv")],
        ["simulate", mesh, "--p", "1", "--q", "2", "--init", "harmonic:1:99:1.0",
         "--steps", "5", "--out", str(tmp_path / "t.csv")],
    ]
    for argv in cases:
        assert main(argv) == 3, argv
        capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 3
    capsys.readouterr()


def test_argparse_errors_exit_3(capsys):
    for argv in [
        [],
        ["frobnicate"],
        ["gen", "--shape", "klein", "--resolution", "3", "--out", "x.json"],
        ["simulate", "--p", "1", "--q", "2"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        capsys.readouterr()


def test_tolerance_scale_env_is_validated(tmp_path, capsys, monkeypatch):
    mesh = _write_torus(tmp_path)
    monkeypatch.setenv("HARMONIC_PORTS_TOL_SCALE", "banana")
    assert main(["analyze", mesh]) == 3
    capsys.readouterr()
    monkeypatch.setenv("HARMONIC_PORTS_TOL_SCALE", "-1")
    assert main(["analyze", mesh]) == 3
    capsys.readouterr()
    monkeypatch.setenv("HARMONIC_PORTS_TOL_SCALE", "10")
    assert main(["analyze", mesh]) == 0
    capsys.readouterr()


def test_reports_are_deterministic(tmp_path, capsys):
    mesh = _write_torus(tmp_path)
    argv = ["sd-verify", mesh, "--p", "1", "--q", "2",
            "--random-states", "3", "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_battery_writes_identical_trees(tmp_path):
    # every subcommand, error exit and written file, twice in one process
    spec = importlib.util.spec_from_file_location("cli_battery", TOOLS / "cli_battery.py")
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    names = battery.run_battery(tmp_path / "a")
    assert battery.run_battery(tmp_path / "b") == names
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                           if p.is_file())
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    codes = {(tmp_path / "a" / name / "exit_code").read_text() for name in names}
    assert codes == {"0\n", "1\n", "2\n", "3\n"}


def test_mesh_files_round_trip_bytewise(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        main(["gen", "--shape", "solid_torus", "--resolution", "3", "--out", str(out)])
        capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_module_invocation_end_to_end(tmp_path):
    mesh = tmp_path / "m.json"
    cmd = [sys.executable, "-m", "harmonic_ports.cli", "gen", "--shape", "sphere",
           "--resolution", "2", "--out", str(mesh)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    rep = json.loads(first.stdout)
    assert rep["counts"]["2"] == 16
    second = subprocess.run([sys.executable, "-m", "harmonic_ports.cli", "analyze", str(mesh)], capture_output=True, text=True)
    assert second.returncode == 0
    assert json.loads(second.stdout)["betti"] == [1, 0, 1]
