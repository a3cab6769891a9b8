import json

import numpy as np
import pytest

from harmonic_ports import gen_mesh, random_cochain
from harmonic_ports.io import (
    cochain_from_obj,
    cochain_to_obj,
    dumps_report,
    field_from_obj,
    is_field_obj,
    load_json,
    read_cochain,
    read_mesh,
    read_state,
    write_cochain,
    write_mesh,
    write_state,
)

from conftest import ACCEPTANCE, SMALL, complex_for


def test_mesh_round_trip_is_bytewise_stable(tmp_path):
    cx = complex_for("annulus", 2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_mesh(cx, p1)
    back = read_mesh(p1)
    assert back.dimension == cx.dimension
    assert back.simplices[2] == cx.simplices[2]
    assert np.array_equal(back.vertices, cx.vertices)
    write_mesh(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_round_trip_keeps_the_generated_orientation(tmp_path, shape):
    # a generated complex and its mesh file, read back, are one oriented
    # complex: every command reads the orientation the library builds
    for resolution in (SMALL[shape], ACCEPTANCE[shape]):
        cx = gen_mesh(shape, resolution)
        write_mesh(cx, tmp_path / "mesh.json")
        back = read_mesh(tmp_path / "mesh.json")
        assert back.simplices[cx.dimension] == cx.simplices[cx.dimension]
        assert back.orientation.tolist() == cx.orientation.tolist(), resolution


def test_read_mesh_validates_structure(tmp_path):
    path = tmp_path / "bad.json"
    for obj in [
        [],
        {"dimension": 2, "vertices": [[0, 0]]},
        {"dimension": 0, "vertices": [[0, 0]], "simplices": [[0]]},
        {"dimension": 2, "vertices": [0, 1], "simplices": [[0, 1, 2]]},
        {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": [[0, 1]]},
        {"dimension": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "simplices": []},
        {"dimension": 2, "vertices": [["0", 0], [1, 0], [0, 1]], "simplices": [[0, 1, 2]]},
        {"dimension": 2, "vertices": [[0, 0], [1, False], [0, 1]], "simplices": [[0, 1, 2]]},
    ]:
        path.write_text(json.dumps(obj))
        with pytest.raises((ValueError, Exception)):
            read_mesh(path)


def test_load_json_rejects_non_finite_tokens(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"x": NaN}')
    with pytest.raises(ValueError):
        load_json(path)
    path.write_text('{"x": Infinity}')
    with pytest.raises(ValueError):
        load_json(path)


def test_dumps_report_is_sorted_and_newline_terminated():
    out = dumps_report({"b": 1, "a": [1.5, 2]})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')
    with pytest.raises(ValueError):
        dumps_report({"x": float("nan")})


def test_cochain_round_trip(tmp_path):
    cx = complex_for("disk", 2)
    c = random_cochain(cx, 1, np.random.default_rng(0))
    path = tmp_path / "c.json"
    write_cochain(c, path)
    back = read_cochain(path, cx)
    assert back.degree == 1
    assert np.array_equal(back.values, c.values)
    obj = cochain_to_obj(c)
    assert obj["ordering"] == "canonical"


def test_cochain_from_obj_validates():
    cx = complex_for("disk", 2)
    good = {"degree": 1, "values": [0.0] * cx.num_simplices(1), "ordering": "canonical"}
    cochain_from_obj(good, cx)
    for bad in [
        {**good, "ordering": "reversed"},
        {**good, "degree": "one"},
        {**good, "values": [0.0]},
        {"degree": 1},
        {**good, "values": ["1.5"] + good["values"][1:]},
        {**good, "values": [True] + good["values"][1:]},
    ]:
        with pytest.raises(Exception):
            cochain_from_obj(bad, cx)


def test_field_from_obj_refuses_non_numbers():
    assert field_from_obj({"field_type": "cell", "vectors": [[0, 1.5, 2]]})[1].shape == (1, 3)
    for row in (["1.5", 0.0, 0.0], [True, 0.0, 0.0], [None, 0.0, 0.0]):
        with pytest.raises(ValueError, match="must be numbers"):
            field_from_obj({"field_type": "cell", "vectors": [row]})


def test_state_round_trip_checks_degrees(tmp_path):
    cx = complex_for("annulus", 2)
    rng = np.random.default_rng(1)
    ap = random_cochain(cx, 1, rng)
    aq = random_cochain(cx, 2, rng)
    path = tmp_path / "state.json"
    write_state(ap, aq, path)
    bp, bq = read_state(path, cx, 1, 2)
    assert np.array_equal(bp.values, ap.values)
    assert np.array_equal(bq.values, aq.values)
    with pytest.raises(ValueError):
        read_state(path, cx, 2, 1)


def test_field_objects_are_recognized():
    assert is_field_obj({"field_type": "vertex", "vectors": [[0, 0, 0]]})
    # either key makes a field file, which field_from_obj then refuses
    for half in ({"field_type": "vertex"}, {"vectors": [[0, 0, 0]]}):
        assert is_field_obj(half)
        with pytest.raises(ValueError, match="field file needs 'field_type' and 'vectors'"):
            field_from_obj(half)
    assert not is_field_obj({"degree": 1, "values": [], "ordering": "canonical"})


def test_lenient_mesh_read_allows_non_orientable(tmp_path):
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
    with pytest.raises(Exception):
        read_mesh(path)
    cx = read_mesh(path, strict=False)
    assert cx.num_simplices(2) == 5
