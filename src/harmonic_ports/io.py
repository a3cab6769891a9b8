"""JSON file formats for meshes, cochains, states, and vector fields.

Mesh files hold top simplices only; the reader canonicalizes ordering
and re-infers orientation, so writing and re-reading a complex is
byte-stable.  All writers emit sorted-key, two-space-indented JSON with
a trailing newline and refuse non-finite numbers; the readers reject
NaN/Infinity tokens, numbers that overflow to infinity and integers
beyond the float range as malformed input.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from .mesh import SimplicialComplex, build_complex
from .metric import Cochain

__all__ = [
    "read_mesh",
    "write_mesh",
    "read_cochain",
    "write_cochain",
    "cochain_to_obj",
    "cochain_from_obj",
    "read_state",
    "write_state",
    "read_field",
    "field_from_obj",
    "is_field_obj",
    "dumps_report",
    "write_trace_csv",
    "write_snapshots",
    "load_json",
]


def _finite_float(text: str) -> float:
    """JSON number or NaN/Infinity token, refused unless finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text!r} is not permitted")
    return value


def _float_range_int(text: str) -> int:
    """JSON integer, refused when it lies beyond the float range."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(
            f"integer with {len(text.lstrip('-'))} digits exceeds the float range"
        )
    return value


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(
            fh,
            parse_constant=_finite_float,
            parse_float=_finite_float,
            parse_int=_float_range_int,
        )


def dumps_report(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_json(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(obj))


def read_mesh(path: str, strict: bool = True) -> SimplicialComplex:
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ValueError("mesh file must hold a JSON object")
    for key in ("dimension", "vertices", "simplices"):
        if key not in obj:
            raise ValueError(f"mesh file is missing {key!r}")
    n = obj["dimension"]
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    vertices = np.asarray(obj["vertices"], dtype=float)
    if vertices.ndim != 2:
        raise ValueError("vertices must be a list of coordinate lists")
    simplices = obj["simplices"]
    if not isinstance(simplices, list) or not simplices:
        raise ValueError("simplices must be a nonempty list")
    tops = []
    for s in simplices:
        if not isinstance(s, list) or len(s) != n + 1 or not all(
            isinstance(v, int) for v in s
        ):
            raise ValueError(f"each simplex must list {n + 1} vertex indices")
        tops.append(tuple(s))
    return build_complex(tops, vertices, strict=strict)


def write_mesh(cx: SimplicialComplex, path: str):
    n = cx.dimension
    obj = {
        "dimension": n,
        "vertices": [[float(x) for x in row] for row in cx.vertices],
        "simplices": [list(t) for t in cx.simplices[n]],
        "counts": {str(k): cx.num_simplices(k) for k in range(n + 1)},
    }
    _write_json(obj, path)


def cochain_to_obj(c: Cochain) -> dict:
    return {
        "degree": c.degree,
        "values": [float(v) for v in c.values],
        "ordering": "canonical",
    }


def cochain_from_obj(obj, cx: SimplicialComplex) -> Cochain:
    if not isinstance(obj, dict) or "degree" not in obj or "values" not in obj:
        raise ValueError("cochain object needs 'degree' and 'values'")
    if obj.get("ordering", "canonical") != "canonical":
        raise ValueError("only canonical cochain ordering is supported")
    degree = obj["degree"]
    if not isinstance(degree, int):
        raise ValueError("cochain degree must be an integer")
    values = np.asarray(obj["values"], dtype=float)
    if values.ndim != 1:
        raise ValueError("cochain values must be a flat list")
    return Cochain(cx, degree, values)


def read_cochain(path: str, cx: SimplicialComplex) -> Cochain:
    return cochain_from_obj(load_json(path), cx)


def write_cochain(c: Cochain, path: str):
    _write_json(cochain_to_obj(c), path)


def read_state(path: str, cx: SimplicialComplex, p: int, q: int):
    obj = load_json(path)
    if not isinstance(obj, dict) or "alpha_p" not in obj or "alpha_q" not in obj:
        raise ValueError("state file needs 'alpha_p' and 'alpha_q' cochains")
    alpha_p = cochain_from_obj(obj["alpha_p"], cx)
    alpha_q = cochain_from_obj(obj["alpha_q"], cx)
    if alpha_p.degree != p or alpha_q.degree != q:
        raise ValueError(
            f"state degrees ({alpha_p.degree}, {alpha_q.degree}) do not match "
            f"the requested pair ({p}, {q})"
        )
    return alpha_p, alpha_q


def write_state(alpha_p: Cochain, alpha_q: Cochain, path: str):
    _write_json(
        {"alpha_p": cochain_to_obj(alpha_p), "alpha_q": cochain_to_obj(alpha_q)}, path
    )


def is_field_obj(obj) -> bool:
    return isinstance(obj, dict) and "field_type" in obj and "vectors" in obj


def field_from_obj(obj):
    """(field_type, vectors) from a vector field object; types 'vertex'/'cell'."""
    if not is_field_obj(obj):
        raise ValueError("field file needs 'field_type' and 'vectors'")
    field_type = obj["field_type"]
    if field_type not in ("vertex", "cell"):
        raise ValueError("field_type must be 'vertex' or 'cell'")
    vectors = np.asarray(obj["vectors"], dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != 3:
        raise ValueError("vectors must be a list of 3-component rows")
    return field_type, vectors


def read_field(path: str):
    return field_from_obj(load_json(path))


def write_trace_csv(trace, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in trace.csv_lines():
            fh.write(line + "\n")


def write_snapshots(trace, directory: str) -> list[str]:
    """One numbered cochain JSON per state slot per snapshot."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for step, alpha_p, alpha_q in trace.snapshots:
        for tag, c in (("alpha_p", alpha_p), ("alpha_q", alpha_q)):
            path = os.path.join(directory, f"{tag}_{step:06d}.json")
            write_cochain(c, path)
            paths.append(path)
    return paths
