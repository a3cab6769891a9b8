"""Run a fixed battery of CLI invocations and record everything they print
and write, so that two checkouts can be compared byte for byte.

    PYTHONPATH=<checkout>/src python tools/cli_battery.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B

Every case runs in-process through ``harmonic_ports.cli.main`` (taken from
PYTHONPATH) with OUTDIR/<case>/ as its working directory, and leaves there
``stdout``, ``stderr``, ``exit_code`` and the files the command wrote.
Every path a command sees is relative, so reports do not depend on OUTDIR,
and HARMONIC_PORTS_TOL_SCALE is unset unless the case sets it.
The battery covers every subcommand on the six acceptance shapes,
harmonic initial states in either slot, two disjoint tori (whose H^1
outgrows the first Lanczos request), the smallest sphere and ball (whose
saddles, of 6 to 19 free simplices, take the whole space, not Lanczos;
ball:1 also scaled), a degree-0 decompose on the ball stretched in x
(whose HMF pieces overlap, exit 2), malformed and hand-written meshes,
usage errors and an invalid HARMONIC_PORTS_TOL_SCALE.  Units cases rerun
a scale-1 twin on a mesh or state scaled by a power of ten (named
-x<scale>); each must keep its twin's exit code and verdicts.  Warnings are always shown, so a case
prints the same whatever the caller's warning filters.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from harmonic_ports.cli import main

SHAPES = {"sphere": 2, "torus": 5, "disk": 3, "annulus": 3, "ball": 2, "solid_torus": 5}
PAIRS = {2: [(1, 2), (2, 1)], 3: [(1, 3), (2, 2), (3, 1)]}
SOLID = {"ball", "solid_torus"}
TOL_ENV = "HARMONIC_PORTS_TOL_SCALE"
# Meshes whose saddles are too small for the first Lanczos request (six
# free simplices at sphere (1, neumann) and ball (2, dirichlet)), and the
# scale at which ball:1's 18- and 19-simplex saddles once failed ARPACK.
CLIP = {"sphere": 1, "ball": 1}
CLIP_SCALE = 1e-6
# The sd-verify pairs whose Dirichlet basis at p is not empty, so that the
# harmonic-obstruction spot check runs; each reruns on the mesh scaled by
# MESH_SCALES.  simulate-torus reruns on its state scaled by STATE_SCALE.
OBSTRUCTED = {"sphere": [(2, 1)], "torus": [(1, 2), (2, 1)], "disk": [(2, 1)],
              "annulus": [(1, 2), (2, 1)], "ball": [(3, 1)], "solid_torus": [(2, 2), (3, 1)]}
MESH_SCALES = (1e-8, 1e8)
STATE_SCALE = 1e8
# The ball's x axis is stretched by STRETCH for one degree-0 decompose: its
# coexact piece overlaps the remainder by 4e-6 of |omega|^2, so it exits 2.
STRETCH = 1000.0

# Hand-written meshes and the commands each is given: a top simplex naming
# vertex 3 of 3, a vertex in no top simplex, a flat square whose centre sits
# 5e-13 above the edge (0, 1), so the element (0, 1, 4) is degenerate, the
# five-triangle Moebius strip in the plane, two flat triangles folded
# onto the same side of their shared edge (0, 1), a fin of three triangles
# on the edge (0, 1) in R^3, and a planar bowtie of two triangles sharing
# only vertex 0.
BOTH = ("analyze", "sd-verify")
HAND_WRITTEN = {
    "dangling_index": (BOTH, {"dimension": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                              "simplices": [[0, 1, 2], [1, 2, 3]]}),
    "isolated_vertex": (BOTH, {"dimension": 2,
                               "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]],
                               "simplices": [[0, 1, 2]]}),
    "degenerate": (BOTH, {"dimension": 2,
                          "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                                       [0.5, 5e-13]],
                          "simplices": [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]]}),
    "planar_mobius": (("sd-verify",), {
        "dimension": 2,
        "vertices": [[math.cos(2 * math.pi * i / 5), math.sin(2 * math.pi * i / 5)]
                     for i in range(5)],
        "simplices": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]]}),
    "folded_pair": (BOTH, {"dimension": 2,
                           "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                           "simplices": [[0, 1, 2], [0, 1, 3]]}),
    "fin": (BOTH, {"dimension": 2,
                   "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0],
                                [0.5, -0.5, 0.8], [0.5, -0.5, -0.8]],
                   "simplices": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}),
    "bowtie": (BOTH, {"dimension": 2,
                      "vertices": [[0.0, 0.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]],
                      "simplices": [[0, 1, 2], [0, 3, 4]]}),
}


def _mesh(shape):
    return f"../gen-{shape}/mesh.json"


def _write_inputs(root: Path):
    """Hand-written meshes, two disjoint copies of gen-torus (the second
    shifted by 10 in x: H^1 of dimension 4, all of the first Lanczos
    request), one random 1-cochain per shape and a vertex and a cell vector
    field per solid, from a fixed seed; the scaled meshes (ball-1 at
    CLIP_SCALE) and the scaled (1, 2) state simulate-torus draws from
    --seed 1 (as `initial_state`), and the stretched ball with a degree-0
    cochain from seed 0."""
    inputs = root / "inputs"
    inputs.mkdir()
    for name, (_, obj) in HAND_WRITTEN.items():
        (inputs / f"{name}.json").write_text(json.dumps(obj))
    torus = json.loads((root / "gen-torus" / "mesh.json").read_text())
    shifted = [[x + 10.0, *rest] for x, *rest in torus["vertices"]]
    offset = len(torus["vertices"])
    (inputs / "two_tori.json").write_text(json.dumps({
        "dimension": 2, "vertices": torus["vertices"] + shifted,
        "simplices": torus["simplices"] + [[v + offset for v in s] for s in torus["simplices"]]}))
    (inputs / "not_json.json").write_text("{not json")
    rng = np.random.default_rng(20)
    for shape in SHAPES:
        counts = json.loads((root / f"gen-{shape}" / "mesh.json").read_text())["counts"]
        values = rng.normal(size=counts["1"]).tolist()
        (inputs / f"{shape}-cochain.json").write_text(json.dumps({"degree": 1, "values": values}))
        if shape in SOLID:
            for field_type, key in (("vertex", "0"), ("cell", "3")):
                vectors = rng.normal(size=(counts[key], 3)).tolist()
                field = {"field_type": field_type, "vectors": vectors}
                (inputs / f"{shape}-{field_type}.json").write_text(json.dumps(field))
    scales = [(shape, scale) for shape in OBSTRUCTED for scale in MESH_SCALES]
    for shape, scale in scales + [("ball-1", CLIP_SCALE)]:
        mesh = json.loads((root / f"gen-{shape}" / "mesh.json").read_text())
        mesh["vertices"] = (scale * np.array(mesh["vertices"])).tolist()
        (inputs / f"{shape}-x{scale:g}.json").write_text(json.dumps(mesh))
    counts = json.loads((root / "gen-torus" / "mesh.json").read_text())["counts"]
    state_rng = np.random.default_rng(1)
    state = {name: {"degree": k,
                    "values": (STATE_SCALE * state_rng.standard_normal(counts[str(k)])).tolist()}
             for name, k in (("alpha_p", 1), ("alpha_q", 2))}
    (inputs / f"torus-state-x{STATE_SCALE:g}.json").write_text(json.dumps(state))
    mesh = json.loads((root / "gen-ball" / "mesh.json").read_text())
    mesh["vertices"] = [[STRETCH * x, *rest] for x, *rest in mesh["vertices"]]
    (inputs / f"ball-stretched{STRETCH:g}.json").write_text(json.dumps(mesh))
    values = np.random.default_rng(0).standard_normal(mesh["counts"]["0"]).tolist()
    (inputs / "ball-0-cochain.json").write_text(json.dumps({"degree": 0, "values": values}))


def _cases():
    """(name, argv, HARMONIC_PORTS_TOL_SCALE or None) after the gen cases."""
    cases = []
    for shape in SHAPES:
        n = 3 if shape in SOLID else 2
        mesh = _mesh(shape)
        cases.append((f"analyze-{shape}", ["analyze", mesh], None))
        cases.append((f"decompose-{shape}-cochain",
                      ["decompose", mesh, f"../inputs/{shape}-cochain.json"], None))
        for p, q in PAIRS[n]:
            cases.append((f"sd-verify-{shape}-{p}{q}",
                          ["sd-verify", mesh, "--p", str(p), "--q", str(q),
                           "--random-states", "2", "--seed", "3"], None))
        p, q = PAIRS[n][0]
        cases.append((f"simulate-{shape}",
                      ["simulate", mesh, "--p", str(p), "--q", str(q), "--steps", "4",
                       "--stride", "2", "--seed", "1", "--out", "trace.csv"], None))
        if shape in SOLID:
            for field_type in ("vertex", "cell"):
                cases.append((f"decompose-{shape}-{field_type}",
                              ["decompose", mesh, f"../inputs/{shape}-{field_type}.json"], None))
    for shape, pairs in OBSTRUCTED.items():
        for (p, q), scale in itertools.product(pairs, MESH_SCALES):
            cases.append((f"sd-verify-{shape}-{p}{q}-x{scale:g}",
                          ["sd-verify", f"../inputs/{shape}-x{scale:g}.json", "--p", str(p),
                           "--q", str(q), "--random-states", "2", "--seed", "3"], None))
    cases.append((f"simulate-torus-x{STATE_SCALE:g}",
                  ["simulate", _mesh("torus"), "--p", "1", "--q", "2", "--steps", "4", "--stride",
                   "2", "--state", f"../inputs/torus-state-x{STATE_SCALE:g}.json",
                   "--out", "trace.csv"], None))
    for name, (commands, _) in HAND_WRITTEN.items():
        for command in commands:
            argv = [command, f"../inputs/{name}.json"]
            if command == "sd-verify":
                argv += ["--p", "1", "--q", "2", "--random-states", "1"]
            cases.append((f"{command}-{name}", argv, None))
    for shape, res in CLIP.items():
        cases.append((f"analyze-{shape}-{res}", ["analyze", _mesh(f"{shape}-{res}")], None))
    cases.append((f"analyze-ball-1-x{CLIP_SCALE:g}",
                  ["analyze", f"../inputs/ball-1-x{CLIP_SCALE:g}.json"], None))
    cases.append((f"decompose-ball-stretched{STRETCH:g}-0-cochain",
                  ["decompose", f"../inputs/ball-stretched{STRETCH:g}.json",
                   "../inputs/ball-0-cochain.json"], None))
    cases.append(("sd-verify-ball-1-22", ["sd-verify", _mesh("ball-1"), "--p", "2", "--q", "2",
                                          "--random-states", "2", "--seed", "3"], None))
    torus = _mesh("torus")
    cases += [
        ("usage-gen-resolution", ["gen", "--shape", "torus", "--resolution", "2",
                                  "--out", "mesh.json"], None),
        ("usage-missing-mesh", ["analyze", "missing.json"], None),
        ("usage-not-json", ["analyze", "../inputs/not_json.json"], None),
        ("usage-degrees", ["sd-verify", torus, "--p", "1", "--q", "1"], None),
        ("simulate-torus-harmonic", ["simulate", torus, "--p", "1", "--q", "2", "--steps", "4",
                                     "--init", "harmonic:1:0:1.0", "--out", "trace.csv"], None),
        ("simulate-torus-harmonic-q", ["simulate", torus, "--p", "1", "--q", "2", "--steps", "4",
                                       "--init", "harmonic:2:0:1.0", "--out", "trace.csv"], None),
        ("analyze-two_tori", ["analyze", "../inputs/two_tori.json"], None),
        ("simulate-two_tori-harmonic", ["simulate", "../inputs/two_tori.json", "--p", "1",
                                        "--q", "2", "--steps", "4", "--init", "harmonic:1:3:1.0",
                                        "--out", "trace.csv"], None),
        ("usage-init-index", ["simulate", torus, "--p", "1", "--q", "2", "--steps", "2",
                              "--init", "harmonic:1:99:1.0", "--out", "trace.csv"], None),
        ("usage-field-on-surface", ["decompose", torus, "../inputs/ball-vertex.json"], None),
        ("usage-unknown-command", ["frobnicate"], None),
        ("usage-missing-option", ["simulate", torus, "--p", "1", "--q", "2"], None),
        ("tol-scale-invalid", ["analyze", torus], "banana"),
        ("tol-scale-negative", ["sd-verify", torus, "--p", "1", "--q", "2"], "-1"),
        ("tol-scale-ten", ["sd-verify", torus, "--p", "1", "--q", "2",
                           "--random-states", "2"], "10"),
    ]
    return cases


def _run_case(root: Path, name: str, argv: list, tol_scale):
    case = root / name
    case.mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd, saved = os.getcwd(), os.environ.pop(TOL_ENV, None)
    if tol_scale is not None:
        os.environ[TOL_ENV] = tol_scale
    try:
        os.chdir(case)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        os.environ.pop(TOL_ENV, None)
        if saved is not None:
            os.environ[TOL_ENV] = saved
    (case / "stdout").write_text(out.getvalue())
    (case / "stderr").write_text(err.getvalue())
    (case / "exit_code").write_text(f"{code}\n")


def run_battery(outdir) -> list:
    """Run every case into outdir, which must not exist; return the case names."""
    root = Path(outdir)
    root.mkdir(parents=True)
    cases = [(f"gen-{shape}", ["gen", "--shape", shape, "--resolution", str(res),
                               "--out", "mesh.json"], None)
             for shape, res in SHAPES.items()]
    cases += [(f"gen-{shape}-{res}", ["gen", "--shape", shape, "--resolution", str(res),
                                      "--out", "mesh.json"], None)
              for shape, res in CLIP.items()]
    for case in cases:
        _run_case(root, *case)
    _write_inputs(root)
    for case in _cases():
        _run_case(root, *case)
        cases.append(case)
    return [name for name, _, _ in cases]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    names = run_battery(sys.argv[1])
    print(f"{len(names)} cases written to {sys.argv[1]}")
