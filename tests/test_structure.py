"""Structure guards on the library source: one SuperLU call site, one
refinement bound and pass cap, one refined-solve record (|S| and its row
maxima named in metric.py alone), one cache mechanism (Metric.cached), the
boundary condition decided in metric.py alone, the Stokes-Dirac port
map and its stacked layout decided and stated in stokesdirac.py alone, its
record solving delta_c for both slots at once, the spectral radius read
off its port rows, the degenerate-element bound read in metric.py alone,
simulate's loop on flat arrays and exit codes decided by the error
types."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "harmonic_ports"
FUNCTOOLS_CACHES = {"cached_property", "lru_cache", "cache"}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _nodes_in_functions(node, function=None):
    """(node, name of its innermost enclosing def or None) below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        else:
            inner = function
        yield child, inner
        yield from _nodes_in_functions(child, inner)


def _callee(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_splu_is_called_only_inside_metric_splu():
    sites = [
        (module, function)
        for module, tree in _modules().items()
        for node, function in _nodes_in_functions(tree)
        if isinstance(node, ast.Call) and _callee(node) == "splu"
    ]
    assert sites == [("metric.py", "_splu")]


def test_refinement_bound_and_pass_cap_are_assigned_once():
    assigned = sorted(
        (module, target.id)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and target.id.endswith(("BACKWARD_ERROR_BOUND", "REFINE_PASSES"))
    )
    assert assigned == [("metric.py", "BACKWARD_ERROR_BOUND"), ("metric.py", "REFINE_PASSES")]


def test_no_functools_cache_in_the_library():
    found = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
                and node.attr in FUNCTOOLS_CACHES
            ):
                found.append((module, node.lineno, node.attr))
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [
                    (module, node.lineno, alias.name)
                    for alias in node.names
                    if alias.name in FUNCTOOLS_CACHES
                ]
    assert found == []


def test_removed_duplicates_stay_removed():
    defined = [
        (module, node.name)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in {
            "interior_mass_lu", "_deltac", "_jsonable", "_defect", "_power_pieces", "_step_power",
            "_orient_by_volume", "permutation_sign", "_act", "_port_action", "_delta_transpose",
        }
    ]
    classes = [
        (module, node.name)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "_Slot"
    ]
    assert defined == classes == []
    # the midpoint's sign flip J (a field, attribute or namedtuple field),
    # the second saddle memo entry, the boundary's 0/1 inclusion matrices
    # and every orientation build_complex took besides the mesh's own
    found = [
        (module, node.lineno)
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("J", "inclusion"))
        or (isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "J")
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ("J" in node.value.split() or node.value in ("saddle_abs", "from_order")))
        or (isinstance(node, ast.Call) and _callee(node) == "build_complex"
            and any(kw.arg == "orientation" for kw in node.keywords))
    ]
    assert found == []


def test_refinement_scales_are_named_in_metric_alone():
    # |S| and its row maxima are built and read by metric.py's record and
    # _refine; no caller builds or names them
    names = {"abs_S", "abs_K", "row_max"}
    users = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.arg) and node.arg in names)
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and names & set(node.value.split()))
    }
    assert users == {"metric.py"}


def test_refine_is_called_only_by_the_two_refined_solves():
    callers = {
        (module, function)
        for module, tree in _modules().items()
        for node, function in _nodes_in_functions(tree)
        if isinstance(node, ast.Call) and _callee(node) == "_refine"
    }
    assert callers == {("sim.py", "_midpoint"), ("hodge.py", "_mixed_potential")}


def test_degenerate_element_bound_lives_in_metric():
    # one degenerate-element test, the metric's frame check; no module
    # imports, reads or assigns the bound but metric.py
    users = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_DEGENERATE_VOLUME")
        or (isinstance(node, ast.Attribute) and node.attr == "_DEGENERATE_VOLUME")
        or (isinstance(node, ast.alias) and node.name == "_DEGENERATE_VOLUME")
    }
    assert users == {"metric.py"}


def test_interior_indices_is_called_only_in_metric():
    callers = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "interior_indices"
    }
    assert callers == {"metric.py"}


def test_closed_mesh_test_lives_in_metric():
    # boundary_complex.num_simplices(0) == 0 is read once, as Metric.closed
    readers = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "num_simplices"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "boundary_complex"
    }
    assert readers == {"metric.py"}


def test_port_map_is_decided_in_stokesdirac():
    # sigma, tau and the coupling are read by key only where they are
    # built; every other module reads the per-slot port map
    readers = {
        module
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value in {"sigma", "tau", "coupling"}
    }
    assert readers <= {"stokesdirac.py"}
    wedge_calls = [
        node.lineno
        for node in ast.walk(_modules()["sim.py"])
        if isinstance(node, ast.Call) and _callee(node) == "wedge_csr"
    ]
    assert wedge_calls == []


def _function(module, name):
    tree = _modules()[module]
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _calls(node, name):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and _callee(n) == name]


def test_run_loop_calls_the_midpoint_kernel_once_per_step():
    # one step loop, one unconditional kernel call in its body, and the
    # kernel reached from run and step_implicit_midpoint alone
    loops = [n for n in ast.walk(_function("sim.py", "run")) if isinstance(n, (ast.For, ast.While))]
    assert len(loops) == 1
    direct = [c for stmt in loops[0].body if not isinstance(stmt, (ast.If, ast.For, ast.While, ast.Try))
              for c in _calls(stmt, "_midpoint")]
    assert len(direct) == len(_calls(loops[0], "_midpoint")) == 1
    callers = {function for node, function in _nodes_in_functions(_modules()["sim.py"])
               if isinstance(node, ast.Call) and _callee(node) == "_midpoint"}
    assert callers == {"run", "step_implicit_midpoint"}


def test_stacked_layout_is_decided_in_stokesdirac():
    # sim.py builds K alone; the slots' free rows, block masses and flow
    # map come from the layout in system_operators
    sites = {
        (function, _callee(node))
        for node, function in _nodes_in_functions(_modules()["sim.py"])
        if isinstance(node, ast.Call) and _callee(node) in {"block_diag", "free_indices", "bmat"}
    }
    assert sites == {("_midpoint_operator", "bmat")}


def test_exit_codes_are_decided_by_the_error_types():
    # cli.py catches the base class and returns its exit_code; no module
    # but errors.py assigns one
    trees = _modules()
    subclasses = {
        node.name for node in ast.walk(trees["errors.py"]) if isinstance(node, ast.ClassDef)
    } - {"HarmonicPortsError"}
    imported = {
        alias.name
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "HarmonicPortsError" in imported and imported & subclasses == set()
    assigners = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if getattr(target, "id", getattr(target, "attr", None)) == "exit_code"
    }
    assert assigners == {"errors.py"}


def test_port_records_are_built_only_at_row_0_and_the_flow_check():
    # the port record (two delta_c and two mass solves) is built for row 0
    # and the independent flow check, never in the step loop
    callers = {function for node, function in _nodes_in_functions(_modules()["sim.py"])
               if isinstance(node, ast.Call) and _callee(node) == "_port"}
    assert callers == {"run", "_check_flows"}
    run = _function("sim.py", "run")
    loop = next(n for n in ast.walk(run) if isinstance(n, ast.For))
    assert len(_calls(run, "_port")) == 1 and _calls(loop, "_port") == []


def test_port_record_solves_delta_c_for_both_slots_at_once():
    # the record takes delta_c of both slots from one boundary product and
    # one solve per mass factor, never from the per-vector kernel
    port = _function("stokesdirac.py", "_port")
    assert _calls(port, "_delta") == [] and len(_calls(port, "_solve_slots")) == 2


def test_spectral_radius_reads_the_port_rows():
    # the estimate's Gram is read off the port rows, never re-derived per
    # slot from the codifferential kernel
    estimate = _function("stokesdirac.py", "_spectral_radius_estimate")
    assert len(_calls(estimate, "_port_rows")) == 1 and _calls(estimate, "_delta") == []


def test_sim_only_steps_the_port_map():
    # sim.py applies no codifferential kernel and reads no field of a
    # slot's port map: K's port rows, the port record and the spectral
    # radius estimate are stated in stokesdirac.py
    tree = _modules()["sim.py"]
    kernels = {"_delta", "_delta_transpose"}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in kernels)
        or (isinstance(node, ast.alias) and node.name in kernels)
        or (isinstance(node, ast.Attribute)
            and node.attr in {"sign", "factor", "coupling", "free", "degree"})
    ]
    assert found == []
    assert len(_calls(_function("sim.py", "_midpoint_operator"), "_port_rows")) == 1
