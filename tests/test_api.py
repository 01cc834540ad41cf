"""The package exports only what something reads: every public name must be
used by the library itself, the benchmark or an acceptance criterion, and
every option of one must be passed by some call there."""

import ast
import inspect
import pathlib

import difflab

ROOT = pathlib.Path(__file__).resolve().parents[1]

# documented library API that no pipeline reads yet, each with its reason
ALLOWED_UNUSED = {
    "ball_mask": "ball subdomains; the Hoelder-bound criterion will use it",
    "holder_bound_check": "the Hoelder-bound criterion is not wired in yet",
    "initial_oscillation_check": "as holder_bound_check",
    "iteration_tracer_check": "the dyadic tracer behind holder_bound_check; "
                              "wired in with it",
    "gaussian_moment_1d": "closed-form oracle for the kernel moment tests",
    "parse_report": "inverse of RunReport.to_json for report consumers",
}


# options (defaulted parameters) that no call in the library, the benchmark
# or an acceptance criterion passes, each with its reason
_HOLDER = "the Hoelder trio is not wired into a preset yet"
_DISPATCH = ("passed by harness._general_spec through "
             "PRESET_SYSTEMS[name](**kwargs), which this guard cannot resolve")
ALLOWED_FIXED = {
    ("cut_ball_check", "C"): "the verify side of calibrate-then-verify, "
                             "for frozen constants",
    ("lp_energy_report", "c_p"): "as cut_ball_check.C",
    ("cut_ball_check", "lap_w"): "the only route to the zero-core FAIL "
                                 "branch its tests pin",
    ("emit", "include_timing"): "the wall-time block of a run profile",
    ("holder_bound_check", "c_star"): _HOLDER,
    ("iteration_tracer_check", "r0"): _HOLDER,
    ("iteration_tracer_check", "eps"): _HOLDER,
    ("kernel_evolve", "record_times"): "the exact-time frames of the "
                                       "semigroup and symmetry tests",
    ("ball_mask", "boundary"): "Dirichlet balls; ball_mask itself is in "
                               "ALLOWED_UNUSED",
    ("structural_checks", "box"): "a box off the origin, where no face "
                                  "margin is 0, for the A1 margin test",
    ("preset_uum", "diffusions"): _DISPATCH,
    ("preset_s1_2s2", "diffusions"): _DISPATCH,
    ("preset_p_q_2s3", "diffusions"): _DISPATCH,
}


def _exported() -> set:
    tree = ast.parse((ROOT / "src/difflab/__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _used_names(path: pathlib.Path) -> set:
    """Identifiers a module reads: bare names and attributes, so neither an
    import nor a definition counts as a use."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _readers() -> list:
    """The library, the benchmark and the acceptance criteria."""
    files = [p for p in (ROOT / "src/difflab").glob("*.py")
             if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests/test_acceptance.py")
    return files


def _options() -> dict:
    """(owner, parameter) -> (names a call may use, position) for every
    defaulted parameter of an exported function and of each public method
    of an exported class; a method's position skips self or cls, and a
    keyword-only parameter has none."""
    out = {}
    for export in _exported():
        obj = getattr(difflab, export)
        if inspect.isclass(obj):
            targets = [(f"{export}.{name}", {name},
                        getattr(raw, "__func__", raw),
                        0 if isinstance(raw, staticmethod) else 1)
                       for name, raw in vars(obj).items()
                       if not name.startswith("_") and (
                           inspect.isfunction(raw)
                           or isinstance(raw, (classmethod, staticmethod)))]
        elif inspect.isfunction(obj):
            targets = [(export, {export, obj.__name__}, obj, 0)]
        else:
            continue
        for owner, names, func, skip in targets:
            params = inspect.signature(func).parameters.values()
            for i, par in enumerate(params):
                if par.default is not par.empty:
                    out[owner, par.name] = (
                        names,
                        None if par.kind is par.KEYWORD_ONLY else i - skip)
    return out


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether ``call`` passes the parameter: by keyword, through ``**``,
    by position, or through a ``*`` that reaches its position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) or i == position
               for i, arg in enumerate(call.args[:position + 1]))


def test_every_export_is_read_outside_its_definition():
    used = set().union(*map(_used_names, _readers()))
    exported = _exported()
    assert exported <= set(dir(difflab))
    unused = exported - used - set(ALLOWED_UNUSED)
    assert not unused, f"exported but read by nothing: {sorted(unused)}"
    # an allowlisted name that gains a reader leaves the list
    assert not set(ALLOWED_UNUSED) & used


def test_every_option_is_passed_by_some_caller():
    """An option no caller varies is a constant: each defaulted parameter
    of the exported API is passed by a call in the library, the benchmark
    or an acceptance criterion, or the allowlist says why not."""
    calls = [node for path in _readers()
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    options = _options()
    assert len(options) >= 40
    passed = {key for key, (names, position) in options.items()
              if any((getattr(c.func, "id", None) in names
                      or getattr(c.func, "attr", None) in names)
                     and _passes(c, key[1], position) for c in calls)}
    fixed = set(options) - passed - set(ALLOWED_FIXED)
    assert not fixed, f"options no caller passes: {sorted(fixed)}"
    # an allowlisted option that gains a caller, or is gone, leaves the list
    assert set(ALLOWED_FIXED) <= set(options) - passed
    assert all(reason.strip() for reason in ALLOWED_FIXED.values())


def test_no_lab_check_passes_its_own_verdict():
    """Every row's verdict is lhs <= rhs, derived by EstimateReport itself:
    no call in the library passes ``passed``, by keyword or by position."""
    calls = []
    for path in (ROOT / "src/difflab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "EstimateReport"
                    or getattr(node.func, "attr", None) == "EstimateReport"):
                calls.append(node)
                assert len(node.args) <= 3 and all(
                    kw.arg != "passed" for kw in node.keywords), \
                    f"{path.name}:{node.lineno} passes its own verdict"
    assert len(calls) >= 20
