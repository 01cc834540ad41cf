"""The package exports only what something reads: every public name must be
used by the library itself, the benchmark or an acceptance criterion."""

import ast
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


def test_every_export_is_read_outside_its_definition():
    files = [p for p in (ROOT / "src/difflab").glob("*.py")
             if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests/test_acceptance.py")
    used = set().union(*map(_used_names, files))
    exported = _exported()
    assert exported <= set(dir(difflab))
    unused = exported - used - set(ALLOWED_UNUSED)
    assert not unused, f"exported but read by nothing: {sorted(unused)}"
    # an allowlisted name that gains a reader leaves the list
    assert not set(ALLOWED_UNUSED) & used


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
