"""Package-level guards: what the package exports is used, what the
benchmark instrument wraps is bound, and the CLI runs its trials in the
calling thread."""

import ast
import importlib
import pathlib
import subprocess
import sys
import types

import curvlab

SRC = pathlib.Path(curvlab.__file__).parent
SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Exports that no library module calls, kept on purpose, each with why.
KEPT_REFERENCES = {
    "lie_action": "slot-by-slot single-generator reference the tests check the hats against",
    "bianchi_project": "rank-four reference the tests check the operator Bianchi projection against",
    "curvature_term": "two-route mixed curvature term, for checking the sharp constants in verify",
    "negative_term_search": "seeded search for a negative self term, the start of an adversary",
    "save_tensor": "writes the tensor files that `curvlab decompose` reads",
}


def _exported() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def _referenced() -> set[str]:
    """Names read (as a name or an attribute) in the library modules, not
    counting a top-level function or class reading its own name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name and name != own:
                    found.add(name)
    return found


def test_every_export_is_referenced_or_kept():
    exported = _exported()
    unused = sorted(set(exported) - _referenced() - set(KEPT_REFERENCES))
    assert not unused, f"exported but referenced nowhere in src/curvlab: {unused}"
    assert set(KEPT_REFERENCES) <= set(exported)


def _wrapped() -> list[tuple]:
    """perfbench/spans.py WRAPPED, from the file as it stands; compiled and
    run in a fresh module, so no bytecode is written next to it."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module.WRAPPED


def test_every_wrapped_function_is_bound():
    # the traced worker reads each one with getattr; a missing one breaks
    # every --trace run
    wrapped = _wrapped()
    missing = [
        f"{module}.{name}"
        for module, name, *_ in wrapped
        if not callable(getattr(importlib.import_module(f"curvlab.{module}"), name, None))
    ]
    assert wrapped
    assert not missing, f"WRAPPED names no longer bound in curvlab: {missing}"


def test_cli_starts_no_thread_pool():
    # trials run one after another in the calling thread: importing the CLI
    # loads no executor, and no module reads a thread-count setting
    code = "import sys, curvlab.cli; print('concurrent.futures' in sys.modules)"
    env = {"PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
    readers = [path.name for path in sorted(SRC.glob("*.py")) if "CURVLAB_THREADS" in path.read_text()]
    assert not readers, f"modules reading CURVLAB_THREADS: {readers}"
