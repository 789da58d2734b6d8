"""Package-level guards: what the package exports is used, no module imports
a name it never reads, every defaulted parameter is one some caller leaves
out, only the spectral routes read the structure constants, what the
benchmark instrument wraps is bound, the CLI runs its trials in the calling
thread, and only the CLI seeds a Generator."""

import ast
import importlib
import inspect
import pathlib
import subprocess
import sys
import types

import pytest

import curvlab

SRC = pathlib.Path(curvlab.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"

# Exports that no library module calls, kept on purpose, each with why.
KEPT_REFERENCES = {
    "lie_action": "slot-by-slot single-generator reference the tests check the hats against",
    "bianchi_project": "rank-four reference the tests check the operator Bianchi projection against",
    "curvature_term": "two-route mixed curvature term, for checking the sharp constants in verify",
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


def test_every_top_level_import_is_read():
    # __init__.py's imports are the exports, checked above
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = ((a.asname or a.name).split(".")[0] for a in node.names)
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert not unused, f"imported but never read: {unused}"


# Defaulted parameters of the library, each with the callers that leave it
# out.  A parameter every caller passes is required, or a module constant.
KEPT_DEFAULTS = {
    "cli.Report.__init__(records)": "a command's report starts empty and appends its records",
    "cli.main(argv)": "the console script calls main() to read sys.argv; the tests pass a list",
    "decomp.random_algebra_curvature(count)": "the suites and `sample` draw stacks of count trials; perfbench's cold-start, the tests and the acceptance gate draw one tensor",
    "euclid.EuclideanSpace.__init__(structure)": "generic(n) is the space with no holonomy structure",
    "euclid.HolonomyStructure.__init__(I)": "a structure holds only its kind's matrices: none, J, or I, J, K",
    "euclid.HolonomyStructure.__init__(J)": "a structure holds only its kind's matrices: none, J, or I, J, K",
    "euclid.HolonomyStructure.__init__(K)": "a structure holds only its kind's matrices: none, J, or I, J, K",
    "tensor.CurvatureTensor.__init__(validate)": "sums and multiples of curvature tensors skip the scan; any other matrix is checked",
    "tensor.random_curvature(count)": "weyl-norm and decomp draw stacks of count trials; the tests and the acceptance gate draw one tensor",
}


def _defaulted() -> set[str]:
    """"module.qualname(parameter)" of every defaulted parameter of a
    function, method, classmethod or dataclass __init__ defined in
    src/curvlab, read through cache wrappers with inspect."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"curvlab.{path.stem}" if path.stem != "__init__" else "curvlab")
        for obj in vars(module).values():
            members = [getattr(m, "__func__", m) for m in vars(obj).values()] if inspect.isclass(obj) else [obj]
            for fn in members:
                fn = inspect.unwrap(fn) if callable(fn) else fn
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                for param in inspect.signature(fn).parameters.values():
                    if param.default is not param.empty:
                        found.add(f"{path.stem}.{fn.__qualname__}({param.name})")
    return found


def test_defaulted_parameters_are_kept():
    found = _defaulted()
    assert sorted(found - set(KEPT_DEFAULTS)) == [], "defaulted parameters with no reason in KEPT_DEFAULTS"
    assert sorted(set(KEPT_DEFAULTS) - found) == [], "KEPT_DEFAULTS entries that are gone"
    assert all(KEPT_DEFAULTS.values())


# Where the library reads HolonomyAlgebra.structure_constants: construction
# does not build them, so any other read, above all one during a build,
# would hold the (d, d, d) array in runs that never use it.
STRUCTURE_READERS = {"criteria._rotate", "holonomy.HolonomyAlgebra.structure_constants"}


def _structure_reads() -> set[str]:
    """"module.qualname" of each function in src/curvlab that names
    structure_constants: reads or sets it as an attribute, or spells its name
    in a string, as getattr would."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if getattr(node, "attr", None) == "structure_constants" or (
            isinstance(node, ast.Constant) and node.value == "structure_constants"
        ):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_structure_constants_are_read_only_by_the_spectral_routes():
    reads = _structure_reads()
    assert "criteria._rotate" in reads
    assert reads <= STRUCTURE_READERS, f"reads of structure_constants outside {sorted(STRUCTURE_READERS)}"


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


def test_only_the_cli_seeds_a_generator():
    # the library draws from the Generator its caller passes; only the CLI
    # builds one, per suite instance (cli._stream)
    seeding = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
    ]
    assert not seeding, f"modules building a Generator: {seeding}"
    alg = curvlab.so_algebra(curvlab.generic(4))
    with pytest.raises(TypeError):
        curvlab.random_algebra_curvature(alg)
