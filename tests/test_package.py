"""Package-level guards: what the package exports is used, no module imports
a name it never reads, every defaulted parameter is one some caller leaves
out, only the spectral routes read the structure constants, only the file
reader reads the rank-four route, each build that skips the operator check
is a listed tensor._wrap call, the operator-check rule is written once,
every closeness check states its rtol, only the tensor reader and the --out
write touch files, what the benchmark instrument wraps is bound, the CLI
runs its trials in the calling thread, only the CLI seeds a Generator, and
every library function is run by a command or listed with the reason it
stays, and only euclid holds the table of holonomy kinds."""

import ast
import importlib
import inspect
import json
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
from conftest import save_tensor

import curvlab

SRC = pathlib.Path(curvlab.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"


def _scoped(node, scope: str):
    """(qualname, node) for node and every node below it, the qualname the
    scope of the innermost function or class that is or holds the node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def _src_nodes():
    """("module.qualname", node) for every AST node of src/curvlab, the one
    walk of the guards below."""
    for path in sorted(SRC.glob("*.py")):
        yield from _scoped(ast.parse(path.read_text()), path.stem)


# Exports that no library module calls, kept on purpose, each with why.
KEPT_REFERENCES = {
    "curvature_term": "eigen-vs-bilinear curvature term, the oracle acceptance criterion 6 checks the self term against",
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
    "cli.main(argv)": "the console script calls main() to read sys.argv; the tests pass a list",
    "decomp.random_algebra_curvature(count)": "the suites and `sample` draw stacks of count trials; perfbench's cold-start, the tests and the acceptance gate draw one tensor",
    "euclid.EuclideanSpace.__init__(I)": "a space holds only its kind's matrices: generic none, kaehler J, qk I, J, K",
    "euclid.EuclideanSpace.__init__(J)": "a space holds only its kind's matrices: generic none, kaehler J, qk I, J, K",
    "euclid.EuclideanSpace.__init__(K)": "a space holds only its kind's matrices: generic none, kaehler J, qk I, J, K",
    "euclid._first_over(rtol)": "the symmetry scans check at _SYMMETRY_RTOL; decomp's invariance and leak checks pass their own bounds",
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
    return {
        name for name, node in _src_nodes()
        if getattr(node, "attr", None) == "structure_constants"
        or (isinstance(node, ast.Constant) and node.value == "structure_constants")
    }


def test_structure_constants_are_read_only_by_the_spectral_routes():
    reads = _structure_reads()
    assert "criteria._rotate" in reads
    assert reads <= STRUCTURE_READERS, f"reads of structure_constants outside {sorted(STRUCTURE_READERS)}"


# The operator-check rule, residual <= rtol * (1 + max|entry|) per trial, is
# written once, in euclid._first_over: a function that reads _SYMMETRY_RTOL
# or forms a scale 1 + max|...| is a second copy of it.  The scales of
# verify and sample records below are report values, not checks that raise;
# the list may only shrink.
RULE_HOME = "euclid._first_over"
RECORD_SCALES = {
    "cli._preset_criterion.evaluate": "sample's noise-floor slack for the preset criterion, a record verdict",
    "cli.suite_bochner_norm.stats": "the route gap the bochner-norm record reports, relative to the tensor's scale",
    "cli.suite_tripod": "the spread of lambda over permutations that the tripod record reports",
}


def _rule_reads() -> dict[str, set[str]]:
    """"module.qualname" of each function in src/curvlab that reads
    _SYMMETRY_RTOL (as a name or an attribute), and of each that forms
    1 + a max reduction (x.max(...), np.max, np.amax or np.maximum)."""
    found = {"rtol": set(), "scale": set()}

    def peak(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in {
            "max", "amax", "maximum"}

    def one(node):
        return isinstance(node, ast.Constant) and node.value == 1

    for name, node in _src_nodes():
        if "_SYMMETRY_RTOL" in (getattr(node, "id", None), getattr(node, "attr", None)) and isinstance(
                node.ctx, ast.Load):
            found["rtol"].add(name)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and one(node.left) and peak(node.right):
            found["scale"].add(name)
    return found


def test_the_operator_check_rule_has_one_home():
    reads = _rule_reads()
    assert reads["rtol"] == {RULE_HOME}, f"_SYMMETRY_RTOL read outside {RULE_HOME}: {sorted(reads['rtol'])}"
    assert reads["scale"] - set(RECORD_SCALES) == {RULE_HOME}, "a 1 + max|entry| scale outside " + RULE_HOME
    assert set(RECORD_SCALES) <= reads["scale"], "RECORD_SCALES entries that are gone"


def test_closeness_checks_state_their_rtol():
    # np.allclose and np.isclose add rtol = 1e-5 of the reference to atol by
    # default, which overrides a stated atol of 1e-12 by seven orders
    loose = sorted({name for name, node in _src_nodes()
                    if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.allclose", "np.isclose")
                    and "rtol" not in {kw.arg for kw in node.keywords}})
    assert loose == [], f"np.allclose or np.isclose with numpy's default rtol: {loose}"


# Where the library reads the rank-four route: tensor files hold n^4
# components, so the file reader reads rank-four arrays through the
# operator, and the route's own definitions call each other.  Models and
# decompositions are operator formulas; a read anywhere else forms an n^4
# array that no result needs.
RANK_FOUR_ROUTE = {"check_curvature_symmetries", "_tensor_array_from_matrix"}
RANK_FOUR_HOME = {
    "tensor.load_tensor",
    "tensor.CurvatureTensor.components",
    "tensor.check_curvature_symmetries",
    "tensor._tensor_array_from_matrix",
}


def _rank_four_reads() -> set[str]:
    """"module.qualname" of each function in src/curvlab that reads a name of
    RANK_FOUR_ROUTE (as a name or an attribute) or the components
    attribute."""
    return {
        name for name, node in _src_nodes()
        if isinstance(getattr(node, "ctx", None), ast.Load) and (
            getattr(node, "id", None) in RANK_FOUR_ROUTE
            or getattr(node, "attr", None) in RANK_FOUR_ROUTE | {"components"}
        )
    }


def test_rank_four_arrays_stay_at_the_file_boundary():
    reads = _rank_four_reads()
    assert "tensor.load_tensor" in reads
    assert reads <= RANK_FOUR_HOME, f"rank-four route read outside the file reader: {sorted(reads - RANK_FOUR_HOME)}"


# Where the library builds a curvature value with no check: every call of
# tensor._wrap, each with why its value needs none.  Every site combines
# tensors that were checked or wraps one; a matrix from outside the library,
# a tensor file's included, is always checked.  The list may only shrink.
UNCHECKED_BUILDS = {
    "tensor._combine": "the one unchecked build of arithmetic: a sum or difference of two checked tensors on one "
                       "space, or a multiple of one by a finite factor (COMBINERS); a non-finite result raises",
    "tensor.to_operator": "the full-space operator aliases the checked tensor's matrix",
    "holonomy.project": "c M c^T of a checked operator, symmetric to rounding, frozen in place; the spectrum solves its symmetric part",
    "decomp._check_supported": "the support check wraps each trial of its checked input that _first_over passes, "
                               "finite by that rule, to read the complement mass",
}
# The callers of tensor._combine: the arithmetic, which can overflow.
COMBINERS = {"tensor.CurvatureTensor.__add__", "tensor.CurvatureTensor.__sub__", "tensor.CurvatureTensor.__mul__"}


def _unchecked_builds() -> tuple[set[str], set[str], set[str], set[str]]:
    """"module.qualname" of each function in src/curvlab that calls _wrap,
    of each that calls _combine, of each that passes a validate keyword,
    and of each that calls __new__."""
    found = {"_wrap": set(), "_combine": set(), "validate": set(), "__new__": set()}
    for name, node in _src_nodes():
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called in ("_wrap", "_combine", "__new__"):
                found[called].add(name)
            if any(kw.arg == "validate" for kw in node.keywords):
                found["validate"].add(name)
    return found["_wrap"], found["_combine"], found["validate"], found["__new__"]


def test_every_unchecked_build_is_listed():
    found, combiners, validate, new = _unchecked_builds()
    assert sorted(found - set(UNCHECKED_BUILDS)) == [], "_wrap calls with no reason in UNCHECKED_BUILDS"
    assert sorted(set(UNCHECKED_BUILDS) - found) == [], "UNCHECKED_BUILDS entries that are gone"
    assert combiners == COMBINERS, f"tensor._combine callers: {sorted(combiners ^ COMBINERS)}"
    assert not found & {"tensor._record_array", "tensor.load_tensor", "tensor.check_curvature_symmetries"}
    assert validate == set(), f"a validate keyword skips a check: {sorted(validate)}"
    assert new == {"tensor._wrap"}, f"__new__ called outside tensor._wrap: {sorted(new - {'tensor._wrap'})}"


# Where the library touches the file system: the tensor-file reader, which
# caps, parses and checks a decompose input in one pass, and main's write of
# --out.  Any other open, parse or size check is a second file boundary with
# its own rules.
FILE_CALLS = {"open", "json.load", "os.path.getsize"}
FILE_HOMES = {"tensor.load_tensor", "cli.main"}


def test_files_are_touched_only_by_the_tensor_reader_and_the_out_write():
    calls = {}
    for name, node in _src_nodes():
        if isinstance(node, ast.Call) and ast.unparse(node.func) in FILE_CALLS:
            calls.setdefault(name, set()).add(ast.unparse(node.func))
    assert calls.get("tensor.load_tensor") == FILE_CALLS
    assert set(calls) <= FILE_HOMES, f"file calls outside {sorted(FILE_HOMES)}: {sorted(set(calls) - FILE_HOMES)}"


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


# The holonomy kinds have one table, euclid._KINDS: the structures each
# holds and the size of its block.  Every other module reads a space's
# structures as EuclideanSpace.structures, so no function outside euclid
# reads a space's I or K, only the Bochner routes, whose closed formulas
# are written in J, read its J, and no module keeps its own table from the
# kinds to the structures they hold.
KIND_HOME = "euclid"
KINDS = {"generic", "kaehler", "qk"}
J_READERS = {"decomp.bochner_decompose", "decomp.bochner_explicit"}


def _names_a_structure(node) -> bool:
    """Whether node or a node below it names a structure: a string of the
    letters I, J, K, or the attribute I, J or K."""
    return any(
        (isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value and set(sub.value) <= set("IJK"))
        or getattr(sub, "attr", None) in ("I", "J", "K")
        for sub in ast.walk(node)
    )


def test_the_kind_table_has_one_home():
    reads, j_reads, tables = set(), set(), set()
    for name, node in _src_nodes():
        if name.split(".")[0] == KIND_HOME:
            continue
        if getattr(node, "attr", None) in ("I", "K"):
            reads.add(name)
        if getattr(node, "attr", None) == "J":
            j_reads.add(name)
        if isinstance(node, ast.Dict):
            keys = {key.value for key in node.keys if isinstance(key, ast.Constant)}
            if len(keys & KINDS) >= 2 and any(map(_names_a_structure, node.values)):
                tables.add(name)
    assert not reads, f"reads of a space's I or K outside {KIND_HOME}: {sorted(reads)}"
    assert j_reads == J_READERS, f"reads of a space's J outside {KIND_HOME} and the Bochner routes: {sorted(j_reads)}"
    assert not tables, f"tables of the kinds' structures outside {KIND_HOME}: {sorted(tables)}"


# The commands the reach guard runs, in one fresh process: every report
# format, every sampled holonomy at both conditions, every spectrum model,
# and a decompose of each structure.
REACH_COMMANDS = (
    [["verify", "--seed", "42"], ["verify", "--suite", "hp", "--m", "2", "--format", "csv"]]
    + [
        ["sample", "--holonomy", holonomy, "--condition", condition, "--format", fmt]
        for holonomy in ("so", "u", "sp")
        for condition in ("none", "2-nonnegative")
        for fmt in ("json", "csv")
    ]
    + [
        ["spectrum", "--model", "hp", "--m", "2"],
        ["spectrum", "--model", "wolf", "--m", "2"],
        ["spectrum", "--model", "grassmann", "--p", "2", "--q", "3"],
        ["spectrum", "--model", "sphere", "--n", "4"],
        ["spectrum", "--model", "const-hol", "--m", "2"],
    ]
)

# Profiles the commands given as a JSON list on argv and prints their exit
# codes and the (file, first line) of every code object called, the profile
# installed before curvlab is imported so its import-time calls count.
_REACH_SCRIPT = """
import contextlib, io, json, sys
seen, codes = set(), []
sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code) if event == "call" else None)
from curvlab import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted({(code.co_filename, code.co_firstlineno) for code in seen})]))
"""

# Functions of src/curvlab that no command of the reach guard runs, each
# with why it stays.  The list may only shrink: a route only tests reach
# moves to tests/conftest.py.
UNREACHED = {
    "criteria.CurvatureTerm.spread": "eigen-vs-bilinear curvature term, the oracle acceptance criterion 6 checks the self term against",
    "criteria.CurvatureTerm.value": "eigen-vs-bilinear curvature term, the oracle acceptance criterion 6 checks the self term against",
    "criteria.curvature_term": "eigen-vs-bilinear curvature term, the oracle acceptance criterion 6 checks the self term against",
    "holonomy.HolonomyAlgebra.__eq__": "a cache keyed on an algebra (criteria._shift_gain) calls it only for two objects of one hash; a command builds one algebra per space (holonomy._algebra)",
    "tensor.CurvatureTensor.components": "perfbench's cold-start hashes rm.components; the tests write tensor files from it",
    "tensor.t_hat": "the whole hat stack that the bilinear route of criteria.curvature_term reads (criterion 6); perfbench wraps it",
}


def _functions() -> dict[tuple[str, int], str]:
    """"module.qualname" of every function and method in src/curvlab, keyed
    on (file, first line), the first line a decorator's if it has one, as in
    the code object."""
    found = {}
    for name, node in _src_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            path = str((SRC / f"{name.split('.')[0]}.py").resolve())
            found[(path, min([node.lineno] + [d.lineno for d in node.decorator_list]))] = name
    return found


def test_unreached_functions_are_listed(tmp_path):
    # decompose reads one tensor file of each structure, written here
    rng = np.random.default_rng(5)
    files = {
        "generic": curvlab.random_curvature(curvlab.generic(5), rng),
        "kaehler": curvlab.random_algebra_curvature(curvlab.u_algebra(curvlab.kaehler(2)), rng),
        "qk": curvlab.random_algebra_curvature(curvlab.sp_sp1_algebra(curvlab.quaternion_kaehler(2)), rng),
    }
    commands = list(REACH_COMMANDS)
    for kind, rm in files.items():
        save_tensor(rm, tmp_path / f"{kind}.json")
        commands.append(["decompose", str(tmp_path / f"{kind}.json")])
    # json reads NaN: a file holding one is refused, exit 2, with the entry named
    (tmp_path / "nan.json").write_text('{"n": 4, "structure": "generic", "components": [NaN' + ", 0" * 255 + "]}")
    commands.append(["decompose", str(tmp_path / "nan.json")])
    env = {"PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-B", "-c", _REACH_SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes, called = json.loads(proc.stdout)
    assert codes == [1] + [0] * (len(commands) - 2) + [2]  # verify --seed 42 is red by design
    seen = {(str(pathlib.Path(name).resolve()), line) for name, line in called}
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in seen}
    missing, stale = sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)
    assert not missing, f"functions no command runs, with no reason in UNREACHED: {missing}"
    assert not stale, f"UNREACHED entries that a command now runs, or that are gone: {stale}"
    assert all(UNREACHED.values())
