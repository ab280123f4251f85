"""Static checks on the package and test sources, standard library only."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "fermichain").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# the library imports no scipy module and names no scipy file; spectral
# alone binds LAPACK, for the correlation spectrum, with ctypes, from the
# file of numpy's _umath_linalg extension
LAPACK_LOADER = ROOT / "src" / "fermichain" / "spectral.py"


def _imports(tree):
    """(bound name, full dotted name) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = "." * node.level + (node.module or "")
            for a in node.names:
                yield a.asname or a.name, f"{base}.{a.name}"


def _read_names(tree):
    """Names loaded anywhere in the module, plus the strings of __all__."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return read


def test_imports_are_read_and_library_imports_no_scipy():
    unread, scipy_in_src, flapack_in_src, ctypes_in_src = [], [], [], []
    for path in SRC + TESTS:
        text = path.read_text()
        tree = ast.parse(text, str(path))
        read = _read_names(tree)
        name = path.relative_to(ROOT).as_posix()
        for bound, full in _imports(tree):
            if bound not in read:
                unread.append(f"{name}: {bound}")
            if path in SRC and full.split(".")[0] == "scipy":
                scipy_in_src.append(f"{name}: {full}")
            if path in SRC and full.split(".")[0] == "ctypes":
                ctypes_in_src.append(name)
        if path in SRC and "_flapack" in text:
            flapack_in_src.append(name)
    assert unread == []
    assert scipy_in_src == []
    assert flapack_in_src == []
    assert "_umath_linalg" in LAPACK_LOADER.read_text()
    assert ctypes_in_src == [LAPACK_LOADER.relative_to(ROOT).as_posix()]


def _dataclass_fields(tree):
    """(class name, field name) of every @dataclass field in the module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators):
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name))


def test_dataclass_fields_are_read():
    # a result field stays only if the library reads it (by attribute
    # name, anywhere in src/) or the README documents it as .name or
    # `name`; a field only tests read is a field to delete
    trees = [ast.parse(path.read_text(), str(path)) for path in SRC]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    readme = (ROOT / "README.md").read_text()
    unread = [f"{cls}.{name}" for tree in trees
              for cls, name in _dataclass_fields(tree)
              if name not in read
              and not re.search(rf"\.{name}\b|`{name}`", readme)]
    assert unread == []


def test_one_validator_per_kind_of_argument():
    # each _check_* validator is defined in one module, and the refusals
    # of what is not a number and of a non-finite real are worded only
    # by errors._check_number and errors._check_real
    homes = {}
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_check_")):
                homes.setdefault(node.name, set()).add(path.name)
    assert {name: sorted(mods) for name, mods in homes.items()
            if len(mods) > 1} == {}
    for wording in ("must be a number", "must be finite"):
        assert [path.name for path in SRC if path.name != "errors.py"
                and wording in path.read_text()] == []


def test_fields_are_checked_where_the_object_is_built():
    # a type checks its own fields in __post_init__, which
    # dataclasses.replace runs too, so a built object is valid and no
    # validator elsewhere is handed one of its fields (x.field); a
    # method looked up to be called is not a field
    found = []
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        built = {id(n) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)
                 and f.name == "__post_init__" for n in ast.walk(f)}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id.startswith("_check_")
                    and id(call) not in built):
                continue
            inner = [n for arg in [*call.args,
                                   *(k.value for k in call.keywords)]
                     for n in ast.walk(arg)]
            called = {id(n.func) for n in inner if isinstance(n, ast.Call)}
            if any(isinstance(n, ast.Attribute) and id(n) not in called
                   for n in inner):
                found.append(f"{path.name}:{call.lineno}")
    assert found == []


def test_no_global_statement_in_src():
    # module state changes only inside the objects that hold it (a
    # cache, a lock, a list), never by rebinding a module name
    found = [f"{path.name}:{node.lineno}" for path in SRC
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert found == []


def test_cli_names_no_family_outside_the_model_choices():
    # which parameters a family takes is decided by the model alone: the
    # front end names a family only in the --model choices, so it
    # compares no value with one and branches on none
    path = ROOT / "src" / "fermichain" / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    choices = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.keyword) and node.arg == "choices"
               and "haldane-shastry" in ast.literal_eval(node.value)]
    assert len(choices) == 1
    listed = {id(e) for e in ast.walk(choices[0])}
    families = ast.literal_eval(choices[0])
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in families
             and id(node) not in listed]
    assert named == []


def test_one_dispersion_evaluator_branches_on_the_family():
    # E, E' and E'' of every family come from one evaluator: the closed
    # and polylog families are told apart, by comparing the model's
    # family with their names, in exactly one DispersionProfile method
    names = {"haldane-shastry", "power-law", "rational-cubic"}
    path = ROOT / "src" / "fermichain" / "models.py"
    tree = ast.parse(path.read_text(), str(path))
    (profile,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "DispersionProfile"]
    branching = set()
    for method in profile.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Compare):
                continue
            parts = [n for side in (node.left, *node.comparators)
                     for n in ast.walk(side)]
            if (any(isinstance(n, ast.Attribute) and n.attr == "family"
                    for n in parts)
                    and any(isinstance(n, ast.Constant) and n.value in names
                            for n in parts)):
                branching.add(method.name)
    assert len(branching) == 1, sorted(branching)
