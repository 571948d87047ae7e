import ast
import importlib
import pathlib
import random
import re
import subprocess
import sys

import ddcrit

PACKAGE = pathlib.Path(ddcrit.__file__).parent


def test_cli_import_loads_no_sympy_or_thread_pool():
    """ddcrit has no runtime dependency and no worker pool: a fresh
    ``import ddcrit.cli`` loads neither sympy nor concurrent.futures."""
    code = (
        "import sys, ddcrit.cli; "
        "print(sorted(m for m in ('sympy', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_record_boilerplate():
    """The records are named tuples and ``RadiiReport`` imports fractions
    only where it builds a Fraction: a fresh ``import ddcrit.cli`` and a
    ``plan`` load neither dataclasses (nor the inspect it imports) nor
    fractions, unless the interpreter had them before."""
    code = (
        "import sys; before = set(sys.modules); import ddcrit.cli; "
        "code = ddcrit.cli.main(['--compact', 'plan', '--p', '3', '--m', '2', '--n', '2']); "
        "print(code, sorted(m for m in ('dataclasses', 'inspect', 'fractions') "
        "if m in sys.modules and m not in before), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.stdout.startswith('{"quadruples":')
    assert proc.stderr == "0 []\n"


def test_cli_import_builds_no_field():
    """A fresh ``import ddcrit.cli`` does no field work: every field, and
    with it its moduli scan, tables and stored arithmetic, is built on
    first use by a command."""
    code = (
        "import ddcrit.cli; from ddcrit.gf import make_field; "
        "print(make_field.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={"PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "0"


def test_no_assert_statements():
    """Library invariants raise DdcritError subclasses; python -O strips
    assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_imported_name_is_used():
    """No module imports a name it never uses.  ``__init__.py`` is left out:
    its imports are the package's re-exports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []


def test_every_private_helper_is_used():
    """Every module-level ``_``-prefixed function or class is named somewhere
    in library code outside its own definition, so a helper left behind by a
    refactor fails here."""
    defined, named = [], []  # (module, name); (name, enclosing definition)
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, top.name)
                if top.name.startswith("_") and not top.name.startswith("__"):
                    defined.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    named.append((node.attr, owner))
                elif isinstance(node, ast.alias):
                    named.append((node.name, owner))
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if not any(n == name and owner != (module, name) for n, owner in named)
    ]
    assert defined
    assert unused == []


def test_field_elements_are_built_in_gf_only():
    """No module but ``gf.py`` calls ``FieldElement(...)``: an element stores
    its field's form (a residue, an index or a coefficient tuple), which
    only the FieldSpec methods and the gf kernels pick, and an element
    built in the wrong form breaks ``==`` and ``hash`` without an error."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "gf.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "FieldElement"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_readme_names_no_missing_private_helper():
    """Every backticked ``_name`` in README.md, qualified or not, is a
    module-level definition in the package, so the README cannot go on
    describing a helper that a refactor deleted."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = {
        name
        for span in re.findall(r"`([^`]*)`", readme)
        for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)
    }
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(top.name)
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert named
    assert sorted(named - defined) == []


def test_traced_benchmark_targets_exist():
    """Every ``ddcrit.<module>.<name>`` that ``perfbench/spans.py`` wraps in
    a traced run still exists, so deleting or renaming one fails here and
    not only in ``--trace 1`` runs.  TARGETS is read with ``ast``: perfbench
    is neither imported nor changed."""
    spans = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    (targets,) = [
        ast.literal_eval(top.value)
        for top in ast.parse(spans.read_text()).body
        if isinstance(top, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in top.targets)
    ]
    names = [(module, name) for module, names in targets.items() for name in names]
    assert names
    missing = [
        f"ddcrit.{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"ddcrit.{module}"), name)
    ]
    assert missing == []


def test_pyproject_version_is_the_package_version():
    """pyproject.toml's ``version`` is ``ddcrit.__version__``, so a release
    cannot bump one and not the other.  The toml is read with a regex:
    ``tomllib`` is new in Python 3.11, and 3.10 is supported."""
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    (version,) = re.findall(r'^version = "([^"]*)"$', pyproject.read_text(), re.M)
    assert version == ddcrit.__version__


def test_catalog_builder_groups_checks_by_squarefreeness(monkeypatch):
    """``perfbench/build_catalog.py`` reads ``factor``'s multiplicities to
    group its random checks: with the catalog seed, every member of the
    ``nonsquarefree`` group has a non-squarefree f and every other member a
    squarefree one, in groups of the recorded sizes.  The builder is
    imported as ``scripts/check_catalog.py`` imports perfbench's job runner,
    and only its grouping is run."""
    from ddcrit.gf import make_field
    from ddcrit.poly import Poly

    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    build_catalog = importlib.import_module("build_catalog")
    groups = build_catalog._random_checks(random.Random(20150226))
    sizes = {name: len(members) for name, members in groups.items()}
    assert sizes == {"nonsquarefree": 41, "low": 203, "mid": 104, "high": 52}
    for name, members in groups.items():
        for argv, meta in members:
            assert argv[-2] == "--f"
            f = Poly.from_ints(make_field(meta["p"], 1), map(int, argv[-1].split(",")))
            assert f.is_squarefree() == (name != "nonsquarefree"), argv
