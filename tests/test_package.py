import ast
import pathlib
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
