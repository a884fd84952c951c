import ast
from pathlib import Path

import reebedit


def test_all_names_resolve_and_are_unique():
    namespace = {}
    exec("from reebedit import *", namespace)  # AttributeError on a stale name
    assert set(reebedit.__all__) <= set(namespace)
    assert len(set(reebedit.__all__)) == len(reebedit.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in the module at path that it never reads
    and does not re-export through __all__."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
            t.id for t in node.targets if isinstance(t, ast.Name)
        }:
            used.update(ast.literal_eval(node.value))
    where = f"{path.parent.name}/{path.name}"
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(reebedit.__file__).parent.glob("*.py"))
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []
