"""No helper that nothing calls.

Every public module-level function, class and constant of ``src/degpart``,
and every public method, must be used somewhere in ``src/degpart``,
``perfbench/``, ``demos/`` or ``tools/`` besides its own definition.  The
package's ``__init__`` does not count: a name it exports to ``__all__``
needs a use outside the tests too.  A use is a name read (not assigned, so
a definition is not its own use), an attribute reference, an import, or a
dotted name in a string (the benchmark's tracer names the spans it pins as
``"module.function"``).  A helper only tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "degpart"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def public(name: str) -> bool:
    return not name.startswith("_")


def defined(tree: ast.Module):
    """Public module-level functions, classes and constants (assignment
    targets), and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name) and public(name.id))
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and public(item.name))


def used(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            yield from node.value.split(".")


def test_every_public_helper_has_a_use_outside_the_tests():
    files = [*(path for path in SRC.glob("*.py") if path.name != "__init__.py"),
             *(ROOT / "perfbench").glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    uses = set()
    for path in files:
        uses.update(used(ast.parse(path.read_text(), str(path))))
    helpers = {name for path in SRC.glob("*.py")
               for name in defined(ast.parse(path.read_text(), str(path)))}
    assert sorted(helpers - uses) == []
