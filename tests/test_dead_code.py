"""Code that no module, test or demo reaches gets deleted.

Every module-level function, class and constant in src/skewarch, and every
method of its classes, must have its name appear somewhere in src/, tests/
or demos/ outside its own definition.  Dunder names are exempt.  The
benchmark harness is not searched: every package name it uses is also
used in src/ or tests/, and its own words (a random.Random method, say)
could hide a dead name of the same spelling."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewarch"
SEARCHED = ("src", "tests", "demos")
WORD = re.compile(r"\w+")


def _definitions(tree):
    """(name, node) for each module-level def, class and assigned name,
    and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_package_name_is_reached():
    sources = {path: path.read_text(encoding="utf-8")
               for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    words = Counter(w for text in sources.values() for w in WORD.findall(text))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        for name, node in _definitions(ast.parse(sources[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            own = "\n".join(lines[first - 1:node.end_lineno])
            if words[name] == WORD.findall(own).count(name):
                unreached.append("%s:%s" % (path.name, name))
    assert unreached == []
