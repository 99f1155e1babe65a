"""Code that no module, test or demo reaches gets deleted.

Every module-level function, class and constant in src/skewarch, and every
method and class-level setting of its classes, must have its name used
somewhere in src/, tests/ or demos/ outside every definition of that
name.  A use is a Python name token, so words in docstrings, comments and
strings do not count, and neither do calls between same-named methods of
different classes.  Dunder names are exempt.  The benchmark harness is not searched: every package
name it uses is also used in src/ or tests/, and its own words (a
random.Random method, say) could hide a dead name of the same spelling.

Every attribute a package method stores on self must be read as
`.name` somewhere in src/, tests/ or demos/.

Every name a package module imports must also be used in that module;
the re-exports of __init__.py are exempt.

Every parameter with a default, of a package function or method, must
be passed, by position or keyword, by some call of that name in src/,
tests/ or demos/; a constructor's calls go by the class name.

No package module holds an assert statement: python -O strips them, so
a check must raise (RuntimeError when an internal result check fails,
ValueError for bad input).

No method of a ring or twist class calls construct_ring or build_endo:
a ring or twist reads its parts from the objects it was built from, not
from the construction caches.  In rings.py only construct_ring calls
construct_ring, so a subring or quotient is built over the ring it is
given.

Each brute-force oracle of the tests is defined once, in tests/oracles.py:
no test module defines a function named as an oracle is, or imports an
oracle from another test module, and every function of tests/oracles.py
is used by some test, directly or through another oracle."""

import ast
import io
import tokenize
from collections import defaultdict
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewarch"
SEARCHED = ("src", "tests", "demos")
ORACLE_NAMES = ("oracle_*", "_oracle_*", "reference_*", "*_per_product", "*_in_full",
                "*_per_draw", "_zn_*")


def _named(node):
    """(name, node) if node is a def or class, else one pair per plain
    name it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name, node
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _definitions(tree):
    """(name, node) for each module-level def, class and assigned name,
    and each method, nested class and class-level assigned name (a class
    setting or a dataclass field) of a module-level class."""
    for node in tree.body:
        yield from _named(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield from _named(item)


def _name_tokens(text):
    """(name, line) for each NAME token."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]


def test_every_package_name_is_reached():
    sources = {path: path.read_text(encoding="utf-8")
               for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    # name -> [(path, first line, last line)] of its package definitions
    spans = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(ast.parse(sources[path])):
            if not (name.startswith("__") and name.endswith("__")):
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                spans[name].append((path, first, node.end_lineno))
    reached = set()
    for path, text in sources.items():
        for name, line in _name_tokens(text):
            if name in spans and not any(
                    p == path and first <= line <= last
                    for p, first, last in spans[name]):
                reached.add(name)
    unreached = sorted("%s:%s" % (path.name, name)
                       for name, defs in spans.items() if name not in reached
                       for path in sorted({p for p, _, _ in defs}))
    assert unreached == []


def _attributes(tree, ctx):
    """Each `obj.name` node in tree used in context ctx (ast.Load or
    ast.Store)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
            yield node


def test_every_stored_attribute_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]
    read = {node.attr for tree in trees for node in _attributes(tree, ast.Load)}
    unread = sorted(
        "%s:%d:%s" % (path.name, node.lineno, node.attr)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _attributes(ast.parse(path.read_text(encoding="utf-8")), ast.Store)
        if isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in read)
    assert unread == []


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%s" % (path.name, name))
    assert unused == []


def test_no_assert_statements_in_the_package():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted_parameters(tree):
    """(call name, parameter name, position or None) for each parameter
    with a default of each def in tree.  The position counts the
    arguments a call passes, so a method's self or cls is not counted;
    keyword-only parameters have none."""
    methods = {id(item): node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
        if id(node) in methods and "staticmethod" not in decorators:
            positional = positional[1:]
        name = methods[id(node)] if node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        for i, param in enumerate(positional[first:], first):
            yield name, param.arg, i
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, param.arg, None


def test_every_default_parameter_is_passed():
    # call name -> [(positional count, keyword names, passes *args or **kw)]
    calls = defaultdict(list)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and _call_name(node):
                    keywords = {k.arg for k in node.keywords}
                    starred = (None in keywords or any(
                        isinstance(a, ast.Starred) for a in node.args))
                    calls[_call_name(node)].append((len(node.args), keywords,
                                                    starred))
    unpassed = sorted(
        "%s:%s.%s" % (path.name, name, param)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, param, pos in _defaulted_parameters(
            ast.parse(path.read_text(encoding="utf-8")))
        if not any(starred or param in keywords
                   or (pos is not None and count > pos)
                   for count, keywords, starred in calls[name]))
    assert unpassed == []


def test_ring_and_twist_methods_read_their_own_parts():
    builders = {"construct_ring", "build_endo"}
    found = sorted(
        "%s:%s.%s" % (path.name, cls.name, method.name)
        for path in (PACKAGE / "rings.py", PACKAGE / "endos.py")
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body if isinstance(method, ast.FunctionDef)
        if any(isinstance(node, ast.Call) and _call_name(node) in builders
               for node in ast.walk(method)))
    assert found == []
    # a subring or quotient is built over the ring it is given, through
    # rings.derived_ring, so in rings.py only construct_ring itself (for
    # the parts a spec names) calls construct_ring
    callers = sorted(
        top.name
        for top in ast.parse((PACKAGE / "rings.py").read_text(encoding="utf-8")).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        if any(isinstance(node, ast.Call) and _call_name(node) == "construct_ring"
               for node in ast.walk(top)))
    assert callers == ["construct_ring"]


def _test_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "tests").glob("test_*.py"))}


def _oracles():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _named_as_oracle(name):
    return any(fnmatch(name, pattern) for pattern in ORACLE_NAMES)


def test_no_test_module_defines_an_oracle():
    assert ["%s:%s" % (name, node.name) for name, tree in _test_modules().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and _named_as_oracle(node.name)] == []


def test_no_test_module_imports_an_oracle_from_another():
    oracles = _oracles()
    assert ["%s:%s.%s" % (name, node.module, alias.name)
            for name, tree in _test_modules().items() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_")
            for alias in node.names
            if alias.name in oracles or _named_as_oracle(alias.name)] == []


def _names_in(node):
    return {name for name, _ in _name_tokens(ast.unparse(node))}


def test_every_oracle_is_used_by_a_test():
    oracles = _oracles()
    used = set().union(*map(_names_in, _test_modules().values())) & set(oracles)
    frontier = list(used)
    while frontier:
        reached = _names_in(oracles[frontier.pop()]) & set(oracles) - used
        used |= reached
        frontier += reached
    assert sorted(set(oracles) - used) == []
