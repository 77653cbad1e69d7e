"""Properties of the package source itself, read from its syntax trees."""

import ast
from pathlib import Path

import ugl

SOURCE = Path(ugl.__file__).resolve().parent

# The functions allowed to call themselves, each with what bounds its
# depth.
SELF_CALLS = {
    # at most 8 vertices (ENUMERATION_CAP)
    "isomorphism.canonical_form.rec": "capped",
}


def self_calling_functions():
    """Qualified names (module.outer.inner) of the functions whose body
    calls them by name, or as a method of ``self`` or ``cls``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for call in ast.walk(child):
                    func = getattr(call, "func", None)
                    if (isinstance(func, ast.Name) and func.id == child.name
                            or isinstance(func, ast.Attribute)
                            and func.attr == child.name
                            and isinstance(func.value, ast.Name)
                            and func.value.id in ("self", "cls")):
                        found.add(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return found


def test_only_the_listed_functions_call_themselves():
    assert self_calling_functions() == set(SELF_CALLS)


# No module compiles into more syntax tree nodes than this: a fresh
# interpreter's peak memory follows the largest module it compiles.
NODE_CAP = 2000


def test_no_module_exceeds_the_node_cap():
    sizes = {path.stem: sum(1 for _ in ast.walk(ast.parse(
                 path.read_text(encoding="utf-8"))))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {m: n for m, n in sizes.items() if n > NODE_CAP} == {}
