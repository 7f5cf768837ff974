"""Every top-level function and class in ``src/gpris``, public or private,
has a caller outside the tests: the package, the demos or the benchmark.

A helper that only tests reach belongs next to those tests.  References are
counted in code only (names and attribute accesses); docstrings, comments
and the name's own definition do not count.
"""

import ast
from collections import Counter
from pathlib import Path

import gpris

_ROOT = Path(gpris.__file__).parents[2]
_PACKAGE = Path(gpris.__file__).parent
_CALLER_DIRS = (_PACKAGE, _ROOT / "demos", _ROOT / "perfbench")

# paper identities the acceptance criteria check; kept in the package
# although only tests call them
_KEEP = {"lower_bound_phase_form", "commutation_matrix", "mc_instantaneous_se"}


def _references(tree: ast.AST) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
    return refs


def _definitions(tree: ast.Module, private: bool):
    """Top-level functions and classes, public or private (dunders are
    neither)."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and not node.name.startswith("__")]


def _uncalled(private: bool) -> list[str]:
    refs = Counter()
    trees = {}
    for directory in _CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            refs.update(_references(tree))
            if directory == _PACKAGE:
                trees[path.stem] = tree
    unused = []
    for module, tree in trees.items():
        for node in _definitions(tree, private):
            # a definition's own body (recursion, a classmethod naming its
            # class) is not a caller
            outside = refs[node.name] - _references(node)[node.name]
            if (outside == 0 and node.name not in gpris.__all__
                    and node.name not in _KEEP):
                unused.append(f"{module}.{node.name}")
    return unused


def test_public_names_have_callers_outside_tests():
    assert _uncalled(private=False) == []


def test_private_names_have_callers_outside_tests():
    # a private helper left behind once its last caller is gone
    assert _uncalled(private=True) == []
