"""The certificates' small arrays go to numpy's C entry points.

np.all, np.any, np.clip, np.diff and np.moveaxis, np.max and np.min, and
the .max and .min methods given an axis run Python frames of numpy's around
the ufunc they end in.  On the certificates' arrays of a few thousand
values those frames cost more than the arithmetic, and a last-axis .max or
.min of short rows costs about 50 ns a row besides.  stability.py and the
row path of means.py call the ufuncs and their reductions instead
(np.logical_and.reduce, np.minimum(np.maximum(...)), slice differences,
means._row_extreme), and this guard keeps the wrappers out.
"""

import ast
import inspect

import pytest

from regmeans import means, stability

WRAPPERS = {"all", "any", "clip", "diff", "moveaxis", "max", "min", "amax", "amin"}
# the functions of means.py that row means and check_axioms run through
ROW_PATH = ("row_means", "row_means_in_domain", "_row_kernel", "_row_extreme", "_anchored",
            "_power", "_power_rows", "means_from_sums", "check_axioms")


def _wrapper_calls(tree) -> list[str]:
    """The calls of tree to a numpy wrapper, or to .max or .min with an
    axis, as source text."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, name = node.func.value, node.func.attr
        if isinstance(owner, ast.Name) and owner.id == "np":
            if name in WRAPPERS:
                found.append(ast.unparse(node))
        elif name in ("max", "min") and (node.args or node.keywords):
            found.append(ast.unparse(node))
    return found


def test_stability_calls_no_wrapper():
    assert _wrapper_calls(ast.parse(inspect.getsource(stability))) == []


@pytest.mark.parametrize("name", ROW_PATH)
def test_the_row_path_of_means_calls_no_wrapper(name):
    (fn,) = [node for node in ast.parse(inspect.getsource(means)).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    assert _wrapper_calls(fn) == []


def test_the_guard_finds_each_form():
    source = ("np.all(x); np.any(x); np.clip(x, 0, 1); np.diff(x); np.moveaxis(x, -1, 0);"
              "np.max(x, axis=1); x.max(axis=-1); x.min(-1); x.max(); max(x, y)")
    assert len(_wrapper_calls(ast.parse(source))) == 8
