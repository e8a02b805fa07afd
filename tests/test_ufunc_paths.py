"""The certificates' and the quadrature's small arrays go to numpy's C
entry points.

np.all, np.any, np.sum, np.clip, np.diff, np.moveaxis, np.isin and
np.concatenate, np.max and np.min, and the .max, .min and .sum methods
given an axis run Python frames of numpy's around the ufunc or copy they
end in.  On the certificates' arrays of a few thousand values, and the
quadrature's of a few hundred nodes, those frames cost more than the
arithmetic, and a last-axis .max or .min of short rows costs about 50 ns a
row besides.  stability.py, the row path of means.py and the quadrature of
asymptotics.py call the ufuncs and their reductions instead (np.logical_and.reduce, np.add.reduce, np.minimum(np.maximum(...)),
slice differences, buffers filled slice by slice, means._row_extreme and
means._row_sum), and this guard keeps the wrappers out.
"""

import ast
import inspect

import pytest

from regmeans import asymptotics, means, stability

WRAPPERS = {"all", "any", "sum", "clip", "diff", "moveaxis", "isin", "concatenate", "max", "min",
            "amax", "amin"}
# the functions of means.py that row means and check_axioms run through
ROW_PATH = ("row_means", "row_means_in_domain", "_row_kernel", "_tall", "_row_extreme",
            "_row_sum", "_anchored", "_power", "_power_rows", "means_from_sums", "check_axioms")
# the functions each step of the quadrature runs through
QUADRATURE = ((asymptotics, "_tail_slope"), (asymptotics, "_nodes"), (asymptotics, "_moments"))


def _wrapper_calls(tree) -> list[str]:
    """The calls of tree to a numpy wrapper, or to .max, .min or .sum with
    an axis, as source text."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, name = node.func.value, node.func.attr
        if isinstance(owner, ast.Name) and owner.id == "np":
            if name in WRAPPERS:
                found.append(ast.unparse(node))
        elif name in ("max", "min", "sum") and (node.args or node.keywords):
            found.append(ast.unparse(node))
    return found


def test_stability_calls_no_wrapper():
    assert _wrapper_calls(ast.parse(inspect.getsource(stability))) == []


def _function(module, name: str):
    (fn,) = [node for node in ast.parse(inspect.getsource(module)).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


@pytest.mark.parametrize("name", ROW_PATH)
def test_the_row_path_of_means_calls_no_wrapper(name):
    assert _wrapper_calls(_function(means, name)) == []


@pytest.mark.parametrize("module, name", QUADRATURE, ids=[name for _, name in QUADRATURE])
def test_the_quadrature_calls_no_wrapper(module, name):
    assert _wrapper_calls(_function(module, name)) == []


def test_the_guard_finds_each_form():
    source = ("np.all(x); np.any(x); np.sum(x, axis=1); np.clip(x, 0, 1); np.diff(x);"
              "np.moveaxis(x, -1, 0); np.isin(x, ends); np.concatenate([x, y]);"
              "np.max(x, axis=1); x.max(axis=-1); x.min(-1); x.max(); max(x, y); x.sum(axis=1)")
    assert len(_wrapper_calls(ast.parse(source))) == 12
