"""The public surface has one owner per name: the __all__ of the module that
defines it.  The package re-exports the nine library modules' __all__ (the
CLI's main and build_parser stay in regmeans.cli), so a name added to or
deleted from a module is added to or deleted from the package with it."""

import ast
import importlib
import inspect

import pytest

import regmeans

MODULES = ("errors", "generators", "means", "distributions", "asymptotics",
           "simulation", "stability", "portfolio", "figures")


def _module(name):
    return importlib.import_module(f"regmeans.{name}")


def test_package_all_is_the_modules_all_in_order():
    want = ["__version__", *(public for name in MODULES for public in _module(name).__all__)]
    assert regmeans.__all__ == want
    assert len(set(want)) == len(want)


def _defined(module) -> set:
    """The names the module's own top-level statements define: def, class
    and assignment, not import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("name", [*MODULES, "cli"])
def test_every_public_name_is_defined_in_its_module(name):
    module = _module(name)
    assert set(module.__all__) - _defined(module) == set()
    if name != "cli":
        for public in module.__all__:
            assert getattr(regmeans, public) is getattr(module, public), public


@pytest.mark.parametrize("public", ["invert", "OutOfRangeError", "quantile", "isf", "_at_u",
                                    "normalize_increasing"])
def test_deleted_names_are_gone(public):
    # the scalar bisection no library path called, the error only it raised,
    # and the laws' checked quantile forms, which only their own tests ran:
    # the quadrature calls each law's raw _quantile and _isf; and the
    # negation only the certificates called, which read g's direction off
    # the box
    modules = (regmeans, regmeans.generators, regmeans.errors, regmeans.distributions)
    for owner in (*modules, *regmeans.DistributionModel.__args__):
        assert not hasattr(owner, public)
    for module in modules:
        assert public not in module.__all__
