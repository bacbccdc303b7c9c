import importlib
import pkgutil

import tropkit

# The command line and its SVG helper are front ends; the package re-exports
# the public names of every other module.
FRONT_ENDS = {"cli", "svgplot"}


def library_modules():
    names = sorted(m.name for m in pkgutil.iter_modules(tropkit.__path__))
    return [importlib.import_module(f"tropkit.{n}") for n in names if n not in FRONT_ENDS]


def test_every_export_resolves():
    missing = [name for name in tropkit.__all__ if not hasattr(tropkit, name)]
    assert not missing


def test_package_exports_are_the_modules_exports():
    union = set().union(*(m.__all__ for m in library_modules()))
    assert set(tropkit.__all__) - {"__version__"} == union


def test_package_binds_the_modules_own_objects():
    # bench/tracer.py patches a function wherever it is bound, so the
    # package must hold the very objects its modules define
    for module in library_modules():
        for name in module.__all__:
            assert getattr(tropkit, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tropkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(tropkit.__all__)
