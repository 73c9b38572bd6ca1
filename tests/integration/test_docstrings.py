"""Meta-test: every public item in the library carries a docstring.

Deliverable (e) requires doc comments on every public item; this test
keeps that true as the code evolves.  Private names (leading
underscore), re-exports, and dataclass-generated plumbing are exempt.
Every name a module lists in ``__all__`` must also exist on it, so a
deletion cannot leave a dangling export behind.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")[1:]):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


MODULES = _public_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"module {module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    missing: list[str] = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at home
        if not (obj.__doc__ or "").strip():
            missing.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if not inspect.isfunction(attr):
                    continue
                if (attr.__doc__ or "").strip():
                    continue
                # an override inherits its contract from a documented base
                inherited = any(
                    (getattr(base, attr_name, None) is not None)
                    and (getattr(base, attr_name).__doc__ or "").strip()
                    for base in obj.__mro__[1:]
                )
                if not inherited:
                    missing.append(f"{module.__name__}.{name}.{attr_name}")
    assert not missing, "undocumented public items:\n  " + "\n  ".join(missing)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exports_resolve(module):
    dangling = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not dangling, f"{module.__name__}.__all__ names missing attributes: {dangling}"
