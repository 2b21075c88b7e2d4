"""pydocstyle-lite: the public API surface must stay documented.

Every module below must carry a module docstring, and every symbol it
exports (``__all__`` when present, else public top-level classes and
functions defined in the module) needs a real docstring — at least one
full sentence, not a stub.  Public methods of exported classes are held
to the same bar.  This runs in CI as part of the tier-1 suite, so a new
export without documentation fails the build.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

#: The enforced public surface (ISSUE 3 satellite): the package root,
#: the selection/exploration/AFU entry points, and the execution layer.
MODULES = [
    "repro",
    "repro.core.selection",
    "repro.explore.runner",
    "repro.exec.verilog",
    "repro.exec",
    "repro.exec.rewrite",
    "repro.exec.cycles",
    "repro.exec.speedup",
    "repro.interp",
    "repro.interp.batch",
    "repro.interp.compile",
    "repro.store",
    "repro.store.backend",
    "repro.store.sqlite",
    "repro.store.net",
    "repro.cluster",
    "repro.cluster.leader",
    "repro.cluster.worker",
    "repro.wire",
    "repro.core.parallel",
    "repro.chaos",
    "repro.chaos.plan",
    "repro.chaos.backend",
    "repro.chaos.wirefault",
    "repro.chaos.runner",
]

#: Anything shorter than this is a label, not documentation.
MIN_DOC = 25


def _exported(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and getattr(obj, "__module__", None) == module.__name__
        ]
    return [(name, getattr(module, name)) for name in names]


def _own_doc(obj) -> str:
    """The object's own docstring (inherited docs don't count for
    classes — a subclass must restate its contract)."""
    if inspect.isclass(obj):
        doc = obj.__dict__.get("__doc__")
    else:
        doc = getattr(obj, "__doc__", None)
    return (doc or "").strip()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    doc = (module.__doc__ or "").strip()
    assert len(doc) >= MIN_DOC, f"{module_name}: missing module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_symbols_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in _exported(module):
        if not (inspect.isclass(obj) or callable(obj)):
            continue        # re-exported constants document themselves
        if len(_own_doc(obj)) < MIN_DOC:
            missing.append(name)
    assert not missing, (
        f"{module_name}: exported symbols without a real docstring: "
        f"{', '.join(sorted(missing))}")


@pytest.mark.parametrize("module_name", MODULES)
def test_public_methods_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in _exported(module):
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if attr.startswith("_"):
                continue
            if not (inspect.isfunction(member)
                    or isinstance(member, (property, staticmethod,
                                           classmethod))):
                continue
            target = member.fget if isinstance(member, property) else member
            if isinstance(member, (staticmethod, classmethod)):
                target = member.__func__
            if len((getattr(target, "__doc__", None) or "").strip()) < 10:
                missing.append(f"{name}.{attr}")
    assert not missing, (
        f"{module_name}: public methods without docstrings: "
        f"{', '.join(sorted(missing))}")
