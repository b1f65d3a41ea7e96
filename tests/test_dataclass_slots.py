"""Hot-path dataclasses declare ``__slots__``.

``core/``, ``spatial/`` and ``estimation/`` allocate candidate and score
objects per charger per segment; a ``__dict__``-backed instance costs
about three times the memory and a dict lookup per attribute read.  The
test imports every module of those packages and checks each dataclass
defined there, nested classes included.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import sys
import types
from typing import Iterator

import pytest

HOT_PATH_PACKAGES = ("repro.core", "repro.spatial", "repro.estimation")


def hot_path_modules() -> Iterator[types.ModuleType]:
    for package_name in HOT_PATH_PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.walk_packages(package.__path__, prefix=f"{package_name}."):
            yield importlib.import_module(info.name)


def unslotted_dataclasses(module: types.ModuleType) -> list[str]:
    """Qualified names of the dataclasses ``module`` defines without
    ``__slots__`` of their own (an inherited one does not count)."""
    found = []
    pending = [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    while pending:
        cls = pending.pop()
        pending.extend(
            obj
            for obj in vars(cls).values()
            if isinstance(obj, type) and obj.__qualname__.startswith(f"{cls.__qualname__}.")
        )
        if dataclasses.is_dataclass(cls) and "__slots__" not in vars(cls):
            found.append(f"{module.__name__}.{cls.__qualname__}")
    return sorted(found)


def test_hot_path_dataclasses_have_slots():
    modules = list(hot_path_modules())
    assert "repro.core.scoring" in {module.__name__ for module in modules}
    offenders = [name for module in modules for name in unslotted_dataclasses(module)]
    assert offenders == [], f"hot-path dataclasses without slots=True: {offenders}"


#: A module under ``core/`` as a contributor might write it.
SYNTHETIC_CORE_MODULE = """
import dataclasses

@dataclasses.dataclass
class Bare:
    x: int = 0

@dataclasses.dataclass(frozen=True)
class FrozenOnly:
    x: int = 0

@dataclasses.dataclass(frozen=True, slots=True)
class Slotted:
    x: int = 0

    @dataclasses.dataclass
    class Nested:
        y: int = 0

@dataclasses.dataclass(frozen=True)
class Subclass(Slotted):
    z: int = 0
"""


@pytest.fixture
def synthetic_offenders(monkeypatch) -> list[str]:
    """What the walker reports for :data:`SYNTHETIC_CORE_MODULE`."""
    module = types.ModuleType("repro.core._synthetic")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(SYNTHETIC_CORE_MODULE, vars(module))
    return unslotted_dataclasses(module)


def test_walker_flags_a_bare_dataclass(synthetic_offenders):
    assert "repro.core._synthetic.Bare" in synthetic_offenders
    # Nested inside a slotted class is still a dataclass of its own.
    assert "repro.core._synthetic.Slotted.Nested" in synthetic_offenders


def test_walker_flags_a_dataclass_call_without_slots(synthetic_offenders):
    assert "repro.core._synthetic.FrozenOnly" in synthetic_offenders
    # A slotted base does not give the subclass slots of its own.
    assert "repro.core._synthetic.Subclass" in synthetic_offenders


def test_walker_passes_a_slotted_dataclass(synthetic_offenders):
    assert synthetic_offenders == [
        "repro.core._synthetic.Bare",
        "repro.core._synthetic.FrozenOnly",
        "repro.core._synthetic.Slotted.Nested",
        "repro.core._synthetic.Subclass",
    ]
