"""The interpreters that tests start (the CLI determinism check, the
fresh-import probe) import flatlab from this checkout's src/, as the test
process does through ``pythonpath`` in pyproject.toml.  The battery
pullbacks, and the battery groups with their totals, are shared by the
tests that check pullback totals."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def battery_pullbacks():
    """(ext, f, pulled) for every extension of a ``default_battery(16)`` group
    and every homomorphism f into its base from a ``default_battery(4)``
    group: 1,422 pullbacks, with totals of order 1 to 64."""
    from flatlab.catalog import default_battery
    from flatlab.extensions import extensions_from_group, pullback_extension
    from flatlab.homs import enumerate_homs

    return [
        (ext, f, pullback_extension(ext, f))
        for G in default_battery(16)
        for ext in extensions_from_group(G)
        for X in default_battery(4)
        for f in enumerate_homs(X, ext.base)
    ]


@pytest.fixture(scope="session")
def battery_groups(battery_pullbacks):
    """The 23 groups of ``default_battery(64)`` and the 1,422 pullback
    totals: the 1,445 groups a shortcut is checked on against the general
    path."""
    from flatlab.catalog import default_battery

    groups = [*default_battery(64), *(p.extension.total for _, _, p in battery_pullbacks)]
    assert len(groups) == 1_445
    return groups
