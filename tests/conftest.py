"""The interpreters that tests start (the CLI determinism check, the
fresh-import probe) import flatlab from this checkout's src/, as the test
process does through ``pythonpath`` in pyproject.toml.  The battery
pullbacks are shared by the tests that check pullback totals."""

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
