"""Every dataclass in the package is a frozen, slotted value class.

Slots keep the per-record objects small; the guard checks that none lost
them and that instances still pickle, deep-copy and ``replace`` unchanged.
The last test runs the record path under Python 3.10, the oldest version
``pyproject.toml`` accepts (and the first with ``dataclass(slots=True)``).
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import fiqs
from fiqs import (
    AdmissibleOp,
    DefiningMatrix,
    IntMatrix,
    RawMatrix,
    SeriesId,
    SeriesKey,
    SmithForm,
    barycenters,
    count,
    surface_record,
)
from fiqs.census import ClaimResult, CountRow, VerifyReport

_KEY = SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2)
_REC = surface_record(_KEY)
_TABLE = count(1, 4)
_CLAIM = ClaimResult("claim", 0, 0, True)

EXAMPLES = {
    "IntMatrix": IntMatrix(2, 2, (1, 2, 3, 4)),
    "SmithForm": SmithForm((1, 2, 0), 2),
    "SeriesId": _KEY.series,
    "SeriesKey": _KEY,
    "DefiningMatrix": DefiningMatrix(3, 3, 1, -2, -2),
    "AdmissibleOp": AdmissibleOp("swap_arms", arms=(0, 1)),
    "RawMatrix": RawMatrix(3, (3, 1, 0, -2, 0, -2)),
    "ClassGroup": _REC.class_group,
    "LocalData": _REC.local,  # this and the chains are built from the record's orders when read
    "ResolutionGraph": _REC.resolution,
    "SurfaceRecord": _REC,
    "Barycenter": barycenters(_REC.matrix)[0],
    "CountRow": CountRow(1, 2, 3, 1, 1),
    "CountTable": _TABLE,
    "ClaimResult": _CLAIM,
    "VerifyReport": VerifyReport((_CLAIM,), ("note",)),
}


def _package_dataclasses() -> dict[str, type]:
    found = {}
    for info in pkgutil.iter_modules(fiqs.__path__):
        module = importlib.import_module(f"fiqs.{info.name}")
        for obj in vars(module).values():
            if dataclasses.is_dataclass(obj) and getattr(obj, "__module__", None) == module.__name__:
                found[obj.__name__] = obj
    return found


DATACLASSES = _package_dataclasses()


def test_every_dataclass_has_an_example():
    assert set(DATACLASSES) == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_frozen_and_slotted(name):
    cls, obj = DATACLASSES[name], EXAMPLES[name]
    assert type(obj) is cls
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in vars(cls)
    assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, dataclasses.fields(cls)[0].name, None)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_round_trips_unchanged(name):
    obj = EXAMPLES[name]
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), dataclasses.replace(obj)):
        assert type(twin) is type(obj)
        assert twin == obj


def test_replace_still_runs_post_init_checks():
    with pytest.raises(ValueError, match="unknown series tag"):
        dataclasses.replace(EXAMPLES["SeriesId"], tag="s33")
    with pytest.raises(ValueError, match="d must be present"):
        dataclasses.replace(EXAMPLES["DefiningMatrix"], d=None)


_PY310_SCRIPT = """
import csv, io, pickle, sys
sys.path.insert(0, sys.argv[1])
from fiqs import (SeriesId, SeriesKey, record_from_csv_row, record_from_json_line,
                  record_to_csv_row, record_to_json_line, surface_record)
keys = [SeriesKey(SeriesId(1, "s11"), 3, 3), SeriesKey(SeriesId(2, "s22"), 1, 1, -2),
        SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2)]
for key in keys:
    rec = surface_record(key)
    assert record_from_json_line(record_to_json_line(rec)) == rec
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\\n").writerow(record_to_csv_row(rec))
    (row,) = csv.reader(io.StringIO(buf.getvalue()))
    assert record_from_csv_row(row) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert not hasattr(rec, "__dict__")
print(".".join(map(str, sys.version_info[:2])), len(keys))
"""


def _python310() -> tuple[str, dict[str, str]] | None:
    """A working python3.10 on PATH and the environment to run it in, or None."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    # A pyenv shim runs only a selected version; other interpreters ignore this.
    env = {**os.environ, "PYENV_VERSION": "3.10"}
    try:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
            capture_output=True, text=True, timeout=60, env=env,
        )
    except OSError:
        return None
    return (exe, env) if probe.stdout.strip() == "True" else None


def test_record_path_under_python310():
    found = _python310()
    if found is None:
        pytest.skip("no working python3.10 on PATH")
    exe, env = found
    src = Path(fiqs.__file__).resolve().parents[1]
    done = subprocess.run(
        [exe, "-B", "-c", _PY310_SCRIPT, str(src)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["3.10", "3"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fiqs.classify(DefiningMatrix(2, 1.0, -1, -2)), "DefiningMatrix field 'a' must be an int, got 1.0"),
        (lambda: fiqs.classify(DefiningMatrix(2, "1", -1, -2)), "DefiningMatrix field 'a' must be an int, got '1'"),
        (
            lambda: fiqs.record_from_matrix(DefiningMatrix(3, 3, 1, -2, -2.0)),
            "DefiningMatrix field 'd' must be an int, got -2.0",
        ),
        (
            lambda: surface_record(SeriesKey(SeriesId(3, "s11"), 3.0, 3, -2, -2)),
            "SeriesKey field 'iota_plus' must be an int, got 3.0",
        ),
        (
            lambda: fiqs.matrix_from_eta(SeriesKey(SeriesId(3, "s11"), 3, 3, -2.0, -2)),
            "SeriesKey field 'c' must be an int, got -2.0",
        ),
        (lambda: fiqs.resolution_graph(SeriesKey(SeriesId(2, "s22"), 1, 1, "-2")), "SeriesKey field 'c' must be an int"),
        (
            lambda: fiqs.record_to_json_line(surface_record(SeriesKey(SeriesId(1, "s11"), True, True))),
            "SeriesKey field 'iota_plus' must be an int, got True",
        ),
        (lambda: SeriesKey(SeriesId(3, "s11"), "3", 3, -2, -2), "SeriesKey field 'iota_plus' must be an int, got '3'"),
        (lambda: DefiningMatrix(3, 3, 1, -2, "-2"), "DefiningMatrix field 'd' must be an int, got '-2'"),
        (lambda: SeriesId(1.0, "s11"), "rho must be 1, 2 or 3, got 1.0"),
        (lambda: SeriesId(True, "s11"), "rho must be 1, 2 or 3, got True"),
    ],
)
def test_non_int_fields_are_named(call, message):
    """A key, matrix or series id names a field that is not an int when it is made, as RawMatrix does.

    No float or bool record comes out, and no bare TypeError from the residue tables.
    """
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
