"""Every dataclass in the package is a frozen, slotted value class.

Slots keep the per-record objects small; the guard checks that none lost
them and that instances still pickle, deep-copy and ``replace`` unchanged.
The record path also runs under Python 3.10, the oldest version
``pyproject.toml`` accepts (and the first with ``dataclass(slots=True)``),
and under 3.12 and 3.13, whose slot machinery differs.  Each class is made by
``core.value_class``, so the last tests pin its construction contract: the
``__init__`` takes the parameters ``dataclass`` would generate, stores every
field and runs ``__post_init__``.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import re
import shutil
import subprocess
import typing
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
from fiqs.census import CountRow
from fiqs.core import value_class
from fiqs.series import SERIES_IDS
from fiqs.verify import ClaimResult, VerifyReport

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


_RECORD_PATH_SCRIPT = """
import csv, dataclasses, io, pickle, sys
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
    named = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    assert type(rec)(**named) == rec == dataclasses.replace(rec)
    assert SeriesKey(series=key.series, iota_plus=key.iota_plus, iota_minus=key.iota_minus, c=key.c, d=key.d) == key
    try:
        dataclasses.replace(key, iota_plus=0)
    except ValueError as e:
        assert "must be positive" in str(e)
    else:
        raise AssertionError("replace skipped __post_init__")
    try:
        rec.ke = not rec.ke
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError("a record field was assigned")
print(".".join(map(str, sys.version_info[:2])), len(keys))
"""


def _python(version: str) -> tuple[str, dict[str, str]] | None:
    """A working python<version> on PATH and the environment to run it in, or None."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    # A pyenv shim runs only a selected version; other interpreters ignore this.
    env = {**os.environ, "PYENV_VERSION": version}
    try:
        probe = subprocess.run(
            [exe, "-c", "import sys; print('.'.join(map(str, sys.version_info[:2])))"],
            capture_output=True, text=True, timeout=60, env=env,
        )
    except OSError:
        return None
    return (exe, env) if probe.stdout.strip() == version else None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_record_path_under_python(version):
    """The record path under the oldest Python ``pyproject.toml`` accepts and under the newer slot machinery."""
    found = _python(version)
    if found is None:
        pytest.skip(f"no working python{version} on PATH")
    exe, env = found
    src = Path(fiqs.__file__).resolve().parents[1]
    done = subprocess.run(
        [exe, "-B", "-c", _RECORD_PATH_SCRIPT, str(src)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [version, "3"]


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
        (lambda: SeriesKey("s11", 1, 1), "SeriesKey field 'series' must be a SeriesId, got 's11'"),
        (lambda: RawMatrix(1, [1, 1, 1, 1]), "RawMatrix field 'third_row' must be a tuple, got [1, 1, 1, 1]"),
        (lambda: RawMatrix(1, 5), "RawMatrix field 'third_row' must be a tuple, got 5"),
        (lambda: fiqs.smith_normal_form(IntMatrix(2.0, 1, (1, 2))), "IntMatrix field 'rows' must be an int, got 2.0"),
        (lambda: IntMatrix(True, 2, (4, 6)), "IntMatrix field 'rows' must be an int, got True"),
        (lambda: IntMatrix(1, 2.0, (4, 6)), "IntMatrix field 'cols' must be an int, got 2.0"),
        (lambda: IntMatrix(1, 2, (4, True)), "entry 2 of row 1 must be an int, got True"),
        (lambda: IntMatrix(1, 2, [4, 6]), "IntMatrix field 'entries' must be a tuple, got [4, 6]"),
        (lambda: IntMatrix(0, 0, ""), "IntMatrix field 'entries' must be a tuple, got ''"),
        (lambda: SmithForm((2.0, 4), 2), "SmithForm field 'invariant_factors' must hold ints, got 2.0"),
        (lambda: SmithForm((1, True), 2), "SmithForm field 'invariant_factors' must hold ints, got True"),
        (lambda: SmithForm([1, 2], 2), "SmithForm field 'invariant_factors' must be a tuple, got [1, 2]"),
        (lambda: SmithForm((1, 2), True), "SmithForm field 'rank' must be an int, got True"),
        (lambda: SmithForm((1, 2), 2.0), "SmithForm field 'rank' must be an int, got 2.0"),
    ],
)
def test_non_int_fields_are_named(call, message):
    """A key, matrix or series id names a field that is not an int when it is made, as RawMatrix does.

    No float or bool record comes out, and no bare TypeError from the residue tables.  A series that is no
    SeriesId and a third row or entries that are no tuple (a list would make an unhashable value) are named the same way.
    """
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _generated_init(cls: type) -> typing.Callable[..., None]:
    """The ``__init__`` that plain ``dataclass`` generates for the fields of cls, on a twin class."""
    fields = dataclasses.fields(cls)
    namespace = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    namespace["__annotations__"] = {f.name: f.type for f in fields}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace)).__init__


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_init_has_the_generated_signature(name):
    cls = DATACLASSES[name]
    assert inspect.signature(cls.__init__) == inspect.signature(_generated_init(cls))
    hints = typing.get_type_hints(cls)
    assert typing.get_type_hints(cls.__init__) == {**hints, "return": type(None)}
    assert cls.__init__.__qualname__ == f"{name}.__init__"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_positional_and_keyword_construction_store_every_field(name):
    obj = EXAMPLES[name]
    cls = type(obj)
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)}
    for twin in (cls(*values.values()), cls(**values)):
        assert all(getattr(twin, field) is value for field, value in values.items())
        assert twin == obj


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SeriesKey(SERIES_IDS[3, "s11"], 0, 3, -2, -2), "SeriesKey field 'iota_plus' must be positive, got 0"),
        (lambda: SeriesKey(series=SERIES_IDS[1, "s11"], iota_plus=3, iota_minus=3, c=-2), "c must be present exactly"),
        (lambda: DefiningMatrix(3, 3, 1, -2, "-2"), "DefiningMatrix field 'd' must be an int, got '-2'"),
        (lambda: DefiningMatrix(rho=2, a=1, b=-1), "c must be present exactly for rho >= 2 (rho=2)"),
        (lambda: AdmissibleOp("spin"), "unknown op kind 'spin'"),
        (lambda: IntMatrix(-1, 0, ()), "matrix dimensions must be nonnegative"),
        (lambda: IntMatrix(2, 2, (1, 2, 3)), "expected 4 entries, got 3"),
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
        (lambda: SmithForm((1, 2), 1), "rank does not match number of nonzero factors"),
        (lambda: SmithForm((1, 1, -7), 3), "SmithForm field 'invariant_factors' must be nonnegative, got (1, 1, -7)"),
        (lambda: SmithForm((-2, 4), 2), "SmithForm field 'invariant_factors' must be nonnegative, got (-2, 4)"),
    ],
)
def test_construction_runs_post_init(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "field",
    [
        dataclasses.field(default_factory=list),
        dataclasses.field(default=0, init=False),
        dataclasses.field(default=0, kw_only=True),
    ],
    ids=["default_factory", "init=False", "kw_only"],
)
def test_value_class_refuses_fields_it_does_not_store(field):
    namespace = {"__annotations__": {"x": "int", "y": "int"}, "x": 0, "y": field}
    with pytest.raises(TypeError, match=re.escape("value_class Bad: field 'y' needs the generated __init__")):
        value_class(type("Bad", (), namespace))
