"""Table-driven fuzzing of the four settings classes.

Every field of every settings class is given each JSON-shaped value whose
JSON type is not the field's own. Building the config must raise
InvalidConfig naming that field, on the Python API and through --set alike:
never another exception, and never a config.
"""

import dataclasses
import importlib
import json
import math
import pkgutil

import pytest

import shopstream
from shopstream.cli import main
from shopstream.evaluation import ProtocolConfig
from shopstream.ingest import BotFilterConfig, InvalidConfig
from shopstream.models import TrainConfig
from shopstream.synthgen import GenConfig

SETTINGS_CLASSES = (GenConfig, BotFilterConfig, TrainConfig, ProtocolConfig)

# one value of each JSON type; NaN is a float that no setting takes
JSON_VALUES = (1, 1.5, True, "x", [1], {"k": 1}, None, math.nan)


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return {bool: "bool", int: "int", float: "float", str: "str", list: "list", dict: "dict"}[type(value)]


def _own_json_types(default) -> set:
    """The JSON types a field with this default takes: an int counts as a
    float, and the one None default takes a dict. A settings object has no
    JSON type."""
    if default is None:
        return {"null", "dict"}
    if isinstance(default, (tuple, frozenset)):
        return {"list"}
    if isinstance(default, float):
        return {"int", "float"}
    if dataclasses.is_dataclass(default):
        return set()
    return {type(default).__name__}


def _default(f: dataclasses.Field):
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()


def _wrong_values(f: dataclasses.Field) -> list:
    own = _own_json_types(_default(f))
    return [v for v in JSON_VALUES if _json_type(v) not in own]


FIELDS = [(cls, f) for cls in SETTINGS_CLASSES for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls,f", FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in FIELDS])
def test_wrong_json_type_names_its_key(cls, f):
    for value in _wrong_values(f):
        with pytest.raises(InvalidConfig) as err:
            cls(**{f.name: value})
        assert err.value.key == f.name, value
        assert repr(value) in str(err.value)


@pytest.mark.parametrize("cls,key,value", [
    (ProtocolConfig, "steps", 5),  # were TypeError: 'int' object is not iterable
    (BotFilterConfig, "allowed_countries", 5),
    (ProtocolConfig, "settings", {"anonymous": 1}),  # were accepted
    (ProtocolConfig, "train", {"epochs": 3}),
    (ProtocolConfig, "models", {"lr"}),  # a set's order would order the report rows
    (ProtocolConfig, "models", "lr"),  # was "unknown entry 'l'"
])
def test_settings_of_the_wrong_kind(cls, key, value):
    with pytest.raises(InvalidConfig) as err:
        cls(**{key: value})
    assert err.value.key == key
    assert f"got {value!r}" in str(err.value)


@pytest.mark.parametrize("value", [[["NL"]], [5]])  # an entry a set cannot hold; not a name
def test_entries_have_the_kind_of_the_defaults(value):
    with pytest.raises(InvalidConfig) as err:
        BotFilterConfig(allowed_countries=value)
    assert str(err.value) == f"allowed_countries: expected a str, got {value[0]!r}"


# one field of each default kind that each subcommand can set
CLI_FIELDS = [
    ("generate", GenConfig, "n_customers"),  # int
    ("generate", GenConfig, "anonymous_share"),  # float
    ("generate", GenConfig, "history_seed_sessions"),  # bool
    ("generate", GenConfig, "purchase_weekdays"),  # tuple
    ("generate", GenConfig, "purchase_channel_mix"),  # dict
    ("generate", GenConfig, "device_transitions"),  # None
    ("ingest", BotFilterConfig, "allowed_countries"),  # frozenset
    ("evaluate", ProtocolConfig, "models"),  # tuple
    ("evaluate", ProtocolConfig, "folds"),  # int
    ("evaluate", TrainConfig, "knn_k"),  # int, a training option
]


@pytest.mark.parametrize("command,cls,key", CLI_FIELDS, ids=[f"{c}-{k}" for c, _, k in CLI_FIELDS])
def test_wrong_json_type_exits_2(tmp_path, capsys, command, cls, key):
    f = next(f for f in dataclasses.fields(cls) if f.name == key)
    # settings are checked before any input is read: the input need not exist
    inputs = [] if command == "generate" else [str(tmp_path / "missing")]
    for value in _wrong_values(f):
        setting = f"{key}={json.dumps(value)}"
        assert main([command, *inputs, "--set", setting, "--out", str(tmp_path / "out")]) == 2, setting
        assert key in capsys.readouterr().err


def test_table_lists_every_settings_class():
    """A settings class added to the package must join the table above."""
    found = set()
    for info in pkgutil.walk_packages(shopstream.__path__, "shopstream."):
        module = importlib.import_module(info.name)
        found |= {
            obj for name, obj in vars(module).items()
            if name.endswith("Config") and dataclasses.is_dataclass(obj) and obj.__module__ == info.name
        }
    assert found == set(SETTINGS_CLASSES)
