"""Every MachineConfig field keys the caches it should.

The result cache keys on :func:`repro.fingerprint.config_fingerprint`,
which must see every field. The trace store keys on
:func:`repro.machine.replay.functional_fingerprint`, which must see
every field except those in ``TIMING_ONLY_FIELDS``, the one list of
fields that cannot change kernel data. A fingerprint that skips a field
aliases cache entries: two configs that differ in it would share one
result or one trace. Changing each field in turn and comparing the
fingerprints checks this by behaviour, whatever the fingerprints'
code looks like.
"""

import dataclasses
import enum

import pytest

from repro.config.machine import MachineConfig
from repro.fingerprint import config_fingerprint
from repro.machine.replay import TIMING_ONLY_FIELDS, functional_fingerprint

FIELD_NAMES = [field.name for field in dataclasses.fields(MachineConfig)]


def other_value(value):
    """A value of the same kind as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-changed"
    if value is None:
        return 1
    raise TypeError(f"no variant for {value!r}")


def test_partition_is_exact():
    assert TIMING_ONLY_FIELDS <= set(FIELD_NAMES)


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_every_field_keys_the_caches(name):
    config = MachineConfig()
    changed = dataclasses.replace(
        config, **{name: other_value(getattr(config, name))}
    )
    assert config_fingerprint(changed) != config_fingerprint(config)
    keys_trace = functional_fingerprint(changed) != functional_fingerprint(
        config
    )
    assert keys_trace == (name not in TIMING_ONLY_FIELDS)
