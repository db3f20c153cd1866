from dataclasses import fields

import pytest

from graphperiod.config import Config


@pytest.mark.parametrize("value", [True, False, 32.0, 32.5, 1e6, "32"])
@pytest.mark.parametrize("name", [f.name for f in fields(Config)])
def test_non_int_field_is_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        Config(**{name: value})


def test_int_fields_and_negative_seed_are_accepted():
    assert Config(bar_cap=64, max_enum=10**6, seed=-3).bar_cap == 64


def test_cap_below_its_floor_is_rejected():
    with pytest.raises(ValueError, match="bar_cap must be >= 1"):
        Config(bar_cap=0)
    assert Config(subgraph_depth=0).subgraph_depth == 0
