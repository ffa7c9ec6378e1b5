"""The package's public names."""

import ageval


def test_every_exported_name_is_listed_once_and_resolves():
    assert len(ageval.__all__) == len(set(ageval.__all__))
    assert [name for name in ageval.__all__ if not hasattr(ageval, name)] == []
