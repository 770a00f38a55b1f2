"""The package's public names."""

import grouprune


def test_every_exported_name_resolves():
    assert len(grouprune.__all__) == len(set(grouprune.__all__))
    for name in grouprune.__all__:
        assert hasattr(grouprune, name), name
