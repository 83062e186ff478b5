"""The package's public surface."""

import heartnet


def test_all_names_resolve_and_are_public():
    assert len(set(heartnet.__all__)) == len(heartnet.__all__)
    for name in heartnet.__all__:
        assert not name.startswith("_"), name
        assert hasattr(heartnet, name), f"heartnet.__all__ lists {name!r}, which it lacks"
