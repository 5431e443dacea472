import types

import layerfem


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(layerfem.__all__)) == len(layerfem.__all__)
    for name in layerfem.__all__:
        obj = getattr(layerfem, name)
        assert not isinstance(obj, types.ModuleType), name
