import dpkanon


def test_every_exported_name_resolves():
    assert [name for name in dpkanon.__all__ if not hasattr(dpkanon, name)] == []
