import distcost


def test_every_exported_name_resolves():
    missing = [name for name in distcost.__all__ if not hasattr(distcost, name)]
    assert missing == []
    assert len(set(distcost.__all__)) == len(distcost.__all__)
