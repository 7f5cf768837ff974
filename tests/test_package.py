import gpris


def test_public_names_resolve():
    # a name deleted from the package must leave __all__ as well
    missing = [name for name in gpris.__all__ if not hasattr(gpris, name)]
    assert missing == []
    assert len(set(gpris.__all__)) == len(gpris.__all__)
