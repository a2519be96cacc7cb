import hexafield


def test_exports_resolve_once():
    names = hexafield.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from hexafield import *", namespace)  # raises on a name that does not resolve
    assert set(names) <= namespace.keys()
