import reebedit


def test_all_names_resolve_and_are_unique():
    namespace = {}
    exec("from reebedit import *", namespace)  # AttributeError on a stale name
    assert set(reebedit.__all__) <= set(namespace)
    assert len(set(reebedit.__all__)) == len(reebedit.__all__)
