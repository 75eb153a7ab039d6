import dsmpepc


def test_star_import_binds_every_export():
    # a name left in __all__ after its definition is gone fails the import
    namespace = {}
    exec("from dsmpepc import *", namespace)
    for name in dsmpepc.__all__:
        assert namespace[name] is getattr(dsmpepc, name)
    assert len(set(dsmpepc.__all__)) == len(dsmpepc.__all__)
