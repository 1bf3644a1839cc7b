import mkg


def test_all_names_resolve_once():
    # a name left in __all__ after its definition is gone makes
    # "from mkg import *" raise AttributeError
    assert len(mkg.__all__) == len(set(mkg.__all__))
    scope = {}
    exec("from mkg import *", scope)
    assert set(mkg.__all__) <= scope.keys()
