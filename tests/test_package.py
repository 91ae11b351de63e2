import justnow
from justnow import data, evaluation, fitting, model


def test_all_reexports_the_library_modules():
    modules = (data, evaluation, fitting, model)
    assert sorted(justnow.__all__) == sorted(name for m in modules for name in m.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(justnow, name) is getattr(module, name)
