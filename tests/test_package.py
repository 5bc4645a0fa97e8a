import inspect

import spinpair


def test_every_listed_name_resolves():
    missing = [name for name in spinpair.__all__ if not hasattr(spinpair, name)]
    assert not missing


def test_every_reexported_function_and_class_is_listed():
    reexported = [
        name
        for name, obj in vars(spinpair).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("spinpair.")
    ]
    assert reexported and not set(reexported) - set(spinpair.__all__)
