import focuslab
from focuslab import bench, image, metric, optics, search

MODULES = (image, optics, metric, search, bench)


def test_package_exports_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert focuslab.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(focuslab, name) is getattr(module, name), name
    assert not [name for name in names if name.startswith("_")]
