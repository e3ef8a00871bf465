"""The names the package's docstrings and comments cite in double backticks
resolve, so a rename or a deletion cannot leave a stale reference behind.

Three forms are checked: ``module.attr``, where the module is one of the
package's; ``Class.attr``, where the class is defined in one of them; and a
bare ``_private`` name, which must be an attribute of a package module or of
a class in one. Other backticked text (expressions, options, words, names of
other libraries) makes no claim this test can check.
"""

import functools
import importlib
import inspect
import pathlib
import re

import autocomplexity

SOURCES = sorted(pathlib.Path(autocomplexity.__file__).parent.glob("*.py"))
MODULES = {"autocomplexity": autocomplexity} | {
    p.stem: importlib.import_module(f"autocomplexity.{p.stem}")
    for p in SOURCES
    if p.stem != "__init__"
}
CLASSES = [
    c
    for m in MODULES.values()
    for c in vars(m).values()
    if inspect.isclass(c) and c.__module__.startswith("autocomplexity")
]
NAME = r"[A-Za-z_]\w*"
REFERENCE = re.compile(rf"``({NAME}(?:\.{NAME})*)``")


def _has(owner, path: str) -> bool:
    try:
        functools.reduce(getattr, path.split("."), owner)
    except AttributeError:
        return False
    return True


def _resolves(ref: str) -> bool | None:
    """Whether ``ref`` names something in the package; None when it makes no
    claim about the package."""
    head, _, rest = ref.partition(".")
    if rest:
        owners = [MODULES[head]] if head in MODULES else [c for c in CLASSES if c.__name__ == head]
        return any(_has(o, rest) for o in owners) if owners else None
    if head.startswith("_") and not head.startswith("__"):
        return any(_has(o, head) for o in [*MODULES.values(), *CLASSES])
    return None


def test_every_backticked_package_reference_resolves():
    checked, stale = 0, []
    for path in SOURCES:
        for ref in REFERENCE.findall(path.read_text()):
            ok = _resolves(ref)
            checked += ok is not None
            if ok is False:
                stale.append(f"{path.name}: ``{ref}``")
    assert not stale, stale
    assert checked > 40  # the pattern still finds the package's references


def test_a_stale_reference_is_caught():
    assert _resolves("metrics.prefetch") is False
    assert _resolves("ComplexityProvider.prefetch") is True
    assert _resolves("_no_such_helper") is False
    assert _resolves("_scan_partitions") is True
    assert _resolves("math.log2") is None
