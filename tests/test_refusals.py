"""Every size cap is refused in one place, ``errors.check_cap``.

Each module of the package is parsed.  ``raise ResourceLimitError`` may
occur only in the body of ``check_cap`` in ``errors.py``, and every module
constant named ``K_MAX`` or ``*_CAP`` must be the cap argument of some
``check_cap`` call, so no cap is decided by a hand-written comparison.
"""

import ast
from pathlib import Path

import pytest

from snrecoupling.errors import ResourceLimitError, check_cap

SRC = Path(__file__).resolve().parent.parent / "src" / "snrecoupling"
MODULES = sorted(SRC.glob("*.py"))


def is_cap(name: str) -> bool:
    return name == "K_MAX" or name.endswith("_CAP")


def stray_raises(source: str, owner: bool = False) -> list[int]:
    """Lines that raise ResourceLimitError, outside check_cap when `owner`."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if owner and isinstance(fn, ast.FunctionDef) and fn.name == "check_cap"
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in allowed:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ResourceLimitError":
                lines.append(node.lineno)
    return lines


def defined_caps(source: str) -> set[str]:
    """Module-level constants named like a cap."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names |= {t.id for t in targets if isinstance(t, ast.Name) and is_cap(t.id)}
    return names


def checked_caps(source: str) -> set[str]:
    """Names passed as the cap, the third argument, of a check_cap call."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "check_cap":
            caps = node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "cap"]
            names |= {cap.id for cap in caps if isinstance(cap, ast.Name)}
    return names


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_only_check_cap_raises_resource_limit_error(module):
    assert stray_raises(module.read_text(), owner=module.name == "errors.py") == []


def test_every_cap_reaches_check_cap():
    sources = [p.read_text() for p in MODULES]
    defined = set().union(*map(defined_caps, sources))
    assert "K_MAX" in defined and len(defined) >= 7
    assert defined - set().union(*map(checked_caps, sources)) == set()


def test_a_hand_written_refusal_is_reported():
    source = (
        "DENSE_CAP = 4\n"
        "def check_cap(what, size, cap):\n"
        "    if size > cap:\n"
        "        raise ResourceLimitError(what)\n"
        "def project(n):\n"
        "    if n > DENSE_CAP:\n"
        "        raise ResourceLimitError('too big')\n"
    )
    assert stray_raises(source, owner=True) == [7]
    assert stray_raises(source) == [4, 7]
    assert defined_caps(source) == {"DENSE_CAP"} and checked_caps(source) == set()
    assert checked_caps("check_cap('dimension', n, DENSE_CAP)\n") == {"DENSE_CAP"}


class Label:
    """A label that counts how often it is formatted."""

    def __init__(self):
        self.formats = 0

    def __format__(self, spec):
        self.formats += 1
        return "(2, 1)"


def test_check_cap_formats_only_when_it_refuses():
    # memo hits of the solver pass check_cap on every call, so a call that
    # does not refuse must not build its message
    label = Label()
    check_cap("entries for {}", 4, 4, label)
    assert label.formats == 0
    with pytest.raises(ResourceLimitError) as refused:
        check_cap("entries for {}", 5, 4, label)
    assert str(refused.value) == "entries for (2, 1): 5 exceeds cap 4" and label.formats == 1
    # and no call site formats its message itself
    whats = [node.args[0] for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_cap"]
    assert len(whats) >= 10 and not any(isinstance(w, ast.JoinedStr) for w in whats)
