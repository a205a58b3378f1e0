"""DET003 fixture: iteration over sets with unpinned order.

Linted with a module override placing it under ``repro.core``.
"""


def loop_over_set(items):
    acc = []
    s = set(items)
    for x in s:  # line 10: DET003 (set-typed local)
        acc.append(x)
    return acc


def literal_comprehension():
    return [x for x in {1, 2, 3}]  # line 16: DET003 (set literal)


def list_of_setcomp(items):
    return list({i for i in items})  # line 20: DET003 (list(set))


def union_iteration(a, b):
    left = set(a)
    right = set(b)
    for x in left | right:  # line 26: DET003 (set union)
        yield x


def order_insensitive(items):
    s = set(items)
    total = sum(v for v in s)  # sum collapses order: clean
    flags = any(v > 0 for v in s)  # any collapses order: clean
    for x in sorted(s):  # sorted pins order: clean
        total += x
    return total, flags


def annotated_local(keys):
    from typing import Set

    names: Set[str] = set()
    for key in keys:
        names.add(key)
    return list(names)  # line 45: DET003 (annotated set-typed local)


class RefHolder:
    """A set held in an attribute (``RefSet`` before its ``sorted``)."""

    def __init__(self, refs):
        self._refs = set(refs)
        self._names = []

    def serialize(self):
        out = []
        for ref in self._refs:  # line 57: DET003 (set-typed attribute)
            out.append(ref)
        return out

    def snapshot(self):
        return tuple(self._refs)  # line 62: DET003 (tuple of a set attribute)

    def order_insensitive(self):
        names = list(self._names)  # a list attribute: clean
        return len(self._refs), sorted(self._refs), names  # clean


class OtherHolder:
    def __init__(self):
        self._refs = []

    def serialize(self):
        return list(self._refs)  # another class's list attribute: clean
