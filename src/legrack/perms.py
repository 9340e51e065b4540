"""Permutations of {0..n-1} and small explicit permutation groups.

A permutation is a plain tuple ``p`` with ``p[i]`` the image of ``i``.
The composition convention is fixed as ``(p o q)(x) = p(q(x))``; every
other module states its formulas in this convention.

``FrozenRecord`` is the base of the package's immutable classes that are
not tuples.
"""
from __future__ import annotations

import itertools
import re
from operator import attrgetter

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def validate_perm(image) -> Perm:
    """Check that ``image`` is a bijection on {0..n-1} and return it as a tuple.
    Its entries must be ints, and a bool is not one here."""
    p = tuple(image)
    n = len(p)
    if (any(isinstance(v, bool) or not isinstance(v, int) for v in p)
            or sorted(p) != list(range(n))):
        raise ValueError(f"not a permutation of range({n}): {p!r}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """Return p o q, i.e. x -> p(q(x))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[i] for i in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def power(p: Perm, k: int) -> Perm:
    """Integer power of a permutation, in one pass over its cycles.

    Each point moves k mod L places along its cycle of length L, so any k,
    negative or huge, costs the same.
    """
    out = list(range(len(p)))
    for cyc in cycles(p):
        s = k % len(cyc)
        for x, y in zip(cyc, cyc[s:] + cyc[:s]):
            out[x] = y
    return tuple(out)


def conjugate(g: Perm, p: Perm) -> Perm:
    """Return g p g^-1."""
    if len(g) != len(p):
        raise ValueError(f"degree mismatch: {len(g)} vs {len(p)}")
    out = [0] * len(g)
    for i, pi in enumerate(p):
        out[g[i]] = g[pi]
    return tuple(out)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points omitted, each cycle led by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted (descending) cycle lengths, including fixed points."""
    lengths = [len(c) for c in cycles(p)]
    lengths.extend([1] * (len(p) - sum(lengths)))
    return tuple(sorted(lengths, reverse=True))


def cycle_string(p: Perm) -> str:
    """Render in cycle notation, e.g. ``(0 1 2)(3 4)``; ``()`` for the identity."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cs)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like ``(0 1 2)(3 4)`` or ``(0 1) (2 3)`` into a
    permutation of ``degree``."""
    text = text.strip(" \t")
    if text in ("()", "", "id"):
        return identity(degree)
    # ASCII digits and blanks only: ``int`` would also take "١" as 1, and
    # ``\s`` the other Unicode spaces, which ``cycle_string`` never writes
    if not re.fullmatch(r"(\([ \t]*[0-9]+(?:[ \t,]+[0-9]+)*[ \t]*\)[ \t]*)+",
                        text):
        raise ValueError(f"malformed cycle notation: {text!r}: expected "
                         f"ASCII digits in parentheses, separated by "
                         f"spaces, tabs or commas")
    image = list(range(degree))
    touched = set()
    for group in re.findall(r"\(([^()]*)\)", text):
        entries = [int(tok) for tok in re.split(r"[ \t,]+", group.strip(" \t"))
                   if tok]
        if any(e >= degree for e in entries):
            raise ValueError(f"cycle entry out of range for degree {degree}: {text!r}")
        if len(set(entries)) != len(entries) or touched & set(entries):
            raise ValueError(f"repeated point in cycle notation: {text!r}")
        touched.update(entries)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            image[a] = b
    return tuple(image)


class FrozenRecord:
    """An immutable record that keeps an instance dict, so that
    ``functools.cached_property`` can cache on it.

    A subclass names its two or more fields in ``_fields``, and its
    ``__init__`` writes them into ``__dict__``.  Instances compare, hash
    and print by the fields, as a frozen dataclass does: equal only to an
    instance of the same class, hashed as the tuple of the fields (read by
    one ``attrgetter``, ``_values``), printed as ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises AttributeError;
    ``cached_property`` writes the instance dict directly.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _values: tuple

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._values)) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PermGroup(FrozenRecord):
    """A finite permutation group stored by explicit element listing."""

    degree: int
    elements: frozenset[Perm]
    _fields = ("degree", "elements")

    def __init__(self, degree: int, elements: frozenset[Perm]):
        for p in elements:
            if len(p) != degree:
                raise ValueError(f"element degree {len(p)} != group degree {degree}")
        self.__dict__.update(degree=degree, elements=elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __iter__(self):
        return iter(self.sorted_elements())

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)


def symmetric_group(n: int) -> PermGroup:
    return PermGroup(n, frozenset(itertools.permutations(range(n))))


def subgroup_closure(generators, degree: int | None = None) -> PermGroup:
    """Smallest group containing the generators (breadth-first closure)."""
    gens = [validate_perm(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator set")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators of mixed degree")
    elements = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(g, a)
                if b not in elements:
                    elements.add(b)
                    nxt.append(b)
        frontier = nxt
    return PermGroup(degree, frozenset(elements))


def burnside_pair_count(group: PermGroup, subset=None) -> int:
    """Number of orbits of S x S under diagonal conjugation by G.

    ``subset`` S defaults to G itself.  By Burnside the count is
    (1/|G|) sum_{g in G} |C_S(g)|^2, since the pairs fixed by g are those of
    C_S(g) x C_S(g).  S must be a subset of G closed under conjugation by
    G (a normal subgroup, say, such as U_X = C_Aut(Inn) in Aut(X)); then
    C_S(hgh^-1) = h C_S(g) h^-1, so |C_S(g)| is constant on each conjugacy
    class of G, and the sum runs once per class, weighted by its size.
    Raises ValueError when S is not such a subset.
    """
    elements = group.sorted_elements()
    subset = group.elements if subset is None else frozenset(subset)
    seen: set[Perm] = set()
    covered = 0
    total = 0
    for g in elements:
        if g in seen:
            continue
        klass = {conjugate(h, g) for h in elements}
        seen |= klass
        inside = len(klass & subset)
        if inside not in (0, len(klass)):
            raise ValueError("subset is not closed under the group action")
        covered += inside
        c = sum(1 for u in subset if conjugate(u, g) == g)
        total += len(klass) * c * c
    if covered != len(subset):
        raise ValueError("subset is not contained in the group")
    assert total % group.order == 0
    return total // group.order
