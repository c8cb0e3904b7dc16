"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Group laws are
verified once per table, when a `FiniteGroup` is built: associativity by
Light's test on a generating set, which is complete, and inverses by
scanning each row.  A `Subgroup` is a group record in its parent's
indices, over a subset of the parent's table, and checks nothing, as its
producers only make subgroups.  Conjugacy classes, subgroups and double
cosets are all computed by brute force; the order cap keeps that cheap.
Each builtin is a rule over an ordered element list, the identity first:
`_from_rule` caps the list's length, then tabulates the product, element i
at index i.
"""

from __future__ import annotations

from itertools import permutations

MAX_ORDER = 48


class GroupError(ValueError):
    """The given table does not satisfy the group laws, or its definition
    is malformed."""


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise GroupError(f"order {n} exceeds the cap {MAX_ORDER}")


def _right_closure(table, generators) -> set[int]:
    """The elements reached from 0 by right multiplication by the
    generators: 0 and every left-bracketed word ((g1 g2) g3)... in them."""
    reached = {0}
    frontier = [0]
    while frontier:
        row = table[frontier.pop()]
        for g in generators:
            if row[g] not in reached:
                reached.add(row[g])
                frontier.append(row[g])
    return reached


def _check_associative(table) -> None:
    """Light's test, as the `FiniteGroup` docstring sets out: find a
    generating set A greedily, then check (x a) y = x (a y) for every x, y
    and each a in A.  The triple named on failure, (x, a, y), fails."""
    generators = []
    reached = {0}
    for g in range(len(table)):
        if g not in reached:
            generators.append(g)
            reached = _right_closure(table, generators)
    for a in generators:
        row_a = table[a]
        for x, row_x in enumerate(table):
            row_xa = table[row_x[a]]
            if row_xa != tuple(map(row_x.__getitem__, row_a)):
                y = next(y for y in range(len(table)) if row_xa[y] != row_x[row_a[y]])
                raise GroupError(f"associativity fails at triple ({x}, {a}, {y})")


class FiniteGroup:
    """A group given by its multiplication table, with 0 the identity.

    The table is checked to be square, to have 0 as a two-sided identity,
    to be associative and to give every element an inverse.  Associativity
    is checked by Light's test (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, section 1.2), on n^2 |A| products for a generating set A
    rather than all n^3 triples.  Each element in index order that the
    left-bracketed words ((a1 a2) a3)... in the generators so far do not
    reach becomes a generator, so in the end those words reach every
    element.  Then (x a) y = x (a y) is checked for each a in A and every
    x, y.  That is complete: the set T of the a for which it holds for all
    x, y contains 0, and is closed under the table's product, because for a
    and b in T
        (x (ab)) y = ((xa) b) y = (xa)(by) = x (a (by)) = x ((ab) y).
    So T contains every left-bracketed word in A, which is every element.
    A table group's `parent` is None; a `Subgroup`'s is the group it is in."""

    __slots__ = ("parent", "order", "table", "inverses", "elements", "classes", "class_index", "name")

    def __init__(self, table, name: str = "G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        _check_order(n)
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupError("table is not a square array of element indices")
        for g in range(n):
            if table[0][g] != g or table[g][0] != g:
                raise GroupError(f"element 0 is not a two-sided identity at {g}")
        _check_associative(table)
        # after the checks above: in a finite associative table a right inverse is two-sided
        inverses = []
        for a, row in enumerate(table):
            if 0 not in row:
                raise GroupError(f"element {a} has no two-sided inverse")
            inverses.append(row.index(0))
        self._settle(None, table, tuple(inverses), range(n), name)

    def _settle(self, parent, table, inverses, elements, name: str) -> None:
        """Set every field, with the classes on `elements` (ascending) each
        sorted, ordered by their smallest element and indexed by `class_index`."""
        classes = []
        class_index = {}
        for a in elements:
            if a not in class_index:
                orbit = sorted({table[table[x][a]][inverses[x]] for x in elements})
                for g in orbit:
                    class_index[g] = len(classes)
                classes.append(tuple(orbit))
        values = (parent, len(elements), table, inverses, elements, tuple(classes), class_index, name)
        for slot, value in zip(FiniteGroup.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1"""
        return self.table[self.table[g][a]][self.inverses[g]]

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, order={self.order}, classes={len(self.classes)})"


class Subgroup(FiniteGroup):
    """A subgroup kept in its parent's element indices: `elements` ascending,
    `table` and `inverses` shared with the parent, and classes of its own,
    ordered by their smallest element.  `g in H.class_index` tests membership.

    Nothing is checked here, because both producers give subgroups.
    `generated_subgroup` returns every word in the generators, reached by
    right multiplication from 0: it holds 0, the product of two words is a
    word, and g^-1 is the word g^(ord g - 1), so the words form a subgroup.
    `mackey_check` takes K meet gHg^-1, and the intersection of two
    subgroups is a subgroup.  The parent may itself be a Subgroup, as that
    intersection is taken inside K."""

    __slots__ = ()

    def __init__(self, parent: FiniteGroup, elements):
        elems = tuple(sorted(set(elements)))
        self._settle(parent, parent.table, parent.inverses, elems,
                     f"order {len(elems)} in {parent.name}")


def generated_subgroup(parent: FiniteGroup, generators) -> Subgroup:
    """Closure of the generators (always includes the identity): every right
    product of generators from the identity, which is closed under inverses
    too, as in a finite group g^-1 = g^(ord g - 1)."""
    return Subgroup(parent, _right_closure(parent.table, list(generators)))


def double_cosets(k: Subgroup, h: Subgroup) -> list[int]:
    """Canonical representatives (smallest element) of K\\G/H, G = h.parent."""
    parent = h.parent
    assigned = [False] * parent.order
    reps = []
    for g in range(parent.order):
        if assigned[g]:
            continue
        reps.append(g)
        for x in k.elements:
            xg = parent.table[x][g]
            for y in h.elements:
                assigned[parent.table[xg][y]] = True
    return reps


def _from_rule(name: str, elements, mul) -> FiniteGroup:
    """The group of `elements` under the product `mul`, element i at index
    i, so the identity comes first.  The order is read off `len(elements)`
    and capped before the table is built; a caller that must list its
    elements, or whose count overflows `len`, caps their number first."""
    _check_order(len(elements))
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup([[index[mul(a, b)] for b in elements] for a in elements], name)


def cyclic(n: int) -> FiniteGroup:
    """Z/n: 0..n-1 under addition mod n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_order(n)  # before len(range(n)), which overflows past sys.maxsize
    return _from_rule(f"C{n}", range(n), lambda a, b: (a + b) % n)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n: the rotations r^0..r^(n-1),
    then the reflections s r^0..s r^(n-1), each s^x r^i as the pair (x, i).
    As r^i s = s r^-i, (s^x r^i)(s^y r^j) is s^(x+y) r^(j+i) for y = 0 and
    s^(x+y) r^(j-i) for y = 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_order(2 * n)  # before the 2n pairs are listed
    return _from_rule(f"D{n}", [(x, i) for x in (0, 1) for i in range(n)],
                      lambda a, b: (a[0] ^ b[0], (b[1] - a[1] if b[0] else b[1] + a[1]) % n))


def symmetric(n: int) -> FiniteGroup:
    """S_n on {0..n-1}: the permutations in lexicographic order, the
    identity first, under (a∘b)(x) = a(b(x))."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric groups are provided for n <= 4")
    return _from_rule(f"S{n}", list(permutations(range(n))), lambda a, b: tuple(a[x] for x in b))


def _hamilton(p, q):
    """The product of two quaternions given by their coordinates over 1, i, j, k."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def quaternion() -> FiniteGroup:
    """Q8: 1, i, j, k, -1, -i, -j, -k under Hamilton's product."""
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return _from_rule("Q8", units + [tuple(-c for c in u) for u in units], _hamilton)


def builtin_group(name: str) -> FiniteGroup:
    """Constructors by name, in any case: C<n>, D<n>, S3, S4, Q8, with n in
    decimal digits that `int` converts, n >= 1 for C and n >= 2 for D; any
    other name is unknown."""
    key = name.strip().upper()
    if key == "Q8":
        return quaternion()
    if key in ("S3", "S4"):
        return symmetric(int(key[1]))
    try:
        n = int(key[1:]) if key[:1] in ("C", "D") and key[1:].isdecimal() else 0
    except ValueError:  # more digits than the interpreter's limit, far above the cap
        n = 0
    if key.startswith("C") and n >= 1:
        return cyclic(n)
    if key.startswith("D") and n >= 2:
        return dihedral(n)
    raise ValueError(f"unknown group name: {name}")


def _is_int(x) -> bool:
    return type(x) is int  # a JSON true or 1.0 is not an element index


def load_group(definition) -> FiniteGroup:
    """Build a group from a parsed JSON object with an integer "order", a
    "table" (nested rows or one row-major list of element indices) and an
    optional string "name"; raises GroupError on any other shape."""
    if not isinstance(definition, dict):
        raise GroupError("a group definition must be a JSON object")
    order, table = definition.get("order"), definition.get("table")
    name = definition.get("name", "G")
    if not _is_int(order) or order < 1:
        raise GroupError('"order" must be an integer >= 1')
    if not isinstance(name, str):
        raise GroupError('"name" must be a string')
    if not isinstance(table, list):
        raise GroupError('"table" must be a list')
    if len(table) == order and all(isinstance(r, list) for r in table):
        rows = table
    elif len(table) == order * order:
        rows = [table[i * order : (i + 1) * order] for i in range(order)]
    else:
        raise GroupError("row-major table length must be order**2")
    if not all(_is_int(x) for row in rows for x in row):
        raise GroupError("table entries must be integer element indices")
    return FiniteGroup(rows, name=name)
