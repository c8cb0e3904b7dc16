"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Group laws are
verified once per table, when a `FiniteGroup` is built: associativity by
Light's test on a generating set, which is complete, and inverses by
scanning each row.  A `Subgroup` is a subset of its parent's table, in the
parent's indices, and checks nothing, as its producers only make
subgroups.  Conjugacy classes, subgroups and double cosets are all
computed by brute force; the order cap keeps that cheap.
"""

from __future__ import annotations

MAX_ORDER = 48


class GroupError(ValueError):
    """The given table does not satisfy the group laws, or its definition
    is malformed."""


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise GroupError(f"order {n} exceeds the cap {MAX_ORDER}")


def _conjugacy_classes(table, inverses, elements):
    """The classes of the group on `elements` (ascending) under `table`, each
    sorted and ordered by its smallest element, and a dict from each element
    to the index of its class."""
    classes = []
    class_index = {}
    for a in elements:
        if a not in class_index:
            orbit = sorted({table[table[x][a]][inverses[x]] for x in elements})
            for g in orbit:
                class_index[g] = len(classes)
            classes.append(tuple(orbit))
    return tuple(classes), class_index


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


def _freeze(obj, **attrs) -> None:
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


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
    So T contains every left-bracketed word in A, which is every element."""

    __slots__ = ("order", "table", "inverses", "elements", "classes", "class_index", "name")

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
        inverses = tuple(inverses)
        classes, class_index = _conjugacy_classes(table, inverses, range(n))
        _freeze(self, order=n, table=table, inverses=inverses, elements=range(n),
                classes=classes, class_index=class_index, name=name)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1"""
        return self.table[self.table[g][a]][self.inverses[g]]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order}, classes={len(self.classes)})"


class Subgroup:
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

    __slots__ = ("parent", "order", "table", "inverses", "elements", "classes", "class_index", "name")

    def __init__(self, parent: FiniteGroup | Subgroup, elements):
        elems = tuple(sorted(set(elements)))
        classes, class_index = _conjugacy_classes(parent.table, parent.inverses, elems)
        _freeze(self, parent=parent, order=len(elems), table=parent.table,
                inverses=parent.inverses, elements=elems, classes=classes,
                class_index=class_index, name=f"order {len(elems)} in {parent.name}")

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    def __repr__(self):
        return f"Subgroup({self.name})"


def generated_subgroup(parent: FiniteGroup | Subgroup, generators) -> Subgroup:
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


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_order(n)  # before the n-by-n table is built
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.  Elements 0..n-1 are the
    rotations r^i, elements n..2n-1 the reflections s r^i."""
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_order(2 * n)
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n                    # r^i r^j
            table[i][n + j] = n + (j - i) % n            # r^i (s r^j) = s r^(j-i)
            table[n + i][j] = n + (i + j) % n            # (s r^i) r^j
            table[n + i][n + j] = (j - i) % n            # (s r^i)(s r^j) = r^(j-i)
    return FiniteGroup(table, name=f"D{n}")


def _perm_mul(a, b):
    return tuple(a[x] for x in b)


def symmetric(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; permutations enumerated lexicographically so the
    identity lands at index 0."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric groups are provided for n <= 4")
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_perm_mul(a, b)] for b in perms] for a in perms]
    return FiniteGroup(table, name=f"S{n}")


def quaternion() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}."""
    # (index, sign) encoding over basis 1, i, j, k
    basis_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    # elements: 0..3 -> 1, i, j, k; 4..7 -> -1, -i, -j, -k
    def encode(unit, sign):
        return unit if sign == 1 else unit + 4

    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            ua, sa = a % 4, 1 if a < 4 else -1
            ub, sb = b % 4, 1 if b < 4 else -1
            u, s = basis_mul[(ua, ub)]
            table[a][b] = encode(u, s * sa * sb)
    return FiniteGroup(table, name="Q8")


def builtin_group(name: str) -> FiniteGroup:
    """Constructors by name, in any case: C<n>, D<n>, S3, S4, Q8."""
    key = name.strip().upper()
    if key == "Q8":
        return quaternion()
    if key in ("S3", "S4"):
        return symmetric(int(key[1]))
    if key.startswith("C") and key[1:].isdigit():
        return cyclic(int(key[1:]))
    if key.startswith("D") and key[1:].isdigit():
        return dihedral(int(key[1:]))
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
