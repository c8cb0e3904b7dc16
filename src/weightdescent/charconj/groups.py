"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Group laws are
verified exhaustively at load time, and conjugacy classes, subgroups and
double cosets are all computed by brute force; the order cap keeps that
cheap.
"""

from __future__ import annotations

MAX_ORDER = 48


class GroupError(ValueError):
    """The given table or subset does not satisfy the group laws."""


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise GroupError(f"order {n} exceeds the cap {MAX_ORDER}")


class FiniteGroup:
    __slots__ = ("order", "table", "inverses", "classes", "class_index", "name")

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
        for a in range(n):
            row_a = table[a]
            for b in range(n):
                ab = row_a[b]
                row_ab = table[ab]
                row_b = table[b]
                for c in range(n):
                    if row_ab[c] != row_a[row_b[c]]:
                        raise GroupError(f"associativity fails at triple ({a}, {b}, {c})")
        # after the checks above: in a finite associative table a right inverse is two-sided
        inverses = []
        for a, row in enumerate(table):
            if 0 not in row:
                raise GroupError(f"element {a} has no two-sided inverse")
            inverses.append(row.index(0))

        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverses", tuple(inverses))
        object.__setattr__(self, "name", name)
        self._compute_classes()

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def _compute_classes(self):
        n, table, inv = self.order, self.table, self.inverses
        seen = [False] * n
        classes = []
        class_index = [0] * n
        for a in range(n):
            if seen[a]:
                continue
            orbit = sorted({table[table[x][a]][inv[x]] for x in range(n)})
            idx = len(classes)
            for g in orbit:
                seen[g] = True
                class_index[g] = idx
            classes.append(tuple(orbit))
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "class_index", tuple(class_index))

    def conjugate(self, g: int, a: int) -> int:
        """g * a * g^-1"""
        return self.table[self.table[g][a]][self.inverses[g]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order}, classes={len(self.classes)})"


class Subgroup:
    """A verified subgroup: the subset in parent coordinates plus the same
    group relabelled 0..|H|-1 (index 0 is again the identity)."""

    __slots__ = ("parent", "elements", "group", "to_local")

    def __init__(self, parent: FiniteGroup, elements):
        elems = sorted(set(elements))
        if not elems or elems[0] != 0:
            raise GroupError("subgroup must contain the identity (element 0)")
        if any(not (0 <= g < parent.order) for g in elems):
            raise GroupError("subgroup contains indices outside the parent")
        to_local = {g: i for i, g in enumerate(elems)}
        table = []
        for a in elems:
            row = []
            for b in elems:
                ab = parent.table[a][b]
                if ab not in to_local:
                    raise GroupError(f"not closed under multiplication: ({a}, {b})")
                row.append(to_local[ab])
            table.append(row)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "to_local", to_local)
        object.__setattr__(self, "group", FiniteGroup(table))

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    @property
    def order(self) -> int:
        return self.group.order

    def __repr__(self):
        return f"Subgroup(order={self.order} in {self.parent.name})"


def generated_subgroup(parent: FiniteGroup, generators) -> Subgroup:
    """Closure of the generators (always includes the identity): every right
    product of generators from the identity, which is closed under inverses
    too, as in a finite group g^-1 = g^(ord g - 1)."""
    gens = list(generators)
    elems = {0}
    frontier = [0]
    while frontier:
        row = parent.table[frontier.pop()]
        for g in gens:
            if row[g] not in elems:
                elems.add(row[g])
                frontier.append(row[g])
    return Subgroup(parent, elems)


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
