"""Class functions with exact cyclotomic values.

Induction, restriction, inner products, the Mackey double-coset identity,
and integer combinations of induced twisted characters, all over `Cyclo`
values so that Galois conjugation acts exactly.  The inner product pairs
chi(g) with psi(g^-1), which agrees with the usual Hermitian product on
characters and never needs complex floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import Cyclo, weighted_sum, weighted_sum_of_products
from .groups import FiniteGroup, Subgroup, double_cosets


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class ClassFunction:
    """A function on a group or subgroup, constant on conjugacy classes, with
    values in a common cyclotomic field: one `Cyclo` per class, all at one
    conductor.

    `aligned` builds one from outside values.  The record's own constructor
    checks nothing, because each producer's values already hold the
    invariant:
    - `__mul__` multiplies two class functions of the same group class
      by class, and each product of a value at n1 and one at n2 lies at
      lcm(n1, n2);
    - `galois` maps each value to one at its own conductor;
    - `restrict` takes each K-class's value from chi, so every value
      is at chi's conductor;
    - `_induced_sum` builds one value per class, each a `weighted_sum`
      at the conductor it is given;
    - `linear_character_of_cyclic` gives each class of a cyclic group
      of order n a power of zeta_n, at n.
    Groups define no `__eq__`, so equal class functions share one group
    object."""

    group: FiniteGroup
    values: tuple[Cyclo, ...]

    @classmethod
    def aligned(cls, group: FiniteGroup, values) -> "ClassFunction":
        """The class function with these values, one per class of `group`,
        each coerced to a `Cyclo` and embedded at the lcm of their
        conductors."""
        values = [Cyclo._coerce(v) for v in values]
        if len(values) != len(group.classes):
            raise CharacterError(
                f"expected {len(group.classes)} class values, got {len(values)}"
            )
        n = lcm(*(v.conductor for v in values))
        return cls(group, tuple(v.to_conductor(n) for v in values))

    @property
    def conductor(self) -> int:
        return self.values[0].conductor

    def value(self, g: int) -> Cyclo:
        return self.values[self.group.class_index[g]]

    def _same_group(self, other: "ClassFunction") -> None:
        if self.group is not other.group:
            raise CharacterError("class functions live on different groups")

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(self.group, tuple(a * b for a, b in zip(self.values, other.values)))

    def galois(self, j: int) -> "ClassFunction":
        return ClassFunction(self.group, tuple(v.galois(j) for v in self.values))


def linear_character_of_cyclic(group: FiniteGroup, a: int = 1) -> ClassFunction:
    """The degree-1 character g^i -> zeta^(a i) of a cyclic group, taken on
    its smallest generator.  The group is abelian, so each class is one element."""
    n = group.order
    for gen in group.elements:
        powers, x = [0], gen
        while x != 0:
            powers.append(x)
            x = group.table[x][gen]
        if len(powers) == n:
            break
    else:
        raise CharacterError(f"{group.name} is not cyclic")
    values = [None] * n
    for i, x in enumerate(powers):
        values[group.class_index[x]] = Cyclo.zeta(n, a * i % n)
    return ClassFunction(group, tuple(values))


def _induced_sum(G: FiniteGroup, parts, conductor: int) -> ClassFunction:
    """The class function on G that is the sum of w * Ind_H^G f over the
    list of parts (H, values, w): H a subgroup of G, `values` f's value on each
    H-class, at `conductor`, and w an integer.

    For g in a G-class c, x -> x^-1 g x takes each member of c |G|/|c|
    times, so (Ind f)(g) = |G|/(|H| |c|) times the sum of f over c's
    members in H, which counts how many fall in each H-class.  With L the
    lcm of the orders |H|, the whole sum at c is |G|/(L |c|) times a sum
    with integer weights w * L/|H| * count: one `weighted_sum` per class."""
    big_l = lcm(*(H.order for H, _, _ in parts))
    terms = [[] for _ in G.classes]
    for H, values, w in parts:
        w *= big_l // H.order
        for cls_terms, cls_elems in zip(terms, G.classes):
            counts = {}
            for g in cls_elems:
                c = H.class_index.get(g)
                if c is not None:
                    counts[c] = counts.get(c, 0) + 1
            cls_terms.extend((w * k, values[c]) for c, k in counts.items())
    return ClassFunction(G, tuple(
        weighted_sum(conductor, cls_terms, Fraction(G.order, big_l * len(cls_elems)))
        for cls_terms, cls_elems in zip(terms, G.classes)
    ))


def induce(H: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Induced class function on G = H.parent: (Ind chi)(g) = (1/|H|) sum
    over x in G with x^-1 g x in H of chi(x^-1 g x); computed classwise by
    `_induced_sum`, one `weighted_sum` per class at chi's conductor."""
    if chi.group is not H:
        raise CharacterError("character is not defined on the subgroup")
    return _induced_sum(H.parent, [(H, chi.values, 1)], chi.conductor)


def restrict(K: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Restriction to a subgroup: each K-class takes the value of its
    containing G-class, G = K.parent."""
    if chi.group is not K.parent:
        raise CharacterError("class function is not defined on the ambient group")
    return ClassFunction(K, tuple(chi.value(c[0]) for c in K.classes))


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Cyclo:
    """(1/|G|) sum over g of chi(g) psi(g^-1), computed with class sizes:
    both functions' values at the lcm of their conductors, and one
    `weighted_sum_of_products` over the classes."""
    chi._same_group(psi)
    G = chi.group
    n = lcm(chi.conductor, psi.conductor)
    terms = []
    for idx, cls_elems in enumerate(G.classes):
        inv_idx = G.class_index[G.inverses[cls_elems[0]]]
        terms.append((len(cls_elems), chi.values[idx].to_conductor(n),
                      psi.values[inv_idx].to_conductor(n)))
    return weighted_sum_of_products(n, terms, Fraction(1, G.order))


def mackey_check(H: Subgroup, K: Subgroup, chi: ClassFunction) -> bool:
    """True iff Res_K Ind_H^G chi = sum over double cosets KgH of
    Ind_{K meet gHg^-1}^K (x -> chi(g^-1 x g)), exactly, with G = H.parent."""
    G = H.parent
    lhs = restrict(K, induce(H, chi))
    parts = []
    for g in double_cosets(K, H):
        conj_h = {G.conjugate(g, x) for x in H.elements}
        L = Subgroup(K, [x for x in K.elements if x in conj_h])
        # chi^g(x) = chi(g^-1 x g) at one x per class of L = K meet gHg^-1
        parts.append((L, [chi.value(G.conjugate(G.inverses[g], c[0])) for c in L.classes], 1))
    return lhs == _induced_sum(K, parts, chi.conductor)


@dataclass(frozen=True)
class BrauerSummand:
    """One term n * Ind_H^G (chi * twist) of an integer combination."""

    coefficient: int
    subgroup: Subgroup
    character: ClassFunction
    twist: ClassFunction


@dataclass(frozen=True)
class BrauerSpec:
    """An integer combination of induced, twisted subgroup characters.

    Its one producer, `campaigns.random_brauer_spec`, takes each `H = <g>`
    inside `group` and both `chi` and the twist from
    `linear_character_of_cyclic(H, .)`, so both live on `H`.  The twist
    `g^i -> zeta^(b i)` is multiplicative because `i -> b i mod |H|` is
    additive, and so is each of its Galois images.  So nothing about a
    summand is checked here."""

    group: FiniteGroup
    summands: tuple[BrauerSummand, ...]

    def conductor(self) -> int:
        n = 1
        for s in self.summands:
            n = lcm(n, s.character.conductor, s.twist.conductor)
        return n


def brauer_combination(spec: BrauerSpec, j: int = 1) -> ClassFunction:
    """The virtual class function sum of n_i * Ind((chi_i * twist_i)^gamma),
    where gamma sends each root of unity to its j-th power: each summand is
    conjugated on its subgroup, and the induced sum is taken by
    `_induced_sum` at the spec conductor, one `weighted_sum` per class."""
    n = spec.conductor()
    parts = []
    for s in spec.summands:
        twisted = (s.character * s.twist).galois(j)
        parts.append((s.subgroup, [v.to_conductor(n) for v in twisted.values], s.coefficient))
    return _induced_sum(spec.group, parts, n)


@dataclass(frozen=True)
class InvarianceReport:
    j: int
    self_product: str
    conjugated_self_product: str
    galois_of_self_product: str
    equal_under_galois: bool
    rational: bool
    equal_exactly: bool | None

    @property
    def passed(self) -> bool:
        return self.equal_under_galois and (self.equal_exactly is not False)


def verify_conjugation_invariance(spec: BrauerSpec, j: int) -> InvarianceReport:
    """Build the combination and its Galois conjugate and compare self
    inner products: the conjugated product must equal the Galois image of
    the original, and equal it exactly whenever the original is rational."""
    n = spec.conductor()
    if gcd(j, n) != 1:
        raise CharacterError(f"{j} is not coprime to the spec conductor {n}")
    rho = brauer_combination(spec)
    rho_gamma = brauer_combination(spec, j)
    ip = inner_product(rho, rho)
    ip_gamma = inner_product(rho_gamma, rho_gamma)
    galois_ip = ip.galois(j)  # ip's conductor divides the spec conductor
    equal_under = ip_gamma == galois_ip
    rational = ip.is_rational()
    equal_exactly = (ip_gamma == ip) if rational else None
    return InvarianceReport(
        j=j,
        self_product=str(ip),
        conjugated_self_product=str(ip_gamma),
        galois_of_self_product=str(galois_ip),
        equal_under_galois=equal_under,
        rational=rational,
        equal_exactly=equal_exactly,
    )

