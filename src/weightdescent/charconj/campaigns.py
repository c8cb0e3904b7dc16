"""Seeded randomized verification campaigns over the built-in group suite.

Draws are deterministic given the seed, and the seed is embedded in every
report so a failing draw can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .characters import (
    BrauerSpec,
    BrauerSummand,
    ClassFunction,
    induce,
    inner_product,
    linear_character_of_cyclic,
    mackey_check,
    restrict,
    verify_conjugation_invariance,
)
from .cyclotomic import Cyclo, galois_exponents
from .groups import FiniteGroup, Subgroup, builtin_group, generated_subgroup

SUITE_NAMES = tuple(f"C{n}" for n in range(1, 13)) + ("S3", "S4", "D4", "Q8")

_CONDUCTOR_POOL = (1, 3, 4, 5, 8, 12)


def suite_groups(names=SUITE_NAMES) -> dict[str, FiniteGroup]:
    """The named builtin groups, keyed by each group's own name, so that a
    name typed in any case is reported as the group calls itself."""
    return {G.name: G for G in map(builtin_group, names)}


def random_cyclo(rng: random.Random) -> Cyclo:
    n = rng.choice(_CONDUCTOR_POOL)
    powers = [rng.randint(-3, 3) for _ in range(n)]
    return Cyclo(n, powers)


def random_class_function(rng: random.Random, group: FiniteGroup) -> ClassFunction:
    return ClassFunction.aligned(group, [random_cyclo(rng) for _ in group.classes])


def random_subgroup(rng: random.Random, group: FiniteGroup) -> Subgroup:
    gens = [rng.randrange(group.order) for _ in range(rng.randint(1, 2))]
    return generated_subgroup(group, gens)


@dataclass(frozen=True)
class CampaignReport:
    name: str
    seed: int
    draws: int
    groups: tuple[str, ...]
    checks_run: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_campaign(name: str, draws: int, seed: int, names, check) -> CampaignReport:
    """Run `check(rng, G)` `draws` times on each named group in turn, from one
    seeded stream; a check returns None or what broke."""
    rng = random.Random(seed)
    groups = suite_groups(names)
    failures = []
    checks = 0
    for group_name, G in groups.items():
        for i in range(draws):
            broke = check(rng, G)
            checks += 1
            if broke:
                failures.append(f"{group_name} draw {i}: {broke}")
    return CampaignReport(
        name=name,
        seed=seed,
        draws=draws,
        groups=tuple(groups),
        checks_run=checks,
        failures=tuple(failures),
    )


def _reciprocity_draw(rng: random.Random, G: FiniteGroup) -> str | None:
    H = random_subgroup(rng, G)
    chi = random_class_function(rng, H)
    psi = random_class_function(rng, G)
    if inner_product(induce(H, chi), psi) != inner_product(chi, restrict(H, psi)):
        return f"reciprocity broke on |H| = {H.order}"
    return None


def _mackey_draw(rng: random.Random, G: FiniteGroup) -> str | None:
    H = random_subgroup(rng, G)
    K = random_subgroup(rng, G)
    chi = random_class_function(rng, H)
    if not mackey_check(H, K, chi):
        return f"Mackey broke with |H| = {H.order}, |K| = {K.order}"
    return None


def frobenius_campaign(draws: int = 50, seed: int = 0, names=SUITE_NAMES) -> CampaignReport:
    """Random (H, chi, psi) draws checking (Ind chi, psi)_G = (chi, Res psi)_H."""
    return _suite_campaign("frobenius-reciprocity", draws, seed, names, _reciprocity_draw)


def mackey_campaign(draws: int = 50, seed: int = 0, names=SUITE_NAMES) -> CampaignReport:
    """Random (H, K, chi) draws checking the double-coset decomposition."""
    return _suite_campaign("mackey-decomposition", draws, seed, names, _mackey_draw)


def random_brauer_spec(rng: random.Random, group: FiniteGroup) -> BrauerSpec:
    """An integer combination of induced, twisted linear characters on
    random cyclic subgroups (so self products are genuine integers)."""
    summands = []
    for _ in range(rng.randint(1, 3)):
        H = generated_subgroup(group, [rng.randrange(group.order)])
        order = H.order
        chi = linear_character_of_cyclic(H, rng.randrange(order))
        twist = linear_character_of_cyclic(H, rng.randrange(order))
        coeff = rng.choice((-2, -1, 1, 2))
        summands.append(BrauerSummand(coeff, H, chi, twist))
    return BrauerSpec(group, tuple(summands))


def invariance_campaign(trials: int = 100, seed: int = 0, names=("S3", "S4", "Q8")) -> CampaignReport:
    """Randomized combinations: the conjugated self product must equal the
    Galois image of the original, exactly, and equal it outright whenever
    the original is rational."""
    rng = random.Random(seed)
    groups = suite_groups(names)
    failures = []
    checks = 0
    for i in range(trials):
        name = rng.choice(list(groups))
        G = groups[name]
        spec = random_brauer_spec(rng, G)
        units = galois_exponents(spec.conductor())
        j = rng.choice(units) if units else 1
        report = verify_conjugation_invariance(spec, j)
        checks += 1
        if not report.passed:
            failures.append(f"trial {i} on {name} with j = {j}")
    return CampaignReport(
        name="conjugation-invariance",
        seed=seed,
        draws=trials,
        groups=tuple(groups),
        checks_run=checks,
        failures=tuple(failures),
    )
