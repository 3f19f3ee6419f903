"""Shared fixtures: seeded corpora, builtin ideals, and their resolutions,
each built once per session; and `pad_with_redundant`, which adds redundant
generators to an ideal."""
import random
from typing import Callable, NamedTuple

import pytest

from prunres.ideals import (
    cycle_ideal,
    example_4_1_ideal,
    path_ideal,
    random_corpus,
    rp2_ideal,
)
from prunres.monomials import Monomial, MonomialIdeal
from prunres.morse import ChainComplex, morse_differential
from prunres.pruning import prune_lyubeznik, prune_simplicial, prune_taylor

CORPUS_SEED = 20250808
# the matchings whose Morse complexes are resolutions
METHODS = (prune_taylor, prune_simplicial, prune_lyubeznik)


class Resolution(NamedTuple):
    ideal: MonomialIdeal
    method: Callable
    complex: ChainComplex


def pad_with_redundant(
    I: MonomialIdeal, rng: random.Random, extra: int
) -> MonomialIdeal:
    """Insert 1..extra redundant generators (multiples of existing ones) at
    random positions, preserving the relative order of the originals."""
    gens = list(I.generators)
    n = I.nvars
    for _ in range(extra):
        base = rng.choice(I.generators)
        bump = [0] * n
        bump[rng.randrange(n)] = rng.randint(0, 2)
        new = Monomial(tuple(a + b for a, b in zip(base.exponents, bump)))
        gens.insert(rng.randint(0, len(gens)), new)
    return MonomialIdeal(I.variables, tuple(gens))


def resolutions(ideals) -> list[Resolution]:
    """The Morse complex of each ideal under each of METHODS, ideal by ideal.

    The checks store what they learn on a complex, so a test that counts
    what a check does runs it on a fresh copy."""
    return [
        Resolution(I, method, morse_differential(I, method(I), validate=False))
        for I in ideals
        for method in METHODS
    ]


@pytest.fixture(scope="session")
def corpus200():
    return random_corpus(200, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus40():
    return random_corpus(40, seed=CORPUS_SEED + 1)


@pytest.fixture(scope="session")
def squarefree_corpus():
    return random_corpus(60, seed=CORPUS_SEED + 2, squarefree=True)


@pytest.fixture(scope="session")
def builtins():
    return {
        "path:5": path_ideal(5),
        "cycle:5": cycle_ideal(5),
        "rp2": rp2_ideal(),
        "example-4-1": example_4_1_ideal(),
    }


@pytest.fixture(scope="session")
def path5():
    return path_ideal(5)


@pytest.fixture(scope="session")
def cycle5():
    return cycle_ideal(5)


@pytest.fixture(scope="session")
def resolutions200(corpus200):
    return resolutions(corpus200)


@pytest.fixture(scope="session")
def resolutions40(corpus40):
    return resolutions(corpus40)


@pytest.fixture(scope="session")
def builtin_resolutions(builtins):
    """name -> the resolutions of that builtin ideal."""
    return {name: resolutions([I]) for name, I in builtins.items()}


@pytest.fixture(scope="session")
def cycle_resolutions():
    """n -> the resolutions of the n-cycle, for n = 3..12."""
    return {n: resolutions([cycle_ideal(n)]) for n in range(3, 13)}

