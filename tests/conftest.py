"""Shared fixtures: seeded corpora, builtin ideals, and their resolutions,
each built once per session."""
from typing import Callable, NamedTuple

import pytest

from prunres.ideals import (
    cycle_ideal,
    example_4_1_ideal,
    path_ideal,
    random_corpus,
    rp2_ideal,
)
from prunres.monomials import MonomialIdeal
from prunres.morse import ChainComplex, morse_differential
from prunres.pruning import prune_lyubeznik, prune_simplicial, prune_taylor

CORPUS_SEED = 20250808
# the matchings whose Morse complexes are resolutions
METHODS = (prune_taylor, prune_simplicial, prune_lyubeznik)


class Resolution(NamedTuple):
    ideal: MonomialIdeal
    method: Callable
    complex: ChainComplex


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

