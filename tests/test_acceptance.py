"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The 5-cycle simplicial totals (1, 5, 6, 2) are proved impossible by
enumeration, and the optimum (1, 5, 7, 3) is checked instead.  The cycle
minimality test asserts the paper's claim for the 8-, 9- and 10-cycles in
the natural generator order and fails: there the pruned complexes are not
minimal, and its comment says what is known of why.
"""
import random
import time
from collections import Counter
from itertools import combinations

from prunres import linalg
from prunres.betti import betti_of_complex, hochster_betti, tor_betti
from prunres.ideals import (
    cycle_ideal,
    example_4_1_ideal,
    path_ideal,
    random_corpus,
    rp2_ideal,
)
from prunres.monomials import MonomialIdeal
from prunres.morse import (
    check_d_squared,
    check_exactness,
    check_minimal,
    critical_complex,
    morse_differential,
)
from prunres.pruning import (
    intersection_generators,
    partial_prune_intersection,
    prune_lyubeznik,
    prune_simplicial,
    prune_taylor,
    verify_matching,
)
from prunres.splitting import check_last_generator, check_pruned_splitting
from prunres.taylor import TaylorComplex
from conftest import pad_with_redundant
from reference import facets, lyubeznik_direct

SEED = 20250808
METHODS = (prune_taylor, prune_simplicial, prune_lyubeznik)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _ranks(I, matching):
    return critical_complex(I, matching, validate=False).ranks()


def _builtins():
    return [path_ideal(5), cycle_ideal(5), rp2_ideal(), example_4_1_ideal()]


def test_criterion_01_path5_diagrams():
    t0 = time.monotonic()
    I = path_ideal(5)
    pruned = betti_of_complex(critical_complex(I, prune_taylor(I), validate=False))
    ok = pruned.totals() == (1, 4, 4, 1)
    ok &= pruned.graded() == {(0, 0): 1, (1, 2): 4, (2, 3): 3, (2, 4): 1, (3, 5): 1}
    ok &= _ranks(I, prune_simplicial(I)) == (1, 4, 5, 2)
    ok &= _ranks(I, prune_lyubeznik(I)) == (1, 4, 6, 4, 1)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _report(1, "5-path diagrams", ok)


def test_criterion_02_cycle5_diagrams():
    t0 = time.monotonic()
    I = cycle_ideal(5)
    ok = _ranks(I, prune_taylor(I)) == (1, 5, 5, 1)
    simplicial = prune_simplicial(I)
    ok &= len(simplicial.sweeps) >= 2
    first_sweep_edges = simplicial.edges[: simplicial.sweeps[0]]
    ok &= len(first_sweep_edges) < len(simplicial.edges)
    ok &= _ranks(I, prune_lyubeznik(I)) == (1, 5, 9, 7, 2)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _report(2, "5-cycle diagrams (pruned, Lyubeznik, sweep count)", ok)


def _acyclic(faces):
    """Zero reduced homology over Q of the complex with these nonempty faces."""
    by_dim = {-1: [0]}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    index = {f: i for cells in by_dim.values() for i, f in enumerate(cells)}
    rank = {
        k: linalg.rank([{index[g]: s for g, s in facets(f)} for f in by_dim[k]], 0)
        for k in range(max(by_dim) + 1)
    }
    return all(
        len(cells) == rank.get(k, 0) + rank.get(k + 1, 0)
        for k, cells in by_dim.items()
    )


def _supports_resolution(tc, faces):
    """Bayer-Peeva-Sturmfels criterion: the complex resolves S/I over Q iff,
    for every b in the lcm lattice, the faces whose lcm divides b form an
    acyclic complex."""
    for b in {tc.exponents(m) for m in range(1, 1 << tc.r)}:
        below = [
            f for f in faces if all(x <= y for x, y in zip(tc.exponents(f), b))
        ]
        if not _acyclic(below):
            return False
    return True


def _subcomplexes(r, max_edges):
    """Every simplicial complex on all r vertices with at most max_edges
    edges, as a frozenset of its nonempty faces."""

    def extend(faces, dim):
        addable = [
            m
            for m in range(1 << r)
            if m.bit_count() == dim + 1 and all(g in faces for g, _ in facets(m))
        ]
        yield faces
        for k in range(1, len(addable) + 1):
            for chosen in combinations(addable, k):
                yield from extend(faces | frozenset(chosen), dim + 1)

    vertices = frozenset(1 << i for i in range(r))
    edges = [m for m in range(1 << r) if m.bit_count() == 2]
    for k in range(max_edges + 1):
        for chosen in combinations(edges, k):
            yield from extend(vertices | frozenset(chosen), 2)


def _f_vector(faces):
    counts = Counter(f.bit_count() - 1 for f in faces)
    return tuple(counts[d] for d in range(max(counts) + 1))


def test_criterion_02_cycle5_simplicial_totals_spec_value():
    # The stated target (1, 5, 6, 2) is unattainable, so the test proves that
    # and checks the optimum (1, 5, 7, 3) instead.  A simplicial pruning
    # leaves a subcomplex X of the simplex on the 5 generators, and its
    # totals are (1, f0, f1, f2).  X supports a resolution iff every X_{<=b}
    # is acyclic, for b in the lcm lattice (16 monomials for the 5-cycle).
    # There are 165 subcomplexes with 5 vertices, 6 edges and 2 triangles,
    # and none passes.  Among all 2,733 subcomplexes with at most 7 edges,
    # the only ones that pass are the 5 fan triangulations of the pentagon,
    # all with f-vector (5, 7, 3).  With 8 or more edges, acyclicity of X
    # gives f2 - f3 + f4 = f1 - 4 >= 4, and f3 >= f4, so X has at least 4
    # triangles.  Hence (1, 5, 7, 3) is the least possible, entry by entry.
    I = cycle_ideal(5)
    tc = TaylorComplex(I)
    # guard: the criterion must accept the program's complex and the full
    # Taylor simplex, or rejecting every candidate below would prove nothing
    survivors = [f for f in prune_simplicial(I).survivors() if f]
    assert _supports_resolution(tc, survivors)
    assert _supports_resolution(tc, range(1, 1 << I.r))

    candidates = list(_subcomplexes(I.r, 7))
    assert len(candidates) == 2733
    target = [X for X in candidates if _f_vector(X) == (5, 6, 2)]
    assert len(target) == 165
    supporting = [X for X in candidates if _supports_resolution(tc, X)]
    assert not any(_f_vector(X) == (5, 6, 2) for X in supporting)
    assert [_f_vector(X) for X in supporting] == [(5, 7, 3)] * 5

    totals = _ranks(I, prune_simplicial(I))
    assert _report(2, "5-cycle simplicial-pruned totals", totals == (1, 5, 7, 3))


def test_criterion_03_eleven_generator_ideal():
    t0 = time.monotonic()
    I = example_4_1_ideal()
    m = prune_taylor(I)
    ok = _ranks(I, m) == (1, 11, 49, 114, 148, 107, 40, 6)
    ok &= check_minimal(morse_differential(I, m, validate=False))
    ok &= _ranks(I, prune_lyubeznik(I)) == (
        1, 11, 54, 156, 294, 378, 336, 204, 81, 19, 2,
    )
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert _report(3, "eleven-generator ideal", ok)


def test_criterion_04_rp2():
    t0 = time.monotonic()
    I = rp2_ideal()
    tor0, tor2 = tor_betti(I, 0), tor_betti(I, 2)
    ok = tor0.totals() == (1, 10, 15, 6)
    ok &= tor2.totals() == (1, 10, 15, 7, 1)
    ok &= hochster_betti(I, 0).same_entries(tor0)
    ok &= hochster_betti(I, 2).same_entries(tor2)
    ok &= _ranks(I, prune_taylor(I)) == (1, 10, 15, 7, 1)
    ok &= _ranks(I, prune_lyubeznik(I)) == (1, 10, 27, 27, 9)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert _report(4, "projective-plane ideal", ok)


def test_criterion_05_matching_validity():
    corpus = _builtins() + random_corpus(200, seed=SEED)
    ok = True
    for I in corpus:
        for method in METHODS:
            if not verify_matching(I.r, method(I), I).all_ok:
                ok = False
    assert _report(5, "matching validity on corpus", ok)


def test_criterion_06_resolution_properties():
    corpus = _builtins() + random_corpus(200, seed=SEED)
    ok = True
    for I in corpus:
        for method in METHODS:
            C = morse_differential(I, method(I), validate=False)
            if not check_d_squared(C):
                ok = False
            for char in (0, 2, 3, 5):
                if not check_exactness(I, C, char):
                    ok = False
    assert _report(6, "d^2 = 0 and exactness on corpus", ok)


def test_criterion_07_redundant_generators():
    rng = random.Random(SEED)
    ok = True
    for I in random_corpus(100, seed=SEED + 1):
        padded = pad_with_redundant(I, rng, rng.randint(1, 3))
        a = betti_of_complex(critical_complex(I, prune_taylor(I), validate=False))
        b = betti_of_complex(
            critical_complex(padded, prune_taylor(padded), validate=False)
        )
        if not a.same_entries(b):
            ok = False
    assert _report(7, "redundant-generator invariance", ok)


def test_criterion_08_lyubeznik_equivalence():
    corpus = _builtins() + random_corpus(200, seed=SEED)
    ok = all(prune_lyubeznik(I).survivors() == lyubeznik_direct(I) for I in corpus)
    assert _report(8, "Lyubeznik pruning equals direct construction", ok)


def test_criterion_09_oracle_agreement():
    corpus = random_corpus(200, seed=SEED) + random_corpus(
        60, seed=SEED + 2, squarefree=True
    )
    squarefree = [
        I for I in corpus if all(g.is_squarefree for g in I.generators)
    ]
    assert squarefree
    ok = True
    for I in squarefree:
        for char in (0, 2, 3):
            if not tor_betti(I, char).same_entries(hochster_betti(I, char)):
                ok = False
    assert _report(9, "Tor oracle equals Hochster oracle", ok)


def test_criterion_10_splitting_suite():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 9):
        I = path_ideal(n)
        if not check_last_generator(I):
            ok = False
        rep = check_pruned_splitting(I, I.r - 1)
        if not (rep.is_pruned_splitting and rep.residuals_zero):
            ok = False
    # the closing-edge split of a cycle prunes at the last step once the
    # cycle is long enough for cells to survive to it (n >= 5)
    for n in range(5, 9):
        if check_last_generator(cycle_ideal(n)):
            ok = False
    rep = check_pruned_splitting(cycle_ideal(5), 3)
    ok &= rep.is_pruned_splitting and rep.residuals_zero
    for n in range(3, 11):
        I = path_ideal(n)
        if not check_minimal(morse_differential(I, prune_taylor(I), validate=False)):
            ok = False
    for n in range(3, 8):
        I = cycle_ideal(n)
        if not check_minimal(morse_differential(I, prune_taylor(I), validate=False)):
            ok = False
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert _report(10, "splitting suite (paths, cycles to 7, vertex split)", ok)


def test_criterion_10_cycle_minimality_8_to_10_spec_value():
    # The paper: "the pruned resolution is always minimal in the case of
    # cycles and paths".  This fails for n = 8, 9, 10 in the natural order
    # of cycle_ideal (closing edge last): the 8-cycle prunes to ranks
    # (1, 8, 20, 24, 13, 2), while Tor gives (1, 8, 20, 24, 12, 1), and the
    # Hochster oracle agrees with Tor.  prune_taylor follows the step rule of
    # its module docstring; test_pruning's independent re-implementation of
    # that rule gives the same matchings on these cycles.  The sweep's step
    # order is the generator order, and PAPER.md holds only the abstract,
    # which does not say which order the claim uses.  Until the paper's own
    # pruning of a cycle is in the repository, the claim is asserted as
    # stated, in the natural order.
    excess = {}
    for n in (8, 9, 10):
        I = cycle_ideal(n)
        C = morse_differential(I, prune_taylor(I), validate=False)
        if not check_minimal(C):
            excess[n] = C.ranks()
    ok = not excess
    assert _report(10, "cycle minimality n=8..10", ok), f"not minimal: {excess}"


def test_criterion_11_partial_pruning():
    ok = True
    checked = 0
    for I in random_corpus(50, seed=SEED + 3, max_vars=6, max_gens=6):
        for s in range(1, I.r):
            t = I.r - s
            if s > 3 or t > 3:
                continue
            J = MonomialIdeal(I.variables, I.generators[:s])
            K = MonomialIdeal(I.variables, I.generators[s:])
            matching = partial_prune_intersection(J, K)
            grid = intersection_generators(J, K)
            tcg = TaylorComplex(grid)
            surv = Counter(
                tcg.exponents(f) for f in matching.survivors() if f
            )
            tc = TaylorComplex(I)
            jm = (1 << s) - 1
            km = ((1 << I.r) - 1) & ~jm
            direct = Counter(
                tc.exponents(f)
                for f in tc.faces()
                if f and (f & jm) and (f & km)
            )
            checked += 1
            if surv != direct:
                ok = False
    ok &= checked > 0
    assert _report(11, "partial pruning matches the block complement", ok)


def test_criterion_12_rank_domination():
    corpus = _builtins() + random_corpus(200, seed=SEED)
    ok = True
    for I in corpus:
        m = prune_taylor(I)
        C = morse_differential(I, m, validate=False)
        table = betti_of_complex(C)
        for char in (0, 2, 3):
            tor = tor_betti(I, char)
            if not tor.leq(table):
                ok = False
            if table.same_entries(tor) != check_minimal(C, char):
                ok = False
    assert _report(12, "rank domination and minimality equivalence", ok)
