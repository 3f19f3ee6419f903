"""The three workloads: their grammar-text inputs, the timed pass and its checks.

A pass runs every input through the library's public API, one call at a
time, and checks each result as it goes.  Every library call is one
operation; it fails when it raises or when the invariant on its result does
not hold.  The outputs of each input are hashed into one digest per input,
which is compared with the pinned digests (default seed) or with the first
pass of the run (any other seed), and each comparison is one more operation.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from time import perf_counter

DEFAULT_SEED = 20250808

# method name -> the pruning sweep that builds its matching
SWEEPS = {
    "pruned": "prune_taylor",
    "simplicial": "prune_simplicial",
    "lyubeznik": "prune_lyubeznik",
}

RESOLVE, VALIDATE, CHECK = "resolve", "validate", "check"
PROBE_AFTER_S = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    exact_chars: tuple[int, ...]
    tor_chars: tuple[int, ...]
    # hochster_betti on squarefree ideals and check_pruned_splitting at every
    # split point
    extras: bool


WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of tiny calls (r <= 7): per-call overhead and rebuilt
        # degree tables dominate.  The only workload touching splitting and
        # hochster_betti.
        Workload("corpus", ("pruned", "simplicial", "lyubeznik"), (0, 2, 3, 5), (0, 2), True),
        # example-4-1: about 95% of the time is check_exactness; chars 0 and 2
        # put rank_rational and rank_mod side by side.
        Workload("strands", ("pruned", "simplicial", "lyubeznik"), (0, 2), (0, 2), False),
        # cycle:15: work scales with 2^r in taylor, pruning and morse, while
        # linalg is small.  Pruned survivors are sparse, Lyubeznik dense.
        Workload("wide", ("pruned", "lyubeznik"), (), (0,), False),
    )
}

# Generators as ((variable, exponent), ...), variables numbered from 1.
EXAMPLE_4_1 = (7, (
    ((1, 4),), ((2, 4),), ((2, 2), (3, 2)), ((3, 4),), ((4, 4),),
    ((1, 1), (4, 2), (5, 1)), ((5, 4),), ((2, 2), (6, 2)), ((6, 4),),
    ((4, 2), (7, 2)), ((7, 4),),
))


def cycle(n: int):
    """Edge ideal of the n-cycle, closing edge last."""
    return n, tuple(((i, 1), (i % n + 1, 1)) for i in range(1, n + 1))


def text(n: int, gens, names: list[int]) -> str:
    """Grammar text of generators given as ((variable, exponent), ...), with
    variable v written as x<names[v-1]>."""
    mono = lambda g: "*".join(
        f"x{names[v - 1]}" + (f"^{e}" if e > 1 else "") for v, e in g
    )
    ring = " ".join(f"x{i}" for i in range(1, n + 1))
    return f"ring {ring}; gens {', '.join(mono(g) for g in gens)}"


def base_ideals(ideals_mod, name: str):
    """The workload's ideals before renaming, as (n, generators)."""
    if name == "corpus":
        corpus = ideals_mod.random_corpus(200, DEFAULT_SEED) + ideals_mod.random_corpus(
            60, DEFAULT_SEED + 2, squarefree=True
        )
        return [
            (I.nvars, [[(v + 1, e) for v, e in enumerate(g.exponents) if e]
                       for g in I.generators])
            for I in corpus
        ]
    return [EXAMPLE_4_1 if name == "strands" else cycle(15)]


def input_texts(ideals_mod, name: str, seed: int) -> list[str]:
    """The workload's inputs for one seed, as grammar text: each ideal with
    its variables renamed by a seeded permutation (none for the default
    seed).  Generator order, and so every matching, stays fixed."""
    rng = random.Random(seed)
    out = []
    for n, gens in base_ideals(ideals_mod, name):
        names = list(range(1, n + 1))
        if seed != DEFAULT_SEED:
            rng.shuffle(names)
        out.append(text(n, gens, names))
    return out


# The outputs each digest covers, as a stream of small parts, so hashing a
# large complex adds little to the peak memory of the run.


def edge_parts(m):
    yield m.edges


def complex_parts(C):
    yield C.ranks()
    yield from C.degrees
    for d in C.diffs:
        yield len(d)
        for key in sorted(d):
            yield key, d[key]


def table_parts(T):
    yield sorted((k, v) for k, v in T.multigraded.items() if v)


def split_parts(rep):
    residuals = None if rep.residuals is None else sorted(rep.residuals.items())
    yield (
        rep.s,
        rep.is_pruned_splitting,
        rep.edge_regions,
        residuals,
        rep.grid_matches_minimal,
    )


class Tally:
    """Times, operations and digests of one pass."""

    def __init__(self, probe=None) -> None:
        # With a speed probe (speed.Probe), times leave out the probes, and
        # the probe samples that arrive during an operation are filed under
        # its kind.  An operation of PROBE_AFTER_S or more that no probe
        # interrupted gets one sample right after it, so short operations
        # still carry the speed around them.
        self.probe = probe
        self.clock = probe.clock if probe else perf_counter
        self._samples = probe.samples if probe else []
        self.seconds = {RESOLVE: 0.0, VALIDATE: 0.0, CHECK: 0.0}
        self.probes: dict[str, list[float]] = {RESOLVE: [], VALIDATE: []}
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self._hash = hashlib.sha256()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def call(self, kind: str, fn, *args, ok=None, **kw):
        """One operation: time `fn(*args)` into `kind`; None if it raised.

        `ok(result)` is the invariant the result must satisfy; it is
        evaluated outside the operation's time.
        """
        self.attempted += 1
        n0 = len(self._samples)
        t0 = self.clock()
        try:
            out = fn(*args, **kw)
        except Exception as exc:  # a failed operation, counted and reported
            self._took(kind, t0, n0)
            self.fail(f"{fn.__name__}: {exc!r}")
            return None
        self._took(kind, t0, n0)
        if ok is not None and not ok(out):
            self.fail(f"{fn.__name__}: invariant broken")
        return out

    def _took(self, kind: str, t0: float, n0: int) -> None:
        took = self.clock() - t0
        self.seconds[kind] += took
        if self.probe and len(self._samples) == n0 and took >= PROBE_AFTER_S:
            self.probe.sample()
        self.probes[kind] += self._samples[n0:]

    def keep(self, parts, obj) -> None:
        """Fold `parts(obj)` into the current input's digest (check time)."""
        t0 = self.clock()
        for part in parts(obj):
            self._hash.update(repr(part).encode())
        self.seconds[CHECK] += self.clock() - t0

    def close_item(self, reference: list[str] | None) -> None:
        t0 = self.clock()
        k = len(self.digests)
        digest = self._hash.hexdigest()[:16]
        self.digests.append(digest)
        self._hash = hashlib.sha256()
        if reference is not None:
            self.attempted += 1
            expected = reference[k] if k < len(reference) else None
            if digest != expected:
                self.fail(f"input {k}: digest {digest} != expected {expected}")
        self.seconds[CHECK] += self.clock() - t0


def run_item(mods, wl: Workload, I, t: Tally) -> None:
    """The workload's pipeline on one ideal."""
    pruning, morse, betti = mods.pruning, mods.morse, mods.betti
    tables = []
    for method in wl.methods:
        m = t.call(RESOLVE, getattr(pruning, SWEEPS[method]), I)
        if m is None:
            continue
        t.keep(edge_parts, m)
        t.call(VALIDATE, pruning.verify_matching, I.r, m, I, ok=lambda rep: rep.all_ok)
        C = t.call(RESOLVE, morse.morse_differential, I, m, validate=False)
        if C is None:
            continue
        t.keep(complex_parts, C)
        t.call(VALIDATE, morse.check_d_squared, C, ok=bool)
        for c in wl.exact_chars:
            t.call(VALIDATE, morse.check_exactness, I, C, c, ok=bool)
        T = t.call(RESOLVE, betti.betti_of_complex, C)
        if T is None:
            continue
        t.keep(table_parts, T)
        tables.append(T)

    squarefree = wl.extras and all(g.is_squarefree for g in I.generators)
    for c in wl.tor_chars:
        tor = t.call(
            VALIDATE, betti.tor_betti, I, c,
            ok=lambda tor: all(tor.leq(T) for T in tables),
        )
        if tor is None:
            continue
        t.keep(table_parts, tor)
        if squarefree:
            h = t.call(VALIDATE, betti.hochster_betti, I, c, ok=tor.same_entries)
            if h is not None:
                t.keep(table_parts, h)

    if wl.extras:
        for s in range(1, I.r):
            rep = t.call(VALIDATE, mods.splitting.check_pruned_splitting, I, s)
            if rep is not None:
                t.keep(split_parts, rep)


def run_pass(mods, wl: Workload, ideals: list, reference: list[str] | None,
             probe=None) -> Tally:
    """One timed pass over all inputs; `wall` excludes the digest work."""
    t = Tally(probe)
    start = t.clock()
    for I in ideals:
        run_item(mods, wl, I, t)
        t.close_item(reference)
    t.wall = t.clock() - start - t.seconds[CHECK]
    return t
