"""Every mutant of the library that the tests are recorded to catch, each
applied alone to a copy of the tree: each must still make its tests fail.

    python scripts/mutants.py

It takes no options.  It copies `src/`, `tests/` and `pyproject.toml` into
a temporary directory and runs the pytest nodes of all mutants once on the
unchanged copy, where they must pass.  Then, for each mutant, it replaces
its `old` text, which must occur exactly once in its file, by `new`, runs
its `nodes`, and restores the file.  It exits 1 when a mutant survives,
when its text no longer occurs exactly once, or when a node fails on the
unchanged copy, and 0 when every mutant is caught.  Only the standard
library is imported here; the nodes run under pytest.

Each mutant's nodes include a test that draws nothing at random, so a
verdict does not change from run to run; Hypothesis runs with a fixed
seed and no examples saved by an earlier run all the same.

`recorded` names the commit whose notes first reported the mutant caught.
A mutant of code that was later rewritten is kept in the form it takes
in the code that does the same job now.  A new optimisation adds here the
mutants its tests catch (see the docstring of `tests/reference.py`).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINALG = "src/prunres/linalg.py"
MORSE = "src/prunres/morse.py"
PRUNING = "src/prunres/pruning.py"
TAYLOR = "src/prunres/taylor.py"
BETTI = "src/prunres/betti.py"
SPLITTING = "src/prunres/splitting.py"
CLI = "src/prunres/cli.py"

T_MORSE = "tests/test_morse.py::"
T_LINALG = "tests/test_linalg.py::"
T_PRUNING = "tests/test_pruning.py::"
T_FLOW = "tests/test_flow_graph.py::"
T_TAYLOR = "tests/test_taylor.py::"
T_BETTI = "tests/test_betti.py::"
T_SPLITTING = "tests/test_splitting.py::"
T_CLI = "tests/test_cli.py::"

MUTANTS = [
    # --- pruning sweeps ----------------------------------------------------
    {
        "what": "the sweep steps taken in reverse order",
        "file": PRUNING,
        "old": "    for j, mask in enumerate(masks):\n        w = 1 << j\n",
        "new": "    for j, mask in reversed(list(enumerate(masks))):\n        w = 1 << j\n",
        "recorded": "345af22",
        "nodes": [T_PRUNING + "TestPruneTaylor::test_matches_independent_step_rule"],
    },
    {
        "what": "a lower end pruned without its partner alive",
        "file": PRUNING,
        "old": "cand = alive & alive >> w & mask",
        "new": "cand = alive & mask",
        "recorded": "345af22 db68fef",
        "nodes": [
            T_PRUNING + "TestPruneTaylor::test_matches_independent_step_rule",
            T_PRUNING + "TestPruneTaylor::test_path5_trace",
        ],
    },
    {
        "what": "a step's edges recorded out of the order of sigma",
        "file": PRUNING,
        "old": "            for sigma in indices_of(low)\n        )",
        "new": "            for sigma in reversed(indices_of(low))\n        )",
        "recorded": "23df57b",
        "nodes": [
            T_PRUNING + "TestPruneTaylor::test_sweep_records_each_step_sorted",
            T_PRUNING + "TestPruneTaylor::test_path5_trace",
        ],
    },
    # --- the matching's bitsets and its edges view -------------------------
    {
        "what": "the edges view listed by step before sweep",
        "file": PRUNING,
        "old": (
            "            for sweep in self.lower\n"
            "            for j, low in enumerate(sweep)\n"
            "            for sigma in indices_of(low)\n"
        ),
        "new": (
            "            for j in range(self.r)\n"
            "            for sweep in self.lower\n"
            "            for sigma in indices_of(sweep[j])\n"
        ),
        "recorded": "4c6ff71",
        "nodes": [T_PRUNING + "TestEdgesView::test_simplicial_cycle5_by_sweep_then_step"],
    },
    {
        "what": "the edges view without the last sweep",
        "file": PRUNING,
        "old": "            for sweep in self.lower\n            for j, low in enumerate(sweep)\n",
        "new": "            for sweep in self.lower[:-1]\n            for j, low in enumerate(sweep)\n",
        "recorded": "4c6ff71",
        "nodes": [
            T_PRUNING + "TestPruneTaylor::test_path5_trace",
            T_PRUNING + "TestEdgesView::test_builtins",
        ],
    },
    {
        "what": "the constructor's has[j] test removed (an edge with j in sigma accepted)",
        "file": PRUNING,
        "old": "                if wrong := low & has[j]:\n",
        "new": "                if wrong := 0:\n",
        "recorded": "4c6ff71",
        "nodes": [
            T_PRUNING + "TestVerifyMatching::test_edge_outside_the_complex",
            T_PRUNING + "TestVerifyMatching::test_constructor_rejects_bitsets_outside_the_simplex",
        ],
    },
    # The mutant recorded in db68fef tested the lowest bit of each run of
    # g_j in place of the top bit; every bit is tested now.
    {
        "what": "the lowest bit of g_j left untested in the step mask",
        "file": PRUNING,
        "old": "for b in indices_of(g):",
        "new": "for b in indices_of(g)[1:]:",
        "recorded": "e632d95",
        "nodes": [
            T_PRUNING + "TestPruneTaylor::test_path5_trace",
            T_PRUNING + "TestSweepsAgainstReference::test_builtins",
        ],
    },
    {
        "what": "Lyubeznik masks read from the holders of every generator",
        "file": PRUNING,
        "old": "    if not above:\n        for k in range(r):\n",
        "new": "    if True:\n        for k in range(r):\n",
        "recorded": "db68fef",
        "nodes": [T_PRUNING + "TestSweepsAgainstReference::test_corpus200"],
    },
    {
        "what": "Lyubeznik masks read from the holders below j (the test reversed)",
        "file": PRUNING,
        "old": "    for j in reversed(range(r)):\n        g, mask = gens[j], full ^ has[j]",
        "new": "    for j in range(r):\n        g, mask = gens[j], full ^ has[j]",
        "recorded": "4c4ebf0",
        "nodes": [
            T_PRUNING + "TestPruneLyubeznik::test_direct_equals_pruned_survivors",
            T_PRUNING + "TestSweepsAgainstReference::test_corpus200",
        ],
    },
    {
        "what": "~has[j] dropped from the step mask",
        "file": PRUNING,
        "old": "g, mask = gens[j], full ^ has[j]",
        "new": "g, mask = gens[j], full",
        "recorded": "db68fef",
        "nodes": [T_PRUNING + "TestPruneTaylor::test_path5_trace"],
    },
    # The coface rule's "one step late" mutant (243d46a) read a per-edge dict
    # of death steps, which the bitset filter replaced; these two take its
    # place.
    {
        "what": "the coface rule of simplicial pruning blind to earlier steps' kills",
        "file": PRUNING,
        "old": "                live ^= low | low << (1 << j)\n",
        "new": "                live = alive ^ low << (1 << j)\n",
        "recorded": "4c6ff71",
        "nodes": [T_PRUNING + "TestSweepsAgainstReference::test_corpus200"],
    },
    {
        "what": "the coface rule of simplicial pruning without has[k]",
        "file": PRUNING,
        "old": "(live & has[k]) >> (1 << k)",
        "new": "live >> (1 << k)",
        "recorded": "4c6ff71",
        "nodes": [T_PRUNING + "TestPruneSimplicial::test_path5"],
    },
    {
        "what": "verify_matching's homogeneity test dropped",
        "file": PRUNING,
        "old": "        low & ~mask for sweep in matching.lower",
        "new": "        False and low & ~mask for sweep in matching.lower",
        "recorded": "4c4ebf0",
        "nodes": [T_PRUNING + "TestVerifyMatching::test_inhomogeneous_detected"],
    },
    {
        "what": "verify_matching's count of the faces on an edge dropped",
        "file": PRUNING,
        "old": "is_matching = matching._critical().bit_count() == (1 << r) - 2 * edges",
        "new": "is_matching = True",
        "recorded": "fa2afa3",
        "nodes": [
            T_FLOW + "TestPeel::test_duplicated_edge_is_no_matching",
            T_PRUNING + "TestVerifyMatching::test_shared_vertex_rejected",
        ],
    },
    # --- the acyclicity peel -------------------------------------------------
    # The peel's b != j test has no mutant: the b = j term is masked by
    # has[j], which no lower end of step j meets once the matching test has
    # passed, so dropping the test changes no verdict.
    {
        "what": "the peel's shift sign flipped for b > j",
        "file": PRUNING,
        "old": "live >> d if d > 0 else live << -d",
        "new": "live >> d if d > 0 else live >> -d",
        "recorded": "fa2afa3",
        "nodes": [
            T_FLOW + "TestPeel::test_snake_closed_into_a_cycle",
            T_PRUNING + "TestVerifyMatching::test_closed_v_path_is_cyclic",
        ],
    },
    {
        "what": "a peel round that keeps its sinks",
        "file": PRUNING,
        "old": "keep |= nodes & heads",
        "new": "keep |= nodes",
        "recorded": "fa2afa3",
        "nodes": [
            T_FLOW + "TestPeel::test_long_snake_is_acyclic",
            T_PRUNING + "TestVerifyMatching::test_valid_examples",
        ],
    },
    # --- gradient flow and the Morse differential --------------------------
    # Roots are only where the walk starts: extra ones, as every
    # matched-lower face, leave the differential as it is, so the mutant
    # drops some.
    {
        "what": "the flow roots without the facets that lack the last generator",
        "file": PRUNING,
        "old": "(critical & has[b]) >> (1 << b) for b in range(r)]",
        "new": "(critical & has[b]) >> (1 << b) for b in range(r - 1)]",
        "recorded": "4c6ff71",
        "nodes": [T_FLOW + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "a flow node's step taken as the lowest step missing from it",
        "file": PRUNING,
        "old": "            while not step_bytes[j][at] & bit:\n",
        "new": "            while cell >> j & 1:\n",
        "recorded": "4c6ff71",
        "nodes": [T_FLOW + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "the flow heads taken from the partner's members, sigma among them",
        "file": PRUNING,
        "old": "for t, b in enumerate(indices_of(cell))",
        "new": "for t, b in enumerate(indices_of(up))",
        "recorded": "9a389ce",
        "nodes": [
            T_FLOW + "TestAgainstReference::test_builtins",
            T_MORSE + "TestMorseDifferential::test_path5_checks",
        ],
    },
    {
        "what": "the [up : sigma] sign of every flow weight flipped",
        "file": PRUNING,
        "old": "-1 if (below - t - (t < below)) & 1 else 1",
        "new": "1 if (below - t - (t < below)) & 1 else -1",
        "recorded": "9a389ce",
        "nodes": [T_FLOW + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "the flow weight parity without (t < below)",
        "file": PRUNING,
        "old": "-1 if (below - t - (t < below)) & 1 else 1",
        "new": "-1 if (below - t) & 1 else 1",
        "recorded": "243d46a",
        "nodes": [T_FLOW + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "a flow node's last arc left out of its flow sum",
        "file": PRUNING,
        "old": "            for f, w in arcs.pop(cell):\n",
        "new": "            for f, w in arcs.pop(cell)[:-1]:\n",
        "recorded": "7da077d",
        "nodes": [T_FLOW + "TestAgainstReference::test_corpus200_sweeps"],
    },
    {
        "what": "the flow walk's cycle check dropped",
        "file": PRUNING,
        "old": "                    if f in arcs:\n                        return None\n",
        "new": "",
        "recorded": "7da077d",
        "nodes": [T_FLOW + "TestPeel::test_cycle_reached_from_a_critical_facet"],
    },
    {
        "what": "entry ratios memoized by the row degree alone",
        "file": MORSE,
        "old": (
            "        ratio = ratios.get(sig_deg ^ cell_deg)\n"
            "        if ratio is None:\n"
            "            ratio = tuple(map(sub, decode(sig_deg), decode(cell_deg)))\n"
            "            ratios[sig_deg ^ cell_deg] = ratio\n"
        ),
        "new": (
            "        ratio = ratios.get(cell_deg)\n"
            "        if ratio is None:\n"
            "            ratio = tuple(map(sub, decode(sig_deg), decode(cell_deg)))\n"
            "            ratios[cell_deg] = ratio\n"
        ),
        "recorded": "8e13089",
        "nodes": [T_FLOW + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "a wrong entry ratio",
        "file": MORSE,
        "old": "ratio = tuple(map(sub, decode(sig_deg), decode(cell_deg)))",
        "new": "ratio = tuple(map(sub, decode(sig_deg), decode(sig_deg)))",
        "recorded": "4c4ebf0",
        "nodes": [T_MORSE + "TestMorseDifferential::test_empty_matching_is_taylor_boundary"],
    },
    {
        "what": "the divisibility test of flow entries dropped",
        "file": MORSE,
        "old": "                    if cell_deg & ~sig_deg:\n",
        "new": "                    if False:\n",
        "recorded": "8e13089",
        "nodes": [T_FLOW + "TestAgainstReference::test_random_matchings"],
    },
    {
        "what": "a flow entry's degree read from the column level",
        "file": MORSE,
        "old": "                    cell_deg = row_deg[row]\n                    if cell_deg & ~sig_deg:\n",
        "new": "                    cell_deg = col_deg[row]\n                    if cell_deg & ~sig_deg:\n",
        "recorded": "f8fac84",
        "nodes": [T_FLOW + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "the boundary sign flipped only on facets with a row",
        "file": MORSE,
        "old": (
            "                    add_entry(entry)\n"
            "                elif (reached := flow.get(facet)) is not None:\n"
            "                    if patch is None:\n"
            "                        patch = {}\n"
            "                    sign = 1 if memo is plus else -1\n"
            "                    for cell, val in reached.items():\n"
            "                        patch[cell] = patch.get(cell, 0) + sign * val\n"
            "                memo, other = other, memo\n"
        ),
        "new": (
            "                    add_entry(entry)\n"
            "                    memo, other = other, memo\n"
            "                elif (reached := flow.get(facet)) is not None:\n"
            "                    if patch is None:\n"
            "                        patch = {}\n"
            "                    sign = 1 if memo is plus else -1\n"
            "                    for cell, val in reached.items():\n"
            "                        patch[cell] = patch.get(cell, 0) + sign * val\n"
        ),
        "recorded": "528c9b7",
        "nodes": [
            T_MORSE + "TestMorseDifferential::test_boundary_column_skips_a_matched_upper_facet"
        ],
    },
    {
        "what": "one memo for both boundary signs, the first sign stored for an XOR winning",
        "file": MORSE,
        "old": (
            "                    entry = memo.get(sig_deg ^ cell_deg)\n"
            "                    if entry is None:\n"
            "                        sign = 1 if memo is plus else -1\n"
            "                        entry = (sign, ratio_of(sig_deg, cell_deg))\n"
            "                        memo[sig_deg ^ cell_deg] = entry\n"
        ),
        "new": (
            "                    entry = plus.get(sig_deg ^ cell_deg)\n"
            "                    if entry is None:\n"
            "                        sign = 1 if memo is plus else -1\n"
            "                        entry = (sign, ratio_of(sig_deg, cell_deg))\n"
            "                        plus[sig_deg ^ cell_deg] = entry\n"
        ),
        "recorded": "528c9b7",
        "nodes": [T_MORSE + "TestMorseDifferential::test_empty_matching_is_taylor_boundary"],
    },
    {
        "what": "no skip of boundary facets without a row",
        "file": MORSE,
        "old": "                row = get_row(facet)\n                if row is not None:\n",
        "new": "                row = get_row(facet)\n                if True:\n",
        "recorded": "528c9b7",
        "nodes": [
            T_MORSE + "TestMorseDifferential::test_boundary_column_skips_a_matched_upper_facet"
        ],
    },
    {
        "what": "a differential handed in kept without a copy",
        "file": MORSE,
        "old": "d if type(d) is Differential else Differential(d)",
        "new": "d if isinstance(d, Mapping) else Differential(d)",
        "recorded": "3285ef5",
        "nodes": [
            T_MORSE + "TestStoredResults::test_differentials_are_read_only",
            T_MORSE + "TestDifferential::test_kept_by_the_complex",
        ],
    },
    {
        "what": "a summed flow entry searched from the start of the whole row list",
        "file": MORSE,
        "old": "k = rows.index(row, start)",
        "new": "k = rows.index(row)",
        "recorded": "8e7db90",
        "nodes": [T_MORSE + "TestMorseDifferential::test_summed_entry_lands_in_its_own_column"],
    },
    {
        "what": "a zero sum left in place",
        "file": MORSE,
        "old": "                            del rows[k], entries[k]\n",
        "new": "                            entries[k] = (0, entries[k][1])\n",
        "recorded": "8e7db90",
        "nodes": [
            T_MORSE
            + "TestMorseDifferential::test_summed_entry_cancelling_a_facet_entry_is_deleted"
        ],
    },
    {
        "what": "a Differential lookup searching every column's rows",
        "file": MORSE,
        "old": "self.rows.index(row, start, stop)",
        "new": "self.rows.index(row)",
        "recorded": "8e7db90",
        "nodes": [T_MORSE + "TestDifferential::test_mapping_contract"],
    },
    {
        "what": "a complex of the critical cells built before the Morse complex",
        "file": MORSE,
        "old": "    cells, degrees, cell_degs, tc, critical = _critical_levels(I, matching, validate)\n",
        "new": (
            "    cells, degrees, cell_degs, tc, critical = _critical_levels(I, matching, validate)\n"
            "    critical_complex(I, matching, validate=False)\n"
        ),
        "recorded": "7d77034",
        "nodes": [T_MORSE + "TestStoredAnswers::test_morse_differential_builds_one_complex"],
    },
    {
        "what": "a missing differential accepted",
        "file": MORSE,
        "old": "if len(self.diffs) < len(self.cells) - 1:",
        "new": "if len(self.diffs) < len(self.cells) - 2:",
        "recorded": "b4a5748",
        "nodes": [T_MORSE + "TestShape::test_missing_differential_refused"],
    },
    {
        "what": "level lengths not compared",
        "file": MORSE,
        "old": "            if len(level) != len(degs):\n",
        "new": "            if False:\n",
        "recorded": "b4a5748",
        "nodes": [T_MORSE + "TestShape::test_level_with_fewer_degrees_refused"],
    },
    # --- the homogeneity contract and d*d ----------------------------------
    {
        "what": "the contract pass without the negative-exponent test",
        "file": MORSE,
        "old": "    if min(chain.from_iterable(vectors), default=0) < 0:\n        return False\n",
        "new": "",
        "recorded": "14c48c1",
        "nodes": [
            T_MORSE + "TestChainedStrands::test_column_with_a_negative_exponent_is_rejected"
        ],
    },
    {
        "what": "the contract pass without the row's level test",
        "file": MORSE,
        "old": "if not (0 <= row < n_rows and 0 <= col < n_cols):",
        "new": "if not (0 <= col < n_cols):",
        "recorded": "14c48c1",
        "nodes": [T_MORSE + "TestContract::test_row_outside_its_level"],
    },
    {
        "what": "_is_boundary without the sign test",
        "file": MORSE,
        "old": "        if coeff != (-1 if (sigma & (low - 1)).bit_count() & 1 else 1):\n",
        "new": "        if False:\n",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestDSquared::test_sign_corruption_detected"],
    },
    {
        "what": "_is_boundary without the count test",
        "file": MORSE,
        "old": " or len(d) != sum(map(int.bit_count, here)):",
        "new": ":",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestDSquaredAgainstReference::test_builtins[cycle:5]"],
    },
    {
        "what": "_is_boundary without the distinct-mask test",
        "file": MORSE,
        "old": "if len({*below}) != len(below) or len(d)",
        "new": "if len(d)",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestBoundaryCertificate::test_distinct_masks"],
    },
    {
        "what": "boundaries certified on negative masks (no int >= 0 guard)",
        "file": MORSE,
        "old": "masks = all(type(m) is int and m >= 0 for m in",
        "new": "masks = all(type(m) is int for m in",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestBoundaryCertificate::test_negative_masks"],
    },
    {
        "what": "_is_boundary without the row test",
        "file": MORSE,
        "old": "        if low & (low - 1) or not low & sigma:\n            return False\n",
        "new": "",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestDSquaredAgainstReference::test_corpus200"],
    },
    {
        "what": "every pair of differentials certified by ∂∂ = 0",
        "file": MORSE,
        "old": "        if not (boundary[i - 1] and boundary[i]):\n",
        "new": "        if False:\n",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestDSquared::test_sign_corruption_detected"],
    },
    {
        "what": "no pair of differentials certified by ∂∂ = 0",
        "file": MORSE,
        "old": "        if not (boundary[i - 1] and boundary[i]):\n",
        "new": "        if True:\n",
        "recorded": "e315e0f",
        "nodes": [T_MORSE + "TestBoundaryCertificate::test_simplicial_resolutions_multiply_nothing"],
    },
    {
        "what": "the d*d verdict over Z deciding every characteristic",
        "file": MORSE,
        "old": "    if g % char if char else g:\n",
        "new": "    if g:\n",
        "recorded": "3285ef5",
        "nodes": [T_MORSE + "TestStoredResults::test_d_squared_nonzero_over_z_decided_mod_p"],
    },
    {
        "what": "the d*d gcd read from the first nonzero column only",
        "file": MORSE,
        "old": "            g = gcd(g, *acc.values())\n",
        "new": "            g = g or gcd(*acc.values())\n",
        "recorded": "7d77034",
        "nodes": [T_MORSE + "TestStoredAnswers::test_gcd_of_every_column"],
    },
    # --- exactness ---------------------------------------------------------
    {
        "what": "check_exactness without its d*d requirement",
        "file": MORSE,
        "old": "    if g % char if char else g:\n        return False\n",
        "new": "",
        "recorded": "1e0a672",
        "nodes": [T_MORSE + "TestExactnessMutations::test_top_differential_without_d_squared"],
    },
    {
        "what": "check_exactness without its contract guard (the soundness guard it replaced)",
        "file": MORSE,
        "old": "    if not C._homogeneous:\n        return False\n    g = C._d_squared_gcd",
        "new": "    g = C._d_squared_gcd",
        "recorded": "c717f2d 14c48c1",
        "nodes": [T_MORSE + "TestSummedStrandTest::test_unsound_column_cancels_in_the_sum"],
    },
    {
        "what": "the strand index reused for any ideal",
        "file": MORSE,
        "old": "if index is None or index.ideal != I:",
        "new": "if index is None:",
        "recorded": "3285ef5",
        "nodes": [T_MORSE + "TestStoredResults::test_two_ideals_on_one_complex"],
    },
    {
        "what": "the list of strands not exact over F_2 cut after its first strand",
        "file": MORSE,
        "old": "enumerate(index.verdicts(certifier, every)) if not exact\n        ]",
        "new": "enumerate(index.verdicts(certifier, every)) if not exact\n        ][:1]",
        "recorded": "3285ef5",
        "nodes": [
            T_MORSE + "TestCertificateOverF2::test_top_column_doubled_and_another_deleted"
        ],
    },
    {
        "what": "char 0 reading the F_2 list without ranking over Q (no Q fallback)",
        "file": MORSE,
        "old": "    if char == certifier:\n",
        "new": "    if char in (0, certifier):\n",
        "recorded": "33ab435 3285ef5",
        "nodes": [T_MORSE + "TestExactnessMutations::test_doubled_top_column"],
    },
    {
        "what": "no lcm closure over cell degrees outside the lattice",
        "file": MORSE,
        "old": "outside = {*cells}.difference(points)",
        "new": "outside = set()",
        "recorded": "3285ef5",
        "nodes": [T_MORSE + "TestOtherIdeal::test_cell_degree_outside_the_lattice"],
    },
    # The mutant recorded in aea61ed skipped the test that restarted the
    # running dict; a strand now backs out of the stack of nested strands.
    {
        "what": "a strand chained on one it does not contain",
        "file": MORSE,
        "old": "            while stack[-1][0] & ~present:\n",
        "new": "            while False:\n",
        "recorded": "aea61ed",
        "nodes": [
            T_MORSE
            + "TestChainedStrands::test_strand_that_does_not_contain_the_last_starts_afresh"
        ],
    },
    {
        "what": "a strand backed out of without popping its keys",
        "file": MORSE,
        "old": (
            "                size = stack.pop()[1]\n"
            "                while len(pivots) > size:\n"
            "                    pop()\n"
        ),
        "new": "                stack.pop()\n",
        "recorded": "7c9127a",
        "nodes": [
            T_MORSE
            + "TestChainedStrands::test_strand_that_contains_the_one_two_back_resumes_from_it"
        ],
    },
    {
        "what": "an F_2 column cleared by the key g of the row below it",
        "file": MORSE,
        "old": "kernel(_uncleared(rows, new, pivots, lift), pivots)",
        "new": "kernel(_uncleared(rows, new, pivots, 0), pivots)",
        "recorded": "7c9127a",
        "nodes": [T_MORSE + "TestExactnessAgainstStrandLoop::test_builtins[cycle:5]"],
    },
    {
        "what": "a dict-kernel column cleared by the key g + 1 of the row above it",
        "file": MORSE,
        "old": "kernel(_uncleared(rows, new, pivots, lift), pivots)",
        "new": "kernel(_uncleared(rows, new, pivots, 1), pivots)",
        "recorded": "7c9127a",
        "nodes": [T_MORSE + "TestExactnessAgainstStrandLoop::test_builtins[example-4-1]"],
    },
    {
        "what": "a strand's columns handed over bottom level first",
        "file": MORSE,
        "old": "        g = cells.bit_length() - 1\n",
        "new": "        g = (cells & -cells).bit_length() - 1\n",
        "recorded": "7c9127a",
        "nodes": [T_MORSE + "TestClearing::test_f2_pass_over_example_4_1"],
    },
    {
        "what": "odd p reading the unit list alone (no F_p fallback)",
        "file": MORSE,
        "old": "    if char == certifier:\n",
        "new": "    if char == certifier or certifier is None:\n",
        "recorded": "8746990",
        "nodes": [T_MORSE + "TestCertificateOverUnits::test_strand_whose_only_entry_is_3"],
    },
    {
        "what": "the unit list built from the first p's F_p verdicts",
        "file": MORSE,
        "old": "enumerate(index.verdicts(certifier, every))",
        "new": "enumerate(index.verdicts(char, every))",
        "recorded": "8746990",
        "nodes": [T_MORSE + "TestCertificateOverUnits::test_unit_entry_ranks_nothing_over_fp"],
    },
    {
        "what": "odd p sent down the F_2-then-Q route",
        "file": MORSE,
        "old": "    certifier = 2 if char in (0, 2) else None\n",
        "new": "    certifier = 2\n",
        "recorded": "8746990",
        "nodes": [T_MORSE + "TestCertificateOverUnits::test_strand_whose_only_entry_is_3"],
    },
    {
        "what": "the certified lists keyed by char instead of by certifying pass",
        "file": MORSE,
        "old": (
            "    uncertified = index.not_exact.get(certifier)\n"
            "    if uncertified is None:\n"
            "        every = range(len(index.strands))\n"
            "        uncertified = index.not_exact[certifier] = [\n"
        ),
        "new": (
            "    uncertified = index.not_exact.get(char)\n"
            "    if uncertified is None:\n"
            "        every = range(len(index.strands))\n"
            "        uncertified = index.not_exact[char] = [\n"
        ),
        "recorded": "7d77034",
        "nodes": [T_MORSE + "TestStoredAnswers::test_one_full_pass_per_certifier"],
    },
    # --- linear algebra ----------------------------------------------------
    {
        "what": "a Q row not scaled by the pivot entry",
        "file": LINALG,
        "old": "            if a != 1:\n                row = {c: a * v for c, v in row.items()}\n",
        "new": "",
        "recorded": "6ce0101",
        "nodes": [T_LINALG + "test_known_ranks"],
    },
    {
        "what": "a wrong Q scaling of the pivot row",
        "file": LINALG,
        "old": "a, b = pval // g, e // g",
        "new": "a, b = pval // g, e",
        "recorded": "6ce0101",
        "nodes": [T_LINALG + "test_known_ranks"],
    },
    {
        "what": "a wrong elimination mod p",
        "file": LINALG,
        "old": "nv = (row.get(c, 0) - e * v) % p",
        "new": "nv = (row.get(c, 0) + e * v) % p",
        "recorded": "6ce0101",
        "nodes": [T_LINALG + "test_known_ranks"],
    },
    {
        "what": "the shift of packed F_2 rows ignored",
        "file": LINALG,
        "old": "lead = x.bit_length() + shift",
        "new": "lead = x.bit_length()",
        "recorded": "75da9e7",
        "nodes": [T_LINALG + "test_f2_shifted_known_keys"],
    },
    {
        "what": "a kernel that reads all its rows before it reduces the first",
        "file": LINALG,
        "old": "    for x, shift in rows:\n",
        "new": "    for x, shift in list(rows):\n",
        "recorded": "7c9127a",
        "nodes": [T_LINALG + "test_rows_read_one_at_a_time[pivots_f2_packed]"],
    },
    {
        "what": "a non-unit lead accepted as a unit pivot",
        "file": LINALG,
        "old": (
            "                if e == 1:\n"
            "                    pivots[lead] = row\n"
            "                elif e == -1:\n"
        ),
        "new": (
            "                if e > 0:\n"
            "                    pivots[lead] = row\n"
            "                elif e < 0:\n"
        ),
        "recorded": "8746990",
        "nodes": [
            T_LINALG + "test_unit_known_pivot_counts",
            T_MORSE + "TestCertificateOverUnits::test_strand_whose_only_entry_is_3",
        ],
    },
    {
        "what": "a -1 unit lead stored without negating its row",
        "file": LINALG,
        "old": "                    pivots[lead] = {c: -v for c, v in row.items()}\n",
        "new": "                    pivots[lead] = row\n",
        "recorded": "8746990",
        "nodes": [T_LINALG + "test_unit_pivot_rows_lie_in_the_span"],
    },
    # --- the degree table --------------------------------------------------
    {
        "what": "the high half table indexed by mask >> (h + 1)",
        "file": TAYLOR,
        "old": "hi[mask >> h]",
        "new": "hi[mask >> (h + 1)]",
        "recorded": "f8fac84",
        "nodes": [T_TAYLOR + "test_same_table_as_tuple_table_corpus"],
    },
    {
        "what": "face_degrees built over the low half of the generators only",
        "file": TAYLOR,
        "old": "        return _or_table(self.gen_degrees)\n",
        "new": "        return _or_table(self.gen_degrees[: self.r // 2])\n",
        "recorded": "f8fac84",
        "nodes": [
            T_TAYLOR + "test_same_table_as_tuple_table_corpus",
            T_BETTI + "TestAgainstReference::test_builtins",
        ],
    },
    {
        "what": "bisect_left in the degree encoder (bisect_right of e - 1)",
        "file": TAYLOR,
        "old": "((1 << bisect_right(vals, e)) - 1) << off",
        "new": "((1 << bisect_right(vals, e - 1)) - 1) << off",
        "recorded": "4c4ebf0",
        "nodes": [T_TAYLOR + "test_same_table_as_tuple_table_corpus"],
    },
    {
        "what": "an off-by-one decode",
        "file": TAYLOR,
        "old": "vals[((deg >> off) & seg).bit_count()]",
        "new": "vals[((deg >> off) & seg).bit_count() - 1]",
        "recorded": "4c4ebf0",
        "nodes": [T_TAYLOR + "test_same_table_as_tuple_table_corpus"],
    },
    {
        "what": "the binary-string walk of wide masks off by one",
        "file": TAYLOR,
        "old": "            out.append(top - i)\n",
        "new": "            out.append(top - i + 1)\n",
        "recorded": "75da9e7",
        "nodes": [T_TAYLOR + "test_indices_of_known_masks"],
    },
    {
        "what": "the dense read of wide masks taking the digits highest first",
        "file": TAYLOR,
        "old": "digits[:1:-1].encode()",
        "new": "digits[2:].encode()",
        "recorded": "8e7db90",
        "nodes": [T_TAYLOR + "test_indices_of_against_the_lowest_bit_walk"],
    },
    # --- the Betti oracles -------------------------------------------------
    {
        "what": "a shifted Tor key",
        "file": BETTI,
        "old": "multi[(h, tc.decode(alpha_deg))] = beta",
        "new": "multi[(h + 1, tc.decode(alpha_deg))] = beta",
        "recorded": "4c4ebf0",
        "nodes": [T_BETTI + "TestAgainstReference::test_builtins"],
    },
    {
        "what": "every F_2 result accepted at char 0",
        "file": BETTI,
        "old": "    if char or sum(1 for b in betti.values() if b) <= 1:\n",
        "new": "    if True:\n",
        "recorded": "06d65cf",
        "nodes": [T_BETTI + "TestTorBetti::test_rp2_characteristics"],
    },
    # --- splitting ---------------------------------------------------------
    {
        "what": "the X' test of the residual widened to faces of X_J or X_K",
        "file": SPLITTING,
        "old": "        if sigma & j_mask and sigma & k_mask\n",
        "new": "        if sigma & j_mask or sigma & k_mask\n",
        "recorded": "e632d95",
        "nodes": [
            T_SPLITTING + "TestPrunedSplitting::test_path5_last_edge",
            T_SPLITTING + "TestNonzeroResiduals::test_path7_at_2",
        ],
    },
    {
        "what": "the grid table subtracted unshifted",
        "file": SPLITTING,
        "old": "cells[h + 1, alpha] -= n",
        "new": "cells[h, alpha] -= n",
        "recorded": "e632d95",
        "nodes": [T_SPLITTING + "TestPrunedSplitting::test_path5_last_edge"],
    },
    {
        "what": "the grid's empty-face row shifted too",
        "file": SPLITTING,
        "old": "        if h:\n            cells[",
        "new": "        if True:\n            cells[",
        "recorded": "e632d95",
        "nodes": [T_SPLITTING + "TestPrunedSplitting::test_path5_last_edge"],
    },
    {
        "what": "grid_matches_minimal read from the unminimized grid twice",
        "file": SPLITTING,
        "old": "t_jk.same_entries(_pruned_table(minimal))",
        "new": "t_jk.same_entries(_pruned_table(JK))",
        "recorded": "e632d95",
        "nodes": [T_SPLITTING + "TestNonzeroResiduals::test_cycle8_at_4"],
    },
    {
        "what": "a grid that is its own minimalization pruned a second time",
        "file": SPLITTING,
        "old": "minimal == JK or t_jk",
        "new": "t_jk",
        "recorded": "8e7db90",
        "nodes": [T_SPLITTING + "TestAgainstReference::test_prunes_the_grids_alone"],
    },
    {
        "what": "a split scan that sweeps I again at every point",
        "file": SPLITTING,
        "old": "_split_report(I, s, J, K, matching) for s, (J, K)",
        "new": "_split_report(I, s, J, K, prune_taylor(I)) for s, (J, K)",
        "recorded": "7d77034",
        "nodes": [T_CLI + "TestCommands::test_split_scan_sweeps_once"],
    },
    # --- command line ------------------------------------------------------
    {
        "what": "a closed standard output reported as an input error",
        "file": CLI,
        "old": "    except BrokenPipeError:\n",
        "new": "    except ZeroDivisionError:\n",
        "recorded": "7d77034",
        "nodes": [T_CLI + "TestCommands::test_closed_stdout"],
    },
    {
        "what": "the last buffered write left to the interpreter's flush at exit",
        "file": CLI,
        "old": "        sys.stdout.flush()\n",
        "new": "",
        "recorded": "7d77034",
        "nodes": [T_CLI + "TestCommands::test_stdout_closed_before_any_write"],
    },
]


def _pytest(tree: Path, nodes: list[str]) -> subprocess.CompletedProcess:
    # no examples saved by an earlier mutant's failure are replayed
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    args = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    return subprocess.run(
        [sys.executable, "-m", "pytest", *args, *nodes],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="prunres-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", tree)
        nodes = sorted({node for m in MUTANTS for node in m["nodes"]})
        clean = _pytest(tree, nodes)
        if clean.returncode != 0:
            print(clean.stdout[-4000:], clean.stderr[-2000:], sep="\n")
            print("the nodes do not pass on the unchanged tree")
            return 1
        bad = []
        for m in MUTANTS:
            path = tree / m["file"]
            text = path.read_text(encoding="utf-8")
            found = text.count(m["old"])
            if found != 1:
                verdict = f"its text occurs {found} times in {m['file']}"
            else:
                path.write_text(text.replace(m["old"], m["new"]), encoding="utf-8")
                try:
                    run = _pytest(tree, m["nodes"])
                finally:
                    path.write_text(text, encoding="utf-8")
                # pytest exits 1 when a test failed; 0 when all passed, and
                # 2-5 on a collection or usage error, which catches nothing
                verdict = {0: "SURVIVED", 1: "caught"}.get(
                    run.returncode, f"pytest exit {run.returncode}"
                )
                if verdict != "caught":
                    print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
            print(f"{verdict:>8}  {m['recorded']:<16} {m['what']}")
            if verdict != "caught":
                bad.append(m["what"])
        print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants caught")
        return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
