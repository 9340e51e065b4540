"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` and does one fixed unit of
work, a *pass*, in ``run_pass``.  A pass checks every output it produces,
appends the (start, end) ``clock`` times of each item to ``items``, and
returns a digest of its results, so that a traced and an untraced pass can
be compared.  Program functions are always reached through their module
(``coloring.count_colorings``), so that the tracer's replacement of module
attributes takes effect.

census  ``legrack census --max-order 6`` in-process, compared byte for byte
        with the exact table.  Time goes to rack search, isomorphism dedupe,
        Aut/Inn and structure classification; it never colors a front.
sweep   the acceptance gate's sweep: every permutation 4-Legendrian
        structure of order <= 5 against the 12 built-in fixtures, generic
        counter against the permutation fast path.  Small presentations;
        never classifies structures.
fronts  seeded connected sums of trefoils (3 to 12 arcs) colored by every
        structure class of a fixed list of general racks.  The generic
        counter with real branching, plus classify and make_fourleg.
"""
from __future__ import annotations

import hashlib
import os
import time

import legrack.cli as cli
import legrack.coloring as coloring
import legrack.fourleg as fourleg
import legrack.front as front
import legrack.racks as racks

import expected
import frontgen


class Checks:
    """Output checks: how many were attempted, which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Census:
    name = "census"

    def __init__(self, out_dir: str, max_order: int = 6):
        self.out_dir = out_dir
        self.max_order = max_order

    def setup(self, seed: int):
        # The census has no random input: the seed is accepted and unused.
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, "census.csv")
        argv = ["census", "--max-order", str(self.max_order), "--no-header",
                "--jobs", "1", "--output", path]
        rows = expected.CENSUS_CSV.splitlines(keepends=True)
        want = "".join(rows[:1 + 4 * (self.max_order + 1)])
        return argv, path, want

    def run_pass(self, inputs, checks: Checks, items: list,
                 clock=time.perf_counter) -> str:
        argv, path, want = inputs
        if os.path.exists(path):
            os.remove(path)
        t0 = clock()
        status = cli.main(argv)
        items.append((t0, clock()))
        checks.check(status == 0, f"census exited with status {status}")
        with open(path, encoding="utf-8", newline="") as fh:
            got = fh.read()
        want_lines = want.splitlines(keepends=True)
        got_lines = got.splitlines(keepends=True)
        for i, line in enumerate(want_lines):
            checks.check(i < len(got_lines) and got_lines[i] == line,
                         f"census line {i + 1}: expected {line!r}")
        if len(got_lines) > len(want_lines):
            checks.fail(f"census has {len(got_lines) - len(want_lines)} "
                        f"extra lines")
        elif got != want:
            checks.fail("census differs from the exact table byte for byte")
        return _digest(got)


class Sweep:
    name = "sweep"

    def __init__(self, max_order: int = 5):
        self.max_order = max_order

    def setup(self, seed: int):
        # The sweep is exhaustive, so the seed is accepted and unused.
        codes = front.builtin_fixtures()
        pres = [front.fundamental_presentation(c) for c in codes.values()]
        invs = [front.classical_invariants(c) for c in codes.values()]
        by_key: dict[tuple[int, int], list[int]] = {}
        for i, inv in enumerate(invs):
            by_key.setdefault((inv.tb, inv.rot), []).append(i)
        groups = [m for m in by_key.values() if len(m) > 1]
        return list(codes), pres, invs, groups

    def run_pass(self, inputs, checks: Checks, items: list,
                 clock=time.perf_counter) -> str:
        names, pres, invs, groups = inputs
        pairs = list(zip(pres, invs))
        structures = 0
        colorings = 0
        h = hashlib.sha256()
        # An item is one row: the structures of one permutation rack with
        # one ul, generated and counted.  A single structure takes about a
        # millisecond, so garbage collections, not the program's work,
        # would decide its tail.  ``t`` is read before each ``next()``, so
        # a row's time includes generating its structures.
        want_structures, want_colorings = expected.SWEEP[self.max_order]
        row = row_start = None
        t = clock()
        for rack_id, fl in coloring.permutation_structures(
                self.max_order, conjugacy_reps_only=False):
            if (rack_id, fl.structure.ul) != row:
                if row is not None:
                    items.append((row_start, t))
                row, row_start = (rack_id, fl.structure.ul), t
            counts = []
            for i, (p, inv) in enumerate(pairs):
                generic = coloring.count_colorings(p, fl)
                if coloring.perm_fast_count(fl, inv) != generic:
                    checks.fail(f"{rack_id} {fl.structure} {names[i]}: "
                                f"fast path differs from generic")
                counts.append(generic)
            for members in groups:
                if len({counts[m] for m in members}) != 1:
                    checks.fail(f"{rack_id} {fl.structure}: counts differ "
                                f"within the (tb, rot) group of "
                                f"{[names[m] for m in members]}")
            checks.attempted += len(pairs) + len(groups)
            structures += 1
            colorings += sum(counts)
            h.update(repr(counts).encode())
            t = clock()
        items.append((row_start, clock()))
        checks.check(structures == want_structures,
                     f"{structures} structures, expected {want_structures}")
        checks.check(colorings == want_colorings,
                     f"coloring checksum {colorings}, expected "
                     f"{want_colorings}")
        return _digest(structures, colorings, h.hexdigest())


def _rack_list():
    """(label, n, rows) of the racks whose structures color the fronts."""
    named = [
        ("R3", racks.dihedral_quandle(3)),
        ("R5", racks.dihedral_quandle(5)),
        ("Alex5_2", racks.alexander_quandle(5, 2)),
        ("T3", racks.trivial_quandle(3)),
    ]
    named += [(f"order4_{i:02d}", racks.validate_rack(table))
              for i, table in enumerate(expected.ORDER4_RACKS)]
    named += [("perm3_cycle", racks.permutation_rack((1, 2, 0))),
              ("perm4_cycle", racks.permutation_rack((1, 2, 3, 0)))]
    return [(label, r.n, r.rows) for label, r in named]


class Fronts:
    name = "fronts"

    def __init__(self, summands=(1, 2, 3, 4) * 3):
        self.summands = summands

    def setup(self, seed: int):
        fronts = frontgen.front_set(seed, self.summands)
        cases = []
        for f in fronts:
            pa, pb = (front.fundamental_presentation(c) for c in f.placements)
            cases.append((f, pa, pb, front.classical_invariants(f.placements[0])))
        return cases, _rack_list()

    def run_pass(self, inputs, checks: Checks, items: list,
                 clock=time.perf_counter) -> str:
        cases, rack_list = inputs
        structures = 0
        h = hashlib.sha256()
        for label, n, rows in rack_list:
            # A fresh table per pass, so no per-instance cache survives it.
            rack = racks.RackTable(n, rows)
            is_perm = label.startswith("perm")
            for cls in fourleg.classify_structures(rack):
                fl = fourleg.make_fourleg(rack, cls.ul, cls.ur)
                structures += 1
                counts = []
                for f, pa, pb, inv in cases:
                    t0 = clock()
                    a = coloring.count_colorings(pa, fl)
                    b = coloring.count_colorings(pb, fl)
                    fast = coloring.perm_fast_count(fl, inv) if is_perm else a
                    items.append((t0, clock()))
                    checks.attempted += 1 + is_perm + (f.summands == 1)
                    if a != b:
                        checks.fail(f"{label} {cls} {f.name}: placements "
                                    f"give {a} and {b}")
                    if fast != a:
                        checks.fail(f"{label} {cls} {f.name}: fast {fast}, "
                                    f"generic {a}")
                    if f.summands == 1:
                        brute = coloring.brute_force_colorings(pa, fl)
                        if brute != a:
                            checks.fail(f"{label} {cls} {f.name}: brute "
                                        f"{brute}, generic {a}")
                    counts.append(a)
                h.update(repr((label, cls.ul, cls.ur, counts)).encode())
        checks.check(structures == expected.FRONTS_STRUCTURES,
                     f"{structures} structures, expected "
                     f"{expected.FRONTS_STRUCTURES}")
        return _digest(structures, h.hexdigest())


def make(name: str, out_dir: str):
    if name == "census":
        return Census(out_dir)
    if name == "sweep":
        return Sweep()
    if name == "fronts":
        return Fronts()
    raise ValueError(f"unknown workload {name!r}")
