"""Enumeration of all racks of a given order up to isomorphism, plus the
4-Legendrian structure census over the rack / involutory / quandle / kei
families.

A rack on {0..n-1} is exactly a choice of column permutations b_0..b_{n-1}
with b_{b_z(y)} = b_z b_y b_z^-1 for all y, z.  The search backtracks over
columns, and each new column t forces others by two forward rules: for
every assigned b (t included), b_{b_b(t)} = b_b b_t b_b^-1 and
b_{b_t(b)} = b_t b_b b_t^-1.  A forced column whose target is assigned is
compared with it on the spot: a clash fails the branch, an agreement queues
nothing.  An unassigned target is queued; when popped it is assigned, or
compared if the queue has assigned it meanwhile.

Soundness: the constraint at (z, y) is made by one of the two rules when
the later of z and y is assigned, and is then compared at once or at the
pop of its queued entry.  A call that succeeds has emptied its queue, so
every constraint between assigned columns holds, and a complete assignment
is a rack.

Backward rules would force nothing more.  They force b_s from b_b and b_t
where b_b(s) = t, or from b_t and b_{b_t(s)}; either way s lies on the
cycle of b_b (or b_t) through an assigned column.  Forward forcing walks
that whole cycle, so where it succeeds it has assigned s, and by soundness
to the value the constraint at (b, s) (or (t, s)) demands, which is the
backward value.  Where it fails, so would a search with both rule sets: a
success there leaves an assignment that meets every constraint between its
columns and the rank order below, and forward forcing, which only derives
values that assignment holds, can clash with neither.  So the closure,
the verdict of every call and the search tree are unchanged, and the order
in which constraints are checked changes neither the results nor their
order.

Symmetry breaking: column 0 is required to have the minimal cycle type
among all columns and to be the canonical representative of its orbit under
conjugation by the stabilizer of the point 0; every rack has a relabeling
of that shape, and each such column 0 starts one shard of the search.
Branched columns are drawn from the types allowed by column 0's; a forced
column is a conjugate of an assigned one, so it meets that bound already.

In every shard, with c its column 0 and S = {0} u Fix(c), the column
cycle-type ranks at the positions of S must not decrease in index order.
Proof: a relabeling h that moves only fixed points of c other than 0
fixes 0 and commutes with c (their supports are disjoint), so it keeps the
table in its shard and moves column x, with its cycle type, to position
h(x); some such h sorts the ranks at those points, and column 0 has the
least rank of all.  In the identity shard S is every position.  The rank
order is checked on every column as it is assigned, forced columns included
(where a forced column lands decides whether its rank fits), and a branch
column in S is drawn only from the ranks between those of its assigned
neighbours in S.

Centralizer rule: if an assigned column b fixes the branch point y, then
b_y commutes with b_b.  Proof: the axiom at z = b reads
b_{b_b(y)} = b_b b_y b_b^-1, and b_b(y) = y.  So a branched column is drawn
from the centralizer of the shortest such b_b (``_centralizers``), keeping
the candidates that commute with the other fixers and lie in the rank
window.  The ones dropped are exactly those the clash check on b_b(y) would
fail, so the rule loses no table.

Pre-check: before ``assign(y, r)``, a branch candidate r is compared by the
forward rule b_t(b) at t = y, for every assigned b and for b = y: column
r(b) must be unassigned or equal r b_b r^-1, and column r(y) unassigned or
equal r.  Against the same ``cols``, these are comparisons that the first
pop of ``assign(y, r)`` makes.  The pre-check cannot see cols[y] = r, so it
makes a subset of them, and it drops only candidates that ``assign`` would
reject.  So the search tree, the raw tables and their order are unchanged;
``assign`` keeps all three of its comparisons, which soundness needs.

Swap rule: a complete assignment X is dropped if some allowed swap h gives
a table h.X, (h.X)[x][y] = h(X[h(x)][h(y)]), whose rows are
lexicographically less than those of X.  The allowed swaps are the
transpositions (p q) with p, q != 0 that commute with c: a 2-cycle of c,
or two fixed points of c whose columns in X have the same rank.  Proof
that it loses no class: h fixes 0 and commutes with c, so h.X has column
0 h c h^-1 = c and lies in the same shard; a 2-cycle swap fixes S
pointwise and a fixed-point swap exchanges two equal ranks, so the ranks
at S stay sorted and h.X meets the rank order too.  So the rows-least
table of each isomorphism class within a shard's output is never dropped.
Nor do the representatives move: the dedupe (``_dedupe``) keeps the
least table (by key, then rows) it is fed, and every table of a class
shares its key, so that table is rows-least in its class within its own
shard and is still fed.  The rule compares rows, not column indices, for
that reason, but it reads them off the indices without building a row:
h is its own inverse, so column y of h.X is h b_{h(y)} h, and the first
entry in row-major order where h.X and X differ lies in the least row x
where some column differs, in the least such column; the test stops at a
difference in row 0.  It only filters the leaves, so the search tree and
its ``assign`` calls are unchanged.  It is the isomorph rejection of Read
("Every one a winner", Ann. Discrete Math. 1978) and McKay ("Isomorph-free
exhaustive generation", J. Algorithms 1998), restricted to a shard's
transpositions.

Isolated-point split: the identity shard holds only the racks with two or
more identity columns, so its column 1 is the identity as well; the racks
with one are built from racks of order n - 1 (``_isolated_point_tables``).
Proof: the set I of points whose column is the identity is invariant under
every column, because b_{b_z(y)} = b_z id b_z^-1 = id for y in I.  In the
identity shard the ranks are sorted at every position and the identity
ranks lowest, so I = {0..m-1}; m >= 2 puts the identity at column 1, and
the swap rule keeps it there, since a swap moving 1 exchanges two equal
ranks.  A rack X with I = {p} is {p} u J: every column fixes p, so
J = X - {p} is closed under the operation, with the columns of X
restricted to J, and none of those is the identity, for a column that is
the identity on J and fixes p is the identity.  Conversely, for a rack J
with no identity column, a new point p with b_p = id, fixed by every
column of J, gives a rack (the axiom at z = p reads b_y = b_y, at y = p
id = b_z id b_z^-1) whose only identity column is p.  An isomorphism from
X to X' maps I onto I', so p to p', and restricts to one from J to J';
one from J to J' extends by p -> p'.  So {0} u J, over the classes J of
order n - 1 with no identity column, gives each class with one identity
column exactly once; at n = 1 the identity shard is empty and the trivial
rack is {0} u the empty rack.  J is read off its class's record: it has
no identity column exactly when 0, the identity's index, is not among
its column indices.  Racks with no identity column lie in the other
shards, which are unchanged.  This is the isomorph rejection of McKay
above, one level below the shards.

Identity-prefix rule: in the identity shard, a branch candidate r for
column y must map {0..m-1} into itself, m the number of leading identity
columns among 0..y-1 (all assigned, y being the first unassigned
position).  Proof: a complete assignment is a rack with sorted ranks, so
its identity columns are {0..M-1} and every column maps that set into
itself.  If m < y, column m is assigned and is not the identity, so
M = m.  If m = y, a candidate other than the identity makes M = y, and
the identity maps every set into itself.  So a dropped candidate has no
complete assignment below it: the raw tables and their order are
unchanged, and only ``assign`` calls fall.  A node with no fixer (see the
centralizer rule) slices its candidates from a rank-sorted pool already
filtered for its m, one per m, made on first use; a node with fixers
filters its centralizer candidates, first by the rank window and then once
per further fixer.  Both give the branch list that filtering the
unfiltered candidates would, in the same order.

Columns are indices into a precomputed S_n product table (``_tables``),
whose rows are built by composing the rows of two generators rather than
by composing permutation tuples.  Every shard's pool is a suffix of one
rank-sorted order of S_n per order (``_rank_order``).

Dedupe: the raw tables stay column-index tuples from the search to the
counts.  ``_dedupe`` reads each one's rows, flags and
``RackTable.element_colors`` off its indices, buckets the tables by an
invariant key, the kink's flags and cycle type plus the sorted colors,
and tests for isomorphism only within a bucket.  It keeps one record
``(cols, rows, colors, flags)`` per class, the least table by key and
then rows, and ``_rack_classes`` caches those records per order; the
census reads them, and ``enumerate_racks`` builds one table per record,
its caches filled from it.  The colors are invariants: an isomorphism
phi has phi b_y phi^-1 = b_phi(y), phi kink = kink phi, and row phi(x)
equal to phi (row x) phi^-1, so column cycle type, kink cycle length and
row value multiplicities at x are those at phi(x).

Isomorphisms are read off the index tables with no search
(``_isomorphisms``).  A permutation phi is an isomorphism from X to X'
exactly when phi(b_z(x)) = b'_phi(z)(phi(x)) for all x and z, that is
when phi b_z = b'_phi(z) phi for every column z.  Fix a column b_y of X.
An isomorphism maps y to some v of y's color and so conjugates b_y to
b'_v.  The phi with phi b_y phi^-1 = b'_v form one left coset of the
centralizer C(b_y).  Proof: ``_centralizers`` records ``trans[i]``, a g
with g p g^-1 = i for the first member p of i's conjugacy class; b_y and
b'_v share a color, so a cycle type and that p, and conjugation by
phi_0 = trans[b'_v] trans[b_y]^-1 carries b_y to p and then p to b'_v.
A phi conjugates b_y to b'_v exactly when phi_0^-1 phi commutes with b_y,
that is when phi lies in phi_0 C(b_y).  The cosets of distinct columns
b'_v are disjoint.  So the isomorphisms are the members of these cosets,
over the distinct columns of X' of y's color, that meet
phi b_z = b'_phi(z) phi at every z; y is the element whose |C(b_y)| times
the number of those columns is least.  The dedupe takes the first one,
if there is one.  Aut(X) is the case X' = X (``_aut_indices``), and U_X
is the automorphisms with b_phi(z) = b_z for every z (see
``RackTable.gl_center``).  ``racks._iso_search``,
``RackTable.automorphisms`` and ``gl_center``, which serve racks of any
order, are the oracle of this computation.

Counts: a rack's structure classes, the orbits of U_X x U_X under
diagonal conjugation by Aut(X), are counted by Burnside as
(1/|Aut|) sum_{g in Aut} |C_U(g)|^2, on the indices of its record.
U_X is normal in Aut(X): for h in Aut, h b_y h^-1 = b_h(y), so
h Inn h^-1 = Inn and h U_X h^-1 centralizes Inn as well.  Then
C_U(h g h^-1) = h C_U(g) h^-1, so the sum runs once per conjugacy class
of Aut, weighted by its size (``_structure_class_count``).  Two cases
need no commuting pair scanned, and the count is exact in both.  If
U_X = {id}, every C_U(g) is {id}, the sum is |Aut| and the count is 1.
If U_X = Aut(X), C_U(g) is the centralizer of g in Aut, of size
|Aut| / |K| for g in the class K (orbit-stabilizer), so the count is
(1/|Aut|) sum_K |K| (|Aut| / |K|)^2 = sum_K |Aut| / |K|.  On the 456
classes of orders 0-6 the first case holds for 18 classes, the second
for 373, and 65 are scanned.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .perms import cycle_type, cycles, inverse
from .racks import RackFlags, RackTable

MAX_ENUM_ORDER = 6

FAMILY_NAMES = ("racks", "involutory", "quandles", "kei")


class CensusRow(NamedTuple):
    order: int
    family: str
    rack_count: int
    structure_count: int


@lru_cache(maxsize=None)
def _tables(n: int):
    """Integer-indexed S_n arithmetic: perms, products, inverses, a total
    rank on cycle types (identity type ranks lowest), the cycle type of
    each perm and the index of each perm.

    ``prod[p][q]`` is the index of p o q.  Row p is the permutation of the
    indices made by left multiplication by p, so row(p o g) is row(p)
    composed with row(g).  The rows are filled by a breadth-first walk from
    the identity (index 0) over an n-cycle and a transposition, which
    generate S_n.  Row(p o g) has index ``row_p[g]``, so it is composed
    only when that row is still missing: n! - 1 compositions in all.  Each
    row is a tuple, composed by an ``itemgetter`` over row(g).

    The perms are in lexicographic order, as ``itertools.permutations``
    makes them.  The cycle type is computed once per conjugacy class, for
    its first member, and spread to the rest of the class along
    conjugation by the two generators.
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    inv = [index[inverse(p)] for p in perms]
    gens = ([tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
            if n >= 2 else [])
    # n! >= 2 here, so each getter returns a tuple
    gen_rows = [(index[g],
                 itemgetter(*[index[tuple(map(g.__getitem__, q))]
                              for q in perms]))
                for g in gens]
    prod: list = [None] * len(perms)
    prod[0] = tuple(range(len(perms)))
    frontier = [0]
    for p in frontier:
        row_p = prod[p]
        for g, row_g in gen_rows:
            q = row_p[g]
            if prod[q] is None:
                prod[q] = row_g(row_p)
                frontier.append(q)
    # g q g^-1 is prod[prod[g][q]][inv[g]]
    conjugators = [(prod[g], inv[g]) for g, _ in gen_rows]
    types: list = [None] * len(perms)
    for p, perm in enumerate(perms):
        if types[p] is None:
            t = types[p] = cycle_type(perm)
            klass = [p]
            for q in klass:
                for prod_g, ig in conjugators:
                    c = prod[prod_g[q]][ig]
                    if types[c] is None:
                        types[c] = t
                        klass.append(c)
    type_rank = {t: i for i, t in enumerate(sorted(set(types)))}
    rank = [type_rank[t] for t in types]
    return perms, prod, inv, rank, types, index


@lru_cache(maxsize=None)
def _centralizers(n: int) -> tuple[list[list[int]], list[int]]:
    """``cent[i]``: the indices of the permutations that commute with
    permutation i, ascending; ``trans[i]``: the index of a g with
    g p g^-1 = i, p the first member of i's conjugacy class.

    S_n is scanned once per conjugacy class, for the centralizer C(p) of
    its first member p; every other member g p g^-1 gets g C(p) g^-1, and
    g is its ``trans``.  The lists hold n! * p(n) entries in all, p the
    partition count.
    """
    perms, prod, inv, *_ = _tables(n)
    size = len(perms)
    cent: list = [None] * size
    trans = [0] * size
    for p in range(size):
        if cent[p] is not None:
            continue
        prod_p = prod[p]
        c_p = [q for q in range(size) if prod[q][p] == prod_p[q]]
        for g in range(size):
            prod_g, ig = prod[g], inv[g]
            conj = prod[prod_g[p]][ig]
            if cent[conj] is None:
                cent[conj] = sorted(prod[prod_g[q]][ig] for q in c_p)
                trans[conj] = g
    return cent, trans


@lru_cache(maxsize=None)
def _canonical_first_columns(n: int) -> tuple[int, ...]:
    """Perm indices minimal in their orbit under conjugation by Stab(0).

    Conjugation by h relabels the cycles of p, and h(0) = 0 keeps the one
    through 0 there, so two permutations share an orbit exactly when they
    share a cycle type and the length of the cycle through 0.  The perms,
    their indices and cycle types are those of ``_tables``.  Order 0 has no
    point 0 and no shard.
    """
    if n == 0:
        return ()
    perms, _, _, _, types, _ = _tables(n)
    first: dict = {}
    for i, (p, t) in enumerate(zip(perms, types)):
        # the length of the cycle through 0
        length, x = 1, p[0]
        while x:
            length, x = length + 1, p[x]
        first.setdefault((t, length), i)
    return tuple(first.values())


@lru_cache(maxsize=None)
def _rank_order(n: int) -> tuple[list[int], list[int]]:
    """The indices of ``_tables(n)`` sorted by rank, ties by index, and
    their ranks.  A shard's branch pool is the suffix from its column 0's
    rank."""
    rank = _tables(n)[3]
    order = sorted(range(len(rank)), key=rank.__getitem__)
    return order, [rank[i] for i in order]


def _search_shard(n: int, first_col: int) -> list[tuple[int, ...]]:
    """All column assignments with the given canonical first column whose
    column ranks at column 0 and at its fixed points do not decrease, less
    those the swap rule drops.  In the identity shard (first column 0)
    column 1 is the identity as well.

    ``assigned`` is the stack of assigned positions, in assignment order.
    A branch is undone by stack height: the positions it assigned, forced
    ones included, are those past the height the stack had before it."""
    perms, prod, inv, rank, *_ = _tables(n)
    cent, _ = _centralizers(n)
    base_rank = rank[first_col]
    order, order_rank = _rank_order(n)
    k = bisect_left(order_rank, base_rank)
    pool = order[k:]
    top_rank = order_rank[-1]
    # the rank-sorted branch pools with their ranks: the whole pool, and in
    # the identity shard one per m of the identity-prefix rule
    pools: dict = {None: (pool, order_rank[k:])}
    # the positions of S = {0} u Fix(column 0)
    c = perms[first_col]
    ordered = [x == 0 or v == x for x, v in enumerate(c)]
    # the swap rule's transpositions (p q), p, q != 0, that commute with c:
    # its 2-cycles, and pairs of its fixed points, which are allowed only
    # where their columns share a rank (picked at each leaf)
    fixed = [x for x in range(1, n) if c[x] == x]
    cycle_swaps = [_transposition(n, p, c[p]) for p in range(1, n)
                   if p < c[p] and c[c[p]] == p]
    fixed_swaps = [(i, j, _transposition(n, fixed[i], fixed[j]))
                   for i, j in itertools.combinations(range(len(fixed)), 2)]
    cols = [-1] * n
    assigned: list[int] = []
    results: list[tuple[int, ...]] = []

    def assign(t: int, r: int) -> bool:
        queue = [(t, r)]
        while queue:
            t, r = queue.pop()
            if cols[t] != -1:
                if cols[t] != r:
                    return False
                continue
            if ordered[t]:
                k = rank[r]
                for b in assigned:
                    if ordered[b] and (rank[cols[b]] > k if b < t
                                       else rank[cols[b]] < k):
                        return False
            cols[t] = r
            assigned.append(t)
            pr = perms[r]
            prod_r = prod[r]
            ir = inv[r]
            for b in assigned:
                cb = cols[b]
                # target b_b(t) is conj(b_b, b_t)
                s, v = perms[cb][t], prod[prod[cb][r]][inv[cb]]
                cur = cols[s]
                if cur == -1:
                    queue.append((s, v))
                elif cur != v:
                    return False
                # target b_t(b) is conj(b_t, b_b)
                s, v = pr[b], prod[prod_r[cb]][ir]
                cur = cols[s]
                if cur == -1:
                    queue.append((s, v))
                elif cur != v:
                    return False
        return True

    def swap_minimal(swaps) -> bool:
        # whether no h gives rows of h.X, (h.X)[x][y] = h(X[h(x)][h(y)]),
        # lexicographically less than those of X; X[x][y] = b_y(x), so
        # column y of h.X is h b_{h(y)} h.  The first entry in row-major
        # order where the two differ is at the least row x where some column
        # differs, in the least such column, so a difference in row 0
        # decides at once.
        for hi, h in swaps:
            prod_h = prod[hi]
            first, less = n, False
            for hy, old in zip(h, cols):
                new = prod[prod_h[cols[hy]]][hi]
                if new != old:
                    col_new, col_old = perms[new], perms[old]
                    x = 0
                    while col_new[x] == col_old[x]:
                        x += 1
                    if x < first:
                        first, less = x, col_new[x] < col_old[x]
                        if not x:
                            break
            if less:
                return False
        return True

    def extend() -> None:
        if len(assigned) == n:
            ranks = [rank[cols[x]] for x in fixed]
            if swap_minimal(cycle_swaps + [
                    swap for i, j, swap in fixed_swaps
                    if ranks[i] == ranks[j]]):
                results.append(tuple(cols))
            return
        y = cols.index(-1)
        lo, hi = base_rank, top_rank
        if ordered[y]:
            # column 0 is assigned, so y >= 1; its rank lies between
            # those of its assigned neighbours in S
            lo = max(rank[cols[x]] for x in range(y) if ordered[x])
            hi = min((rank[cols[x]] for x in range(y + 1, n)
                      if ordered[x] and cols[x] != -1), default=hi)
        # b_b(y) = y makes b_y commute with b_b; the identity (index 0)
        # commutes with everything
        fixers = sorted({c for c in cols if c > 0 and perms[c][y] == y},
                        key=lambda c: len(cent[c]))
        # the identity-prefix rule (identity shard only): the identity
        # columns are {0..m-1}, or {0..y-1} if b_y is not the identity, and
        # every column maps them into themselves
        m = next((x for x in range(y) if cols[x]), y) if first_col == 0 \
            else None
        if fixers:
            branch = [r for r in cent[fixers[0]] if lo <= rank[r] <= hi]
            for f in fixers[1:]:
                prod_f = prod[f]
                branch = [r for r in branch if prod[r][f] == prod_f[r]]
            if m is not None:
                branch = [r for r in branch if max(perms[r][:m]) < m]
        else:
            # the pool, rank-sorted, already filtered for this m; made on
            # first use
            if m not in pools:
                kept = [r for r in pool if max(perms[r][:m]) < m]
                pools[m] = kept, [rank[r] for r in kept]
            kept, kept_rank = pools[m]
            branch = kept[bisect_left(kept_rank, lo):
                          bisect_right(kept_rank, hi)]
        # the pre-check: the rule b_y(b) for every assigned b and b = y,
        # each a comparison the first pop of assign(y, r) would make
        assigned_cols = [(b, cols[b]) for b in assigned]
        for r in branch:
            pr = perms[r]
            cur = cols[pr[y]]
            if cur != -1 and cur != r:
                continue
            prod_r = prod[r]
            ir = inv[r]
            for b, cb in assigned_cols:
                cur = cols[pr[b]]
                if cur != -1 and cur != prod[prod_r[cb]][ir]:
                    break
            else:
                k = len(assigned)
                if assign(y, r):
                    extend()
                for t in assigned[k:]:
                    cols[t] = -1
                del assigned[k:]

    if first_col == 0:
        # the identity shard holds the racks with two or more identity
        # columns (``_isolated_point_tables`` builds those with one)
        start = n >= 2 and assign(0, 0) and assign(1, 0)
    else:
        start = assign(0, first_col)
    if start:
        extend()
    # extend holds itself through its closure.  Dropping that reference
    # frees this search's lists now rather than in a cyclic collection.
    del extend
    return results


def _transposition(n: int, p: int, q: int) -> tuple[int, list[int]]:
    """The transposition h = (p q) of {0..n-1}: its index in ``_tables(n)``
    and h itself."""
    *_, index = _tables(n)
    h = list(range(n))
    h[p], h[q] = q, p
    return index[tuple(h)], h


def _isomorphisms(n: int, src_cols, src_colors, dst_cols, dst_colors):
    """Yield every phi, an index of ``_tables(n)``, with
    phi b_z phi^-1 = b'_phi(z) for every z: the isomorphisms from the
    table whose column indices are ``src_cols`` to the one whose column
    indices are ``dst_cols``.  The colors are the two tables'
    ``element_colors``.  Each phi is drawn from the centralizer cosets of
    one column (see the module docstring), and no phi is yielded twice."""
    if n == 0:
        yield 0
        return
    perms, prod, inv, *_ = _tables(n)
    cent, trans = _centralizers(n)
    dst_rows = [prod[c] for c in dst_cols]
    targets: dict = {}
    for color, c in zip(dst_colors, dst_cols):
        targets.setdefault(color, set()).add(c)
    # the y that leaves the fewest candidates, |C(b_y)| per distinct column
    # of y's color
    y = min(range(n), key=lambda x: len(cent[src_cols[x]])
            * len(targets.get(src_colors[x], ())))
    c_y = cent[src_cols[y]]
    back = inv[trans[src_cols[y]]]
    for b_v in targets.get(src_colors[y], ()):
        # the phi with phi b_y phi^-1 = b'_v: trans[b'_v] trans[b_y]^-1 C(b_y)
        coset = prod[prod[trans[b_v]][back]]
        for phi in map(coset.__getitem__, c_y):
            # phi b_z = b'_phi(z) phi for every z
            prod_phi = prod[phi]
            for c, px in zip(src_cols, perms[phi]):
                if prod_phi[c] != dst_rows[px][phi]:
                    break
            else:
                yield phi


def _dedupe(n: int, tables) -> list[tuple]:
    """One record ``(cols, rows, colors, flags)`` per isomorphism class of
    the given tables, each given by its column indices in ``_tables(n)``,
    in a deterministic order.

    Each class is represented by the least table (by key, then rows) among
    those it was fed, not by a canonical form: the representative depends
    on the input set, and a relabeled copy fed with it can win.  So a
    certificate or pin on representatives must fix its input set.

    The rows, the ``RackTable.element_colors`` (``colors``) and the
    ``RackTable.flags`` are read off the indices, and the key is the kink's
    flags and cycle type plus the sorted colors.
    """
    perms, _, inv, _, types, index = _tables(n)
    identity = perms[0]
    # per distinct kink: its cycle type and each element's cycle length;
    # per distinct row: its value multiplicities, in descending order
    kinks: dict = {}
    counts: dict = {}
    candidates = []
    for cols in tables:
        kink = tuple(perms[c][x] for x, c in enumerate(cols))
        if kink not in kinks:
            lengths = [1] * n
            for cyc in cycles(kink):
                for x in cyc:
                    lengths[x] = len(cyc)
            kinks[kink] = types[index[kink]], lengths
        kink_type, lengths = kinks[kink]
        rows = tuple(zip(*map(perms.__getitem__, cols)))
        for row in rows:
            if row not in counts:
                counts[row] = tuple(sorted(map(row.count, set(row)),
                                           reverse=True))
        colors = tuple(zip(map(types.__getitem__, cols), lengths,
                           map(counts.__getitem__, rows)))
        flags = RackFlags(is_quandle=kink == identity,
                          is_involutory=all(inv[c] == c for c in cols),
                          kink=kink)
        key = (flags.is_quandle, flags.is_involutory, kink_type,
               tuple(sorted(colors)))
        candidates.append((key, rows, cols, colors, flags))
    candidates.sort(key=itemgetter(0, 1))
    buckets: dict = {}
    records = []
    for key, rows, cols, colors, flags in candidates:
        bucket = buckets.setdefault(key, [])
        if any(next(_isomorphisms(n, cols, colors, *other), None) is not None
               for other in bucket):
            continue
        bucket.append((cols, colors))
        records.append((cols, rows, colors, flags))
    return records


def _isolated_point_tables(n: int) -> list[tuple[int, ...]]:
    """The column indices of {0} u J for every class J of order n - 1 with
    no identity column (index 0): column 0 is the identity, and J's
    columns, moved up by one, fix 0."""
    smaller = _tables(n - 1)[0]
    *_, index = _tables(n)
    return [(0,) + tuple(index[(0,) + tuple(v + 1 for v in smaller[c])]
                         for c in cols)
            for cols, *_ in _rack_classes(n - 1) if 0 not in cols]


@lru_cache(maxsize=None)
def _rack_classes(n: int) -> tuple[tuple, ...]:
    """One record ``(cols, rows, colors, flags)`` per isomorphism class of
    racks of order ``n`` (see ``_dedupe``), deduped from the shard tables
    and the isolated-point split."""
    if n == 0:
        return tuple(_dedupe(0, [()]))
    return tuple(_dedupe(n, [cols for fc in _canonical_first_columns(n)
                             for cols in _search_shard(n, fc)]
                         + _isolated_point_tables(n)))


def _class_records(n: int) -> tuple[tuple, ...]:
    """``_rack_classes(n)`` for an order the census supports."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > MAX_ENUM_ORDER:
        raise NotImplementedError(
            f"rack enumeration is supported for orders <= {MAX_ENUM_ORDER}")
    return _rack_classes(n)


def enumerate_racks(n: int) -> list[RackTable]:
    """One RackTable per isomorphism class of racks of order ``n``, its
    ``columns``, ``column_types``, ``flags`` and ``element_colors`` filled
    from the class's record."""
    records = _class_records(n)
    perms, _, _, _, types, _ = _tables(n)
    racks = []
    for cols, rows, colors, flags in records:
        rack = RackTable(n, rows)
        rack.__dict__.update(columns=tuple(map(perms.__getitem__, cols)),
                             column_types=tuple(map(types.__getitem__, cols)),
                             flags=flags, element_colors=colors)
        racks.append(rack)
    return racks


def _in_family(flags, family: str) -> bool:
    if family == "racks":
        return True
    if family == "involutory":
        return flags.is_involutory
    if family == "quandles":
        return flags.is_quandle
    if family == "kei":
        return flags.is_involutory and flags.is_quandle
    raise ValueError(f"unknown family {family!r}")


def _aut_indices(n: int, cols, colors) -> tuple[list[int], list[int]]:
    """Aut(X) and U_X as indices of ``_tables(n)``, for the table whose
    column indices are ``cols`` and whose ``element_colors`` are
    ``colors``: Aut(X) is the isomorphisms from X to itself, read off the
    centralizer cosets of one column with no isomorphism search (see the
    module docstring)."""
    perms = _tables(n)[0]
    aut = list(_isomorphisms(n, cols, colors, cols, colors))
    listed = list(cols)
    center = [phi for phi in aut
              if [cols[px] for px in perms[phi]] == listed]
    return aut, center


def _structure_class_count(n: int, cols, colors) -> int:
    """The number of orbits of U_X x U_X under diagonal conjugation by
    Aut(X), (1/|Aut|) sum_{g in Aut} |C_U(g)|^2, summed once per conjugacy
    class of Aut over the indices of ``_tables`` that ``_aut_indices``
    gives: h g h^-1 is ``prod[prod[h][g]][inv[h]]``.  If U_X = {id} the
    count is 1, and if U_X = Aut(X) then |C_U(g)| is |Aut| / |K| for g in
    the class K, so no commuting pair is scanned (see the module
    docstring)."""
    aut, center = _aut_indices(n, cols, colors)
    if len(center) == 1:
        return 1
    _, prod, inv, *_ = _tables(n)
    everything = len(center) == len(aut)
    seen: set[int] = set()
    total = 0
    for g in aut:
        if g in seen:
            continue
        klass = {prod[prod[h][g]][inv[h]] for h in aut}
        seen |= klass
        if everything:
            c = len(aut) // len(klass)
        else:
            prod_g = prod[g]
            c = sum(1 for u in center if prod[u][g] == prod_g[u])
        total += len(klass) * c * c
    return total // len(aut)


def _census_rows(n: int, records) -> list[CensusRow]:
    """The per-family rows of ``census_counts`` over the records of the
    classes of order ``n`` (see ``_dedupe``)."""
    per_rack = [(flags, _structure_class_count(n, cols, colors))
                for cols, _, colors, flags in records]
    rows = []
    for family in FAMILY_NAMES:
        members = [(f, c) for f, c in per_rack if _in_family(f, family)]
        rows.append(CensusRow(
            order=n,
            family=family,
            rack_count=len(members),
            structure_count=sum(c for _, c in members),
        ))
    return rows


def census_counts(n: int, jobs: int = 1) -> list[CensusRow]:
    """Structure-class counts per family (racks, involutory, quandles, kei).

    A rack X contributes its number of 4-Legendrian structures up to
    isomorphism, counted by ``_structure_class_count`` on the records of
    ``_rack_classes``.  The census runs in one process; ``jobs`` is
    accepted for existing callers and has no effect.
    """
    return _census_rows(n, _class_records(n))
