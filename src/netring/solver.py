"""Scalar and vector solvability: a cut-set bound first, then one decision
procedure and two search engines.

Before any ring work, solve_scalar's auto strategy, solve_vector and the
default smallest-ring sweep check the cut-set bound (networks.cut_deficit).
A receiver that demands more messages owned in a set of nodes than some
cut between those nodes and it has edges can decode them under no code
over any alphabet of two or more symbols, so the network is unsolvable
over every ring and every module with two or more elements (over the
one-element ring every message is zero and every code decodes, so
solve_scalar checks the bound only for larger rings).  The answer is then
"exhausted-unsolvable", stats["method"] is "cut-set bound at <receiver>:
<c> edges for <s> messages" and stats["cut"] holds the receiver, the
owners, the cut edges and the messages.  The rank and exhaustive
strategies and a sweep of an explicit catalogue skip the bound and stay
raw searches, so they can cross-check it.

_decide answers "is the network scalar-solvable over R?" for solve_scalar's
auto strategy, for every ring of the smallest-ring sweep and for every
dimension of a vector search.  A ring the
rank engine accepts is searched directly.  Any other ring is first reduced
by its maximal two-sided ideals, since a solution pushes down to every
quotient: a simple ring is searched in canonical M_r(GF(q)) form and the
witness carried back through an isomorphism; an unsolvable simple quotient
settles the ring, one that ran out of budget leaves it "budget-exceeded";
only when all are solvable is the ring itself enumerated.  stats["method"]
names the route.

The same fact settles the smallest-ring question without looking at any
ring but the simple ones: every finite ring with identity R has a simple
quotient M_r(GF(q)) with at most |R| elements, equal only when R is
simple.  So the default sweep walks the simple rings by size, each one
rank search, and needs no catalogue, ideals or isomorphisms; an explicit
catalogue goes through the same loop, ring by ring.

A k-dimensional vector code over GF(q) is a scalar code over M_k(GF(q)).
solve_vector stacks the codes of two solved smaller dimensions when it
can, and otherwise runs _decide over M_k(GF(q)).

The node and time budgets bound each front-door call as a whole: one
_Allowance per call hands every engine run the nodes left and the
call's deadline, and charges it what it searched.  A ring or dimension
reached with nothing left is "budget-exceeded" without a search.

* the rank engine covers fields and matrix rings over fields.  A code's
  edge carries a subspace (of dimension at most k) of the row space
  spanned by its tail's inputs, so the search walks subspace assignments
  in topological order, pruning each receiver once its inputs are
  settled.  Inputs are resolved once through forwarding chains, and each
  subspace (a reduced echelon basis, bit-packed over GF(2)) is interned as
  an int id.  A position is a bundle: the c parallel searched edges from
  one tail to one head.  Downstream sees only the sum of their subspaces,
  and every subspace of dimension at most c k is such a sum, so the
  bundle is one variable with cap c k, and the witness splits its echelon
  basis into c pieces of at most k rows.  Three arguments shrink the walk
  without losing a solution:
  - dominance: a position tries only subspaces of dimension
    min(dim tail, cap).  Enlarging a subspace only enlarges the spans
    downstream, and a receiver check only gets easier as its spans grow,
    so every solution enlarges, position by position in topological
    order, to one of these.
  - message symmetry: G = prod over messages of GL(k, q), acting
    block-diagonally on the message coordinates, maps solutions to
    solutions of the same dimensions, since every demand is a sum of
    whole message blocks.  So does the swap of two messages' coordinate
    blocks when it maps the problem onto itself with every position
    fixed: every tail's message set holds both messages or neither, and
    swapping them in every message set maps the multiset of receiver
    checks (fixed messages and positions, free messages and positions,
    demand) onto itself, as for the M-network's W and X or any two of a
    dim-n source's messages.  Such a swap takes each position's span of
    allowed subspaces to itself and each check's test to that of its
    image.  A searched position is claimed when its tail carries only
    messages, a set B disjoint from those of the positions claimed before
    it; its swaps are the swaps of two messages of B that also appear in
    no earlier position's tail.  Its candidates then do not depend on the
    rest of the assignment, and its orbit group H_B, generated by G_B =
    prod over B of GL(k, q) and its swaps, acts on B's coordinates alone,
    so it fixes every other claimed position.  So one element of the
    group they generate moves any solution to one whose claimed positions
    each hold the least echelon form of their H_B orbit, and only those
    are tried there.  Orbits are found lazily under generators of H_B
    (I + E_ij inside a message's block, a primitive scalar on its first
    coordinate, the swaps).  Generators of a subgroup give finer orbits,
    so this stays sound for any drawn from that group, never for one
    outside it (such as a swap of messages that moves a check).  The
    first solution found does not change either: no position before a
    claimed one carries B's coordinates, so H_B fixes them all, and if
    an element of H_B lowered the claimed value of the lex-least solution
    of the walk restricted by G_B alone, it and then sorting the twins
    (below) would give a smaller solution of that walk.  Over GF(2) with
    k = 1, G_B is trivial: a position is claimed there only when it has
    swaps and belongs to no class of the twin map built with nothing
    claimed, since claiming a twin gives up more pruning than its orbits
    bring (choose-two over GF(2): 14 nodes against 19).  stats["swaps"]
    counts the swaps among the generators, stats["orbit_skips"] the
    candidates that lead no orbit.
  - position symmetry: two unclaimed positions are twins when their tails
    resolve to the same sources, their caps agree, every other position's
    tail reads both or neither, and swapping them maps the multiset of
    receiver checks onto itself (choose-two's relay edges).  The swap
    then maps solutions to solutions, and so does every permutation of a
    class of twins, since the swaps with its first member generate them
    all.  So every solution sorts, class by class,
    into one whose twins hold non-decreasing candidates, and a twin's
    candidates start at its previous twin's value.  The walk finds the
    lex-least solution, which is already sorted (a twin pair out of order
    would swap into a smaller one), so the verdict and the witness do not
    change.  Claimed positions are left out: then sorting moves no
    claimed value, so a solution moved by G onto orbit leaders stays on
    them, whereas a swap through a claimed position could put a value
    that leads no orbit there.  stats["twins"] counts the positions with
    an earlier twin.
  A receiver with no out-edges and one unforwarded in-edge takes that
  edge as free, chosen while the receiver is checked, and is checked
  exactly: with w0 the span of its fixed inputs, u that of its demands
  and f that of the free edge's tail, some subspace of f of dimension at
  most k completes w0 to u exactly when dim((w0 + u)/w0) <= k (the
  dimension test, which reads the fixed inputs only) and u lies in
  w0 + f (the reach test).  The full check runs after the last position
  it reads; the dimension test also runs after the last fixed one when
  that comes earlier.
  The walk learns from failure by conflict-directed backjumping (Prosser
  1993).  Each depth keeps the set of earlier positions its dead ends
  depend on: those its tail reads (they fix its candidate list), its
  previous twin (whose value starts the list), and, for each candidate
  that fails a test, the positions that test reads (the fixed ones for
  the dimension test, fixed and free for the reach test).  Each is a
  nogood: while those positions keep their values, no candidate here
  leads to a solution.  So when a depth runs out, the walk jumps to the
  deepest position in its set, merges the set into that position's, and
  drops everything in between; an empty set ends the search.  Orbit
  leaders and shards restrict a position's list whatever the other
  positions hold, so they add nothing to the set.  The twin restriction
  depends on the previous twin alone, which must be in it: a larger value
  there only shortens the list, but a jump past it would drop the reasons
  its own smaller values failed.  A jump skips only subtrees that hold
  no solution of the restricted walk, so the lex-least solution is still
  the first one found and the witness does not change.
  stats["backjumps"] counts the jumps that skip at least one position.
  Half of this depends on the network alone, and a sweep, a vector search
  or a quotient route searches one network over field after field.  So
  that half is compiled once per network and forwarding setting, from
  the network's compiled form (networks module notes), into a _Shape
  kept on the Network: the plan, the bundles and their edge counts, each
  tail and receiver check as (message set, positions) with message sets
  as bitmasks, the demands, the schedule of checks and the masks they
  read, the claimable positions with their messages and swaps, and the
  twin maps.  Each search over M_k(GF(q)) then only maps every message
  set to the id of its span, sets the caps (c k) and the generators of
  each claimed position's orbit group, and walks.  The span of a message
  set is a coordinate subspace, so equal ids are equal sets, and the
  walk, its counts and its witness are those of a search that compiled
  the network afresh.  The field enters the claims only through whether
  G_B is trivial (GF(2) with k = 1, where only positions with swaps and
  no twin are claimed), so the shape keeps two twin maps, the one with
  nothing claimed and the one with every claimable position claimed,
  each built by _twins on first use, and the swaps of each claimable
  position, found once by _swaps.
  stats["shape"] says whether the search "built" its shape or "reused"
  it, and stats["phase_seconds"] times the compile (the shape and a twin
  map not built before; 0.0 when nothing was built), the search, the
  witness and its verification.
  The witness turns the subspace assignment into coefficients.  It reads
  each node's inputs as the plan's stacks give them, followed through
  forwarding to the searched or free edge or the message they carry.  Per
  field, each node's input rows are eliminated once into reduced echelon
  form, every basis row carrying the combination of input rows behind it
  (on the search's packed ints over GF(2), whatever k), and a target's
  combination is read off them: a unit target's (every decoding and every
  lift) is the one of the basis row at its pivot, and a node whose inputs
  are all messages has the target's own entries.  A free edge lifts the
  demanded unit rows outside the span of its receiver's fixed inputs and
  of the rows lifted before, tested against one growing echelon basis;
  each is written over the fixed rows and then its tail's, and the tail
  rows' part is its lift.  None of this can move a coefficient: the rows
  are taken in order and each one in the span of those before is dropped,
  so a combination is the unique one over the independent rows with zero
  on the dependent ones, which is what the earlier construction by
  fl.rref and a solve per target gave too (tests/test_rank_witness.py
  keeps it).
* the exhaustive engine covers every ring with dense tables.  It
  enumerates coefficient tuples in lexicographic order, propagating
  symbolic transfer rows for whole blocks of assignments at once through
  numpy table gathers.  A receiver then decides each distinct input once
  per block: the t input rows of every (assignment, local choice) pack
  into one exact integer key, np.unique leaves the distinct tuples, all
  |R|^t decode combinations of each are built at once, and the verdicts
  scatter back to the rows.  stats["receiver_checks"] counts the distinct
  tuples decided, stats["memo_hits"] the rows that reused a verdict, and
  stats["phase_seconds"] has the rank engine's keys, compile always 0.0
  (the engine keeps nothing between searches).

The exhaustive engine reports "exhausted-unsolvable" only after a
complete enumeration, the rank engine only after a walk that is complete
up to dominance, message symmetry and position symmetry; budget ceilings
(NETRING_BUDGET) end a search early with an explicit "budget-exceeded"
instead.  Both engines pin capacity forwarding by default: a bundle of c
parallel edges out of a node v with at most c inputs forwards them, its
i-th edge v's i-th input (cycling when c is larger), with coefficient one
there and zero elsewhere.  This never changes the verdict, over any ring:
the head then receives every input of v itself, so whatever combination
sum_j a_ij x_j an old code sent on the bundle's edge i, the head rebuilds
by left-multiplying the inputs it now holds, and each coefficient b_i it
applied to that edge becomes sum_i b_i a_ij on input j.  Edges out of a
single-input node are the case c >= 1.  The pinning can be switched off
for cross-checks against raw enumeration.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as _field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import fieldlinalg as fl
from . import modules as _modules
from . import rings as _rings
from . import transforms as _transforms
from .codes import LinearCode, verify_solution
from .networks import Network, cut_deficit, validate_network
from .rings import Ring, RingDescriptor, construct_ring

DEFAULT_NODE_BUDGET = 20_000_000
CHUNK = 1 << 12
LOCAL_BUDGET = 1 << 12     # joint coefficient space of one receiver's free edges
DECODE_BUDGET = 1 << 15    # decode tuples per demand


def _env_budget() -> int:
    raw = os.environ.get("NETRING_BUDGET", "")
    if raw.strip():
        return int(raw)
    return DEFAULT_NODE_BUDGET


STRATEGIES = ("auto", "rank", "exhaustive")


@dataclass
class SearchOptions:
    normalize_forwarding: bool = True
    strategy: str = "auto"              # one of STRATEGIES
    node_budget: int = _field(default_factory=_env_budget)
    time_budget: Optional[float] = None  # seconds, None = unlimited
    shards: int = 1
    shard_index: int = 0


def _validated(net: Network, options: Optional[SearchOptions]) -> SearchOptions:
    """The options to search with; ValueError on an invalid network or on
    options no search can honour.

    Checked when a search starts, not on construction, because the CLI
    sets fields one by one.  An out-of-range shard would search nothing
    and read as "exhausted-unsolvable", so it must never get that far."""
    opts = options or SearchOptions()
    if opts.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {opts.strategy!r}")
    if opts.shards < 1:
        raise ValueError(f"shards must be at least 1, got {opts.shards}")
    if not 0 <= opts.shard_index < opts.shards:
        raise ValueError(f"shard index {opts.shard_index} is outside "
                         f"0..{opts.shards - 1}")
    if opts.node_budget < 1:
        raise ValueError(f"node budget must be at least 1, "
                         f"got {opts.node_budget}")
    if opts.time_budget is not None and not opts.time_budget > 0:
        raise ValueError(f"time budget must be positive, "
                         f"got {opts.time_budget}")
    issues = validate_network(net)
    if issues:
        raise ValueError("invalid network: " + "; ".join(issues))
    return opts


def _check_axioms(ring: Ring) -> None:
    """ValueError naming the first failed axiom and its witness when a
    table ring, whose tables came from outside, is not a ring; every other
    kind is one by construction."""
    if ring.kind != "table":
        return
    report = _rings.verify_ring_axioms(ring)
    for name, ok in report.axioms.items():
        if not ok and name in report.witnesses:
            raise ValueError(f"{_rings.describe(ring.descriptor)} is not a "
                             f"ring: {name} fails at elements "
                             f"{report.witnesses[name]}")


@dataclass
class SolveResult:
    status: str                 # "solved" | "exhausted-unsolvable" | "budget-exceeded"
    code: Optional[LinearCode]
    stats: dict

    @property
    def solved(self) -> bool:
        return self.status == "solved"


class _Budget(Exception):
    pass


# why a rank search is refused before its first node: a position's
# candidates alone need more nodes than are left
_TOO_MANY_CANDIDATES = "edge candidates outnumber the node budget"


class _Allowance:
    """What one front-door call may still search: nodes (assignments, for
    the exhaustive engine) and time up to an absolute deadline.  Every
    engine call goes through search(), which hands the engine the nodes
    left and the deadline and charges it what it searched on the way out,
    so the budgets bound the whole call and a memoized verdict is never
    charged twice.  A search refused because its candidates outnumber the
    nodes left is charged all of them: it needs more than the call has,
    so every later ring or dimension is "no node budget left", as after a
    search the budget stopped."""

    def __init__(self, opts: SearchOptions):
        self.budget = opts.node_budget
        self.spent = 0
        self.deadline = (None if opts.time_budget is None
                         else time.perf_counter() + opts.time_budget)

    def search(self, engine, net: Network, ring: Ring, opts: SearchOptions,
               *planned) -> SolveResult:
        res = engine(net, ring, opts, self.budget - self.spent, self.deadline,
                     *planned)
        self.spent += res.stats.get("nodes", res.stats.get("assignments", 0))
        if res.stats.get("reason") == _TOO_MANY_CANDIDATES:
            self.spent = max(self.spent, self.budget)
        return res

    def used_up(self, name: str) -> Optional[SolveResult]:
        """A "budget-exceeded" result for the ring called name when no
        nodes or no time are left to search it, else None."""
        what = ("node budget" if self.spent >= self.budget else
                "time budget" if self.deadline is not None
                and time.perf_counter() >= self.deadline else None)
        if what is None:
            return None
        return SolveResult("budget-exceeded", None, {
            "method": f"no {what} left for {name}",
            "reason": f"{what} exhausted"})


# ---------------------------------------------------------------------------
# edge classification, shared by both strategies

class _Plan:
    """Edges, by id (networks.Compiled), split into forwarding,
    receiver-free and searched groups.

    normalized: edge -> the input of its tail that it forwards (module
                notes: a bundle of c parallel edges out of a node with at
                most c inputs forwards them, its i-th edge the i-th input,
                cycling when c is larger).
    forward_at: edge -> (the index of that input, its tail's input count).
    local_of:   receiver node -> edges whose value only that receiver sees
                and that can therefore be chosen while checking it, when
                joint_cap(those edges, their coefficient count) allows.
    outer:      everything else, in topological order; these carry the
                search variables.
    stacks:     node -> its inputs through forwarding (stack).
    """

    def __init__(self, net: Network, opts: SearchOptions, joint_cap=None):
        cn = self.compiled = net.compiled()
        receivers = {v for _, v, _ in cn.receivers}
        self.normalized = {}
        self.forward_at = {}
        candidates = {}
        outer = []
        parallel = {}      # tail of 2+ inputs -> head -> edges, by ordinal
        for e, (tail, head) in enumerate(zip(cn.tails, cn.heads)):
            ins = cn.inputs[tail]
            if opts.normalize_forwarding and len(ins) == 1:
                self.normalized[e] = ins[0]
                self.forward_at[e] = 0, 1
                continue
            if opts.normalize_forwarding and ins:
                if tail not in parallel:
                    # out-edges come sorted by head, then ordinal
                    by_head = parallel[tail] = {}
                    for f in cn.out_of[tail]:
                        by_head.setdefault(cn.heads[f], []).append(f)
                bundle = parallel[tail][head]
                if len(ins) <= len(bundle):
                    j = bundle.index(e) % len(ins)
                    self.normalized[e] = ins[j]
                    self.forward_at[e] = j, len(ins)
                    continue
            if head in receivers and not cn.out_of[head]:
                candidates.setdefault(head, []).append(e)
            else:
                outer.append(e)
        self.local_of = {}
        for r, edges in candidates.items():
            if joint_cap is not None and not joint_cap(edges,
                                                       self.arity(edges)):
                outer += edges
            else:
                self.local_of[r] = edges
        self.outer = sorted(outer)
        self.stacks = {}

    def stack(self, v: int) -> tuple:
        """Node v's inputs, each followed through forwarding edges to a
        message or an edge that does not forward, kept on first use."""
        got = self.stacks.get(v)
        if got is None:
            got = []
            for x in self.compiled.inputs[v]:
                while x >= 0 and x in self.normalized:
                    x = self.normalized[x]
                got.append(x)
            got = self.stacks[v] = tuple(got)
        return got

    def arity(self, edges) -> int:
        """The coefficients the edges take: their tails' inputs."""
        cn = self.compiled
        return sum(len(cn.inputs[cn.tails[e]]) for e in edges)

    def forwarding(self, one) -> list:
        """Coefficients by edge id: for each forwarding edge one at the
        input it forwards and zero (index 0 in every ring) elsewhere, None
        for every other edge."""
        patterns = {at: tuple(one if i == at[0] else 0 for i in range(at[1]))
                    for at in set(self.forward_at.values())}
        out = [None] * len(self.compiled.edges)
        for e, at in self.forward_at.items():
            out[e] = patterns[at]
        return out


# ---------------------------------------------------------------------------
# rank strategy: subspace assignments over a field

class _Gf2Alg:
    """Subspaces as tuples of packed-int echelon rows."""

    zero = 0

    def __init__(self, width: int):
        self.width = width

    def unit(self, j: int):
        return 1 << j

    def canon(self, rows):
        return fl.rref2(rows)

    def add_spaces(self, a, b):
        return fl.space_sum2(a, b)

    def mix(self, basis, coord):
        acc = 0
        for c, b in zip(coord, basis):
            if c:
                acc ^= b
        return acc

    def transvection(self, i: int, j: int):
        """row -> row times I + E_ij: column i added into column j."""
        bit, flip = 1 << i, 1 << j
        return lambda row: row ^ flip if row & bit else row

    def swap(self, i: int, j: int, k: int):
        """row -> row with columns i..i+k-1 and j..j+k-1 exchanged."""
        block = (1 << k) - 1

        def image(row):
            moved = (row >> i ^ row >> j) & block
            return row ^ (moved << i | moved << j)
        return image

    # -- the witness's elimination, on rows augmented by their tags: a
    # tag is packed above the row's width bits

    def eliminate(self, rows, tags=None, piv=None):
        """The reduced echelon form of rows, each basis row with the same
        combination of tags (by default the transform: row i's tag is bit
        i), as pivot bit -> row | tag << width; piv, when given, is
        continued in place.  Rows that reduce to zero are dropped."""
        width, mask = self.width, (1 << self.width) - 1
        if tags is None:
            tags = [1 << i for i in range(len(rows))]
        if piv is None:
            piv = {}
        for row, tag in zip(rows, tags):
            row |= tag << width
            for bit, b in piv.items():
                if row & bit:
                    row ^= b
            if row & mask:
                bit = row & -row
                for other, b in list(piv.items()):
                    if b & bit:
                        piv[other] = b ^ row
                piv[bit] = row
        return piv

    def unit_tag(self, piv, j: int):
        """The tag of unit row j, None when it is outside the span: in a
        reduced echelon basis that row is the basis row at pivot j."""
        bit = 1 << j
        got = piv.get(bit)
        if got is None or got & ((1 << self.width) - 1) != bit:
            return None
        return got >> self.width

    def express(self, piv, row, n: int):
        """The tag of row, None when it is outside the span: the basis row
        at each pivot bit of what is left, lowest first."""
        mask = (1 << self.width) - 1
        while row & mask:
            got = piv.get(row & -row)
            if got is None:
                return None
            row ^= got
        return row >> self.width

    def pick(self, row, cols):
        """The entries of row at cols, None when it has others."""
        mask = 0
        for c in cols:
            mask |= 1 << c
        if row & ~mask:
            return None
        return tuple(row >> c & 1 for c in cols)

    def entries(self, tag, n: int):
        return tuple(tag >> i & 1 for i in range(n))


class _GenAlg:
    """Subspaces as tuples of coordinate-tuple echelon rows."""

    def __init__(self, ops: fl.FieldOps, width: int):
        self.ops = ops
        self.width = width
        self.zero = (0,) * width

    def unit(self, j: int):
        return tuple(1 if i == j else 0 for i in range(self.width))

    def canon(self, rows):
        return fl.canon_space(self.ops, rows)

    def add_spaces(self, a, b):
        return fl.space_sum(self.ops, a, b)

    def mix(self, basis, coord):
        ops = self.ops
        acc = tuple(0 for _ in range(self.width))
        for c, b in zip(coord, basis):
            if c:
                mc = ops.mul[c]
                acc = tuple(ops.add[x][mc[y]] for x, y in zip(acc, b))
        return acc

    def transvection(self, i: int, j: int):
        """row -> row times I + E_ij: column i added into column j."""
        add = self.ops.add

        def image(row):
            if not row[i]:
                return row
            out = list(row)
            out[j] = add[row[j]][row[i]]
            return tuple(out)
        return image

    def scaling(self, j: int, a: int):
        """row -> row times diag(1, .., a, .., 1): column j scaled by a."""
        mul = self.ops.mul[a]

        def image(row):
            out = list(row)
            out[j] = mul[row[j]]
            return tuple(out)
        return image

    def swap(self, i: int, j: int, k: int):
        """row -> row with columns i..i+k-1 and j..j+k-1 exchanged."""
        def image(row):
            out = list(row)
            out[i:i + k], out[j:j + k] = row[j:j + k], row[i:i + k]
            return tuple(out)
        return image

    # -- the witness's elimination, on rows augmented by their tags: a
    # list, the row's width entries and then the tag's

    def eliminate(self, rows, tags=None, piv=None):
        """The reduced echelon form of rows, each basis row with the same
        combination of tags (by default the transform: row i's tag is unit
        row i), as pivot column -> row + tag; piv, when given, is continued
        in place.  Rows that reduce to zero are dropped."""
        add, mul, neg, inv = self.ops.add, self.ops.mul, self.ops.neg, \
            self.ops.inv
        width, n = self.width, len(rows)
        if piv is None:
            piv = {}
        for i, row in enumerate(rows):
            if tags is None:
                row = [*row, *[0] * n]
                row[width + i] = 1
            else:
                row = [*row, *tags[i]]
            for p, b in piv.items():
                c = row[p]
                if c:
                    mc = mul[neg[c]]
                    row = [add[x][mc[y]] for x, y in zip(row, b)]
            for p in range(width):
                if row[p]:
                    break
            else:
                continue
            c = row[p]
            if c != 1:
                mc = mul[inv[c]]
                row = [mc[x] for x in row]
            for other, b in list(piv.items()):
                c = b[p]
                if c:
                    mc = mul[neg[c]]
                    piv[other] = [add[x][mc[y]] for x, y in zip(b, row)]
            piv[p] = row
        return piv

    def unit_tag(self, piv, j: int):
        """The tag of unit row j, None when it is outside the span: in a
        reduced echelon basis that row is the basis row at pivot j."""
        got = piv.get(j)
        width = self.width
        if got is None or got[:width].count(0) != width - 1:
            return None
        return tuple(got[width:])

    def express(self, piv, row, n: int):
        """The tag of row, None when it is outside the span: in a reduced
        echelon basis, row's coefficient on the basis row at pivot p is
        row[p], so subtracting them leaves zero and minus the tag."""
        add, mul, neg = self.ops.add, self.ops.mul, self.ops.neg
        rest = [*row, *[0] * n]
        for p, b in piv.items():
            c = row[p]
            if c:
                mc = mul[neg[c]]
                rest = [add[x][mc[y]] for x, y in zip(rest, b)]
        if any(rest[:self.width]):
            return None
        return [neg[x] for x in rest[self.width:]]

    def pick(self, row, cols):
        """The entries of row at cols, None when it has others."""
        got = tuple(row[c] for c in cols)
        if len(row) - row.count(0) != len(got) - got.count(0):
            return None
        return got

    def entries(self, tag, n: int):
        return tuple(tag)


# the rings the rank strategy accepts, as (field, k)
_rank_parts = _rings.field_view


def _twins(tails, caps, checks, claimed):
    """Each searched position with an earlier twin, mapped to the one
    before it in its class (module notes).  Positions a and b are twins
    when neither is claimed, tails[a] == tails[b], caps[a] == caps[b],
    every other position's tail reads both or neither, and swapping them
    maps the multiset of receiver checks (fixed sources, free sources,
    demand) onto itself.  A position joins the first class whose first
    member it twins; swaps with one member generate every permutation of
    the class.  Only positions that agree on the tail, its readers and
    the checks they take part in, each seen from the position, are ever
    tested, and a test compares only the checks the swap moves."""
    shared = {}        # (tail, cap) -> unclaimed positions
    for i, tail in enumerate(tails):
        if i not in claimed:
            shared.setdefault((tail, caps[i]), []).append(i)
    shared = [group for group in shared.values() if len(group) > 1]
    if not shared:
        return {}
    readers = {}
    for i, (_, at) in enumerate(tails):
        for p in at:
            readers.setdefault(p, []).append(i)
    keys = [_check_key(check) for check in checks]
    touching = {}
    for j, ((_, at), free, _) in enumerate(checks):
        for p in set(at + (free[1] if free else ())):
            touching.setdefault(p, set()).add(j)

    def role(p):
        """What a swap of p with a twin keeps: its readers and, per check
        it takes part in, the check's shape and where p sits in it."""
        seen = []
        for j in touching.get(p, ()):
            (c, at), free, u = checks[j]
            f, f_at = free or (-1, ())
            seen.append((c, len(at), p in at, f, len(f_at), p in f_at, u))
        return tuple(readers.get(p, ())), tuple(sorted(seen))

    def interchangeable(a, b):
        """Whether swapping a and b maps the checks it moves onto
        themselves; a check that reads both or neither of them, among its
        fixed and among its free sources alike, stays as it is."""
        ab = 1 << a | 1 << b
        moved, image = [], []
        for j in touching.get(a, set()) | touching.get(b, set()):
            c, at, f, f_at, u = key = keys[j]
            flip, f_flip = (at & ab) not in (0, ab), (f_at & ab) not in (0, ab)
            if flip or f_flip:
                moved.append(key)
                image.append((c, at ^ ab if flip else at, f,
                              f_at ^ ab if f_flip else f_at, u))
        return sorted(moved) == sorted(image)

    earlier = {}
    for group in shared:
        classes = {}   # role -> classes, lists of positions
        for i in group:
            same = classes.setdefault(role(i), [])
            for members in same:
                if interchangeable(members[0], i):
                    earlier[i] = members[-1]
                    members.append(i)
                    break
            else:
                same.append([i])
    return earlier


def _mask(at) -> int:
    bits = 0
    for p in at:
        bits |= 1 << p
    return bits


def _check_key(check):
    """A receiver check as one flat tuple of ints: fixed messages and
    positions, free messages (-1 without a free edge) and positions,
    demand; message sets and positions as bitmasks, so a swap of two
    positions or of two messages flips two bits."""
    (c, at), free, u = check
    f, f_at = free or (-1, ())
    return c, _mask(at), f, _mask(f_at), u


def _swaps(tails, checks, claimable):
    """Each claimable position with swaps, mapped to them: the
    transpositions (a, b) of two of its messages that map the problem onto
    itself with every position fixed (module notes).  No earlier
    position's tail carries a or b, every tail's message set holds both or
    neither, and swapping a and b in every message set maps the multiset
    of receiver checks (fixed messages and positions, free messages and
    positions, demand) onto itself."""
    if all(len(own) < 2 for _, own in claimable):
        return {}
    keys = sorted(_check_key(check) for check in checks)

    def swapped(bits, ab):
        return bits ^ ab if (bits & ab) not in (0, ab) else bits

    carried = [0]      # position i -> the messages the tails before it carry
    for c, _ in tails:
        carried.append(carried[-1] | c)
    found = {}
    for i, own in claimable:
        for x, a in enumerate(own):
            for b in own[x + 1:]:
                ab = 1 << a | 1 << b
                if carried[i] & ab or any(swapped(c, ab) != c
                                          for c, _ in tails):
                    continue
                if keys == sorted((swapped(c, ab), at, swapped(f, ab), f_at,
                                   swapped(u, ab))
                                  for c, at, f, f_at, u in keys):
                    found.setdefault(i, []).append((a, b))
    return found


class _Shape:
    """The part of a rank search that depends on the network alone, built
    once per forwarding setting and kept on the Network (module notes).
    Message sets are bitmasks over net.message_names; positions are
    indices into bundles.

    plan, bundles:  the rank _Plan and its searched bundles, each an edge
                    list in ordinal order, in the order of their first
                    edges (topological); a bundle of c edges has cap c k.
    sizes:          each bundle's edge count c.
    local_one:      receiver -> its one free edge.
    tails:          per position, its tail's sources (messages, positions).
    tail_reads:     per position, the positions its tail reads, as a mask.
    checks:         per receiver, its fixed sources, its free edge's tail
                    sources (None without one) and its demanded messages.
    reads:          per check, the positions its fixed inputs read and
                    those its fixed and free inputs read, as masks.
    ready:          depth -> (check, whether the dimension test only).
    claimable:      (position, message indices) of each position whose
                    tail carries messages only, none of an earlier one's.
    swaps:          claimable position -> the transpositions of two of its
                    messages that map the problem onto itself with every
                    position fixed, as pairs of message indices (_swaps).
    twin_maps:      claimed -> the twin map with every claimable position
                    claimed (True) or none (False), built by twin_map.
    message_sets:   every nonzero message set above, for a search to map
                    to the ids of their spans.
    """

    def __init__(self, net: Network, opts: SearchOptions):
        self.msgs = net.message_names
        # the rank receiver check handles one free edge exactly; several
        # free edges at one receiver go back into the searched set instead
        plan = self.plan = _Plan(net, opts,
                                 joint_cap=lambda edges, _: len(edges) == 1)
        cn = plan.compiled
        # a bundle of c parallel searched edges is one position: downstream
        # sees only the sum of its edges, a subspace of dimension at most c k
        grouped = {}
        for e in plan.outer:
            grouped.setdefault((cn.tails[e], cn.heads[e]), []).append(e)
        bundles = self.bundles = list(grouped.values())
        pos = {e: i for i, bundle in enumerate(bundles) for e in bundle}
        self.sizes = [len(bundle) for bundle in bundles]
        self.local_one = {r: edges[0] for r, edges in plan.local_of.items()}

        sets = self.message_sets = set()

        def sources(v, skip=None):
            """Node v's inputs but skip, through forwarding chains: the
            messages among them and the searched positions."""
            const, at = 0, set()
            for x in plan.stack(v):
                if x < 0:
                    const |= 1 << ~x
                elif x != skip:
                    at.add(pos[x])
            sets.add(const)
            return const, tuple(sorted(at))

        tails = self.tails = [sources(cn.tails[bundle[0]])
                              for bundle in bundles]
        self.tail_reads = [_mask(at) for _, at in tails]

        # a receiver is checked right after the last position it reads,
        # and with a free edge its dimension test also right after the
        # last fixed one
        checks, reads, ready = self.checks, self.reads, self.ready = [], [], {}
        for _, r, demanded in cn.receivers:
            free_edge = self.local_one.get(r)
            fixed = sources(r, free_edge)
            free = (None if free_edge is None
                    else sources(cn.tails[free_edge]))
            fixed_reads = _mask(fixed[1])
            all_reads = fixed_reads | (_mask(free[1]) if free else 0)
            demand = _mask(demanded)
            sets.add(demand)
            # the deepest position read, -1 for none
            depth, first = (all_reads.bit_length() - 1,
                            fixed_reads.bit_length() - 1)
            ready.setdefault(depth, []).append((len(checks), False))
            if first < depth:
                ready.setdefault(first, []).append((len(checks), True))
            checks.append((fixed, free, demand))
            reads.append((fixed_reads, all_reads))
        sets.discard(0)

        self.claimable = []
        taken = 0
        for i, (const, at) in enumerate(tails):
            if at or not const or const & taken:
                continue
            taken |= const
            self.claimable.append((i, [m for m in range(len(self.msgs))
                                       if const >> m & 1]))
        self.swaps = _swaps(tails, checks, self.claimable)
        self.twin_maps = {}

    def twin_map(self, claimed: bool) -> dict:
        """The twin map with every claimable position claimed, or none,
        built on first use."""
        got = self.twin_maps.get(claimed)
        if got is None:
            got = self.twin_maps[claimed] = _twins(
                self.tails, self.sizes, self.checks,
                {i for i, _ in self.claimable} if claimed else ())
        return got


def _solve_rank(net: Network, ring: Ring, opts: SearchOptions, budget: int,
                deadline: Optional[float]) -> SolveResult:
    """Rank search of at most budget nodes, stopped at the deadline: the
    network's compiled shape, built on first use, searched over the
    ring's field."""
    t0 = time.perf_counter()
    field, k = _rank_parts(ring)
    shape = net._shapes.get(opts.normalize_forwarding)
    built = shape is None
    if built:
        shape = net._shapes[opts.normalize_forwarding] = _Shape(net, opts)
    # interchangeable positions: each twin starts at its class's previous
    # member's value, so a class is walked in non-decreasing order; the
    # twin map leaves every claimable position out unless G_B is trivial
    # (GF(2), k = 1)
    claimed = bool(shape.claimable) and (field.size != 2 or k != 1)
    compiled = built or claimed not in shape.twin_maps
    twin_of = shape.twin_map(claimed)
    t1 = time.perf_counter()
    ops = fl.FieldOps(field)
    q = field.size
    msgs = shape.msgs
    width = k * len(msgs)
    alg = _Gf2Alg(width) if q == 2 else _GenAlg(ops, width)

    # every distinct subspace gets an int id the first time it is seen;
    # the caches and the search state below hold ids, not echelon tuples
    spaces = []        # id -> canonical echelon tuple
    dims = []          # id -> dimension
    ids = {}           # canonical echelon tuple -> id

    def intern(space):
        got = ids.get(space)
        if got is None:
            got = ids[space] = len(spaces)
            spaces.append(space)
            dims.append(len(space))
        return got

    zero = intern(())
    sums = {}

    def plus(a, b):
        if a == b or b == zero:
            return a
        if a == zero:
            return b
        key = (a, b) if a < b else (b, a)
        got = sums.get(key)
        if got is None:
            big, small = (a, b) if dims[a] >= dims[b] else (b, a)
            got = sums[key] = intern(alg.add_spaces(spaces[big],
                                                    spaces[small]))
        return got

    unit_ids = [intern(alg.canon([alg.unit(m * k + a) for a in range(k)]))
                for m in range(len(msgs))]
    # the shape's message sets become the ids of their spans: the span of
    # a message set is a coordinate subspace, so equal ids are equal sets
    span_of = {0: zero}
    for bits in shape.message_sets:
        got = zero
        for m, unit in enumerate(unit_ids):
            if bits >> m & 1:
                got = plus(got, unit)
        span_of[bits] = got
    bundles, ready, reads = shape.bundles, shape.ready, shape.reads
    tail_reads = shape.tail_reads
    caps = [c * k for c in shape.sizes]
    tails = [(span_of[const], at) for const, at in shape.tails]
    checks = [((span_of[fixed[0]], fixed[1]),
               None if free is None else (span_of[free[0]], free[1]),
               span_of[demand]) for fixed, free, demand in shape.checks]
    cur = [zero] * len(bundles)  # id assigned to each searched position

    def span(src):
        acc, at = src
        for p in at:
            acc = plus(acc, cur[p])
        return acc

    cand_cache = {}

    def candidates(tail, cap):
        """The subspaces of the tail's span a position of that cap may
        carry: only the largest, since a larger one is never worse (module
        notes), in echelon order.  Listed whole before the first node is
        tried, so the budgets bound the listing too."""
        got = cand_cache.get((tail, cap))
        if got is None:
            space = spaces[tail]
            d = len(space)
            if fl.gaussian_binomial(d, min(d, cap), q) > budget:
                raise _Budget(_TOO_MANY_CANDIDATES)
            forms = []
            for form in fl.echelon_forms(q, d, min(d, cap)):
                forms.append(alg.canon([alg.mix(space, c) for c in form]))
                if deadline is not None and len(forms) % 1024 == 0 \
                        and time.perf_counter() > deadline:
                    raise _Budget("time budget exhausted")
            got = cand_cache[(tail, cap)] = [intern(s) for s in sorted(forms)]
        return got

    # claimed positions and the generators of their orbit groups: G_B's
    # and the position's swaps.  G_B has none exactly when it is trivial
    # (GF(2), k = 1); then a claimable position is claimed only when it
    # has swaps and is in no class of the twin map, which claims nothing
    # (with G_B nontrivial, that map's classes hold no claimable position)
    alpha = fl.primitive_element(ops)
    paired = set(twin_of) | set(twin_of.values())
    claims = {}        # position -> generators of its orbit group
    swaps = 0          # message transpositions among the generators
    for i, own in shape.claimable:
        if i in paired:
            continue
        gens = []
        for m in own:
            base = m * k
            gens += [alg.transvection(base + a, base + b)
                     for a in range(k) for b in range(k) if a != b]
            if alpha != 1:
                gens.append(alg.scaling(base, alpha))
        pairs = shape.swaps.get(i, ())
        gens += [alg.swap(a * k, b * k, k) for a, b in pairs]
        if gens:
            claims[i] = gens
            swaps += len(pairs)

    leads = {}         # candidate id at a claimed position -> leads its orbit

    def orbit_leaders(cands, gens):
        """The candidates that are the least echelon form of their orbit.
        An orbit is found, by search under the generators, when the first
        of its members is met; the search reads the clock every 1,024
        images, as candidates does every 1,024 forms."""
        images = 0
        for s in cands:
            lead = leads.get(s)
            if lead is None:
                orbit, grow = {s}, [s]
                while grow:
                    rows = spaces[grow.pop()]
                    for g in gens:
                        t = intern(alg.canon([g(r) for r in rows]))
                        if t not in orbit:
                            orbit.add(t)
                            grow.append(t)
                    images += len(gens)
                    if deadline is not None and images >= 1024:
                        images = 0
                        if time.perf_counter() > deadline:
                            raise _Budget("time budget exhausted")
                first = min(orbit, key=spaces.__getitem__)
                for t in orbit:
                    leads[t] = t == first
                lead = leads[s]
            if lead:
                yield s
            else:
                stats["orbit_skips"] += 1

    recv_memo = {}
    stats = {"strategy": "rank", "field": q, "dim": k, "nodes": 0,
             "receiver_checks": 0, "memo_hits": 0, "orbit_skips": 0,
             "swaps": swaps, "backjumps": 0,
             "searched_edges": len(shape.plan.outer),
             "positions": len(bundles), "twins": len(twin_of),
             "shape": "built" if built else "reused"}

    def failed(key):
        """Which test of receiver j fails, for key (j, w0, f) with w0 the
        span of its fixed inputs and f that of its free edge's tail (-1
        without a free edge, -2 for the dimension test alone): 0 for none,
        1 for the dimension test, which reads the fixed inputs only, 2 for
        the reach test, which also reads the free edge's tail.  Kept in
        recv_memo, which the search reads first."""
        stats["receiver_checks"] += 1
        j, w0, f = key
        # the demand u must fit in w0 plus what a free edge adds: at most k
        # dimensions, all from its tail.  u lies in w exactly when
        # w + u == w, so containment is cached on ids by the sum cache
        u = checks[j][2]
        got = 0
        if dims[plus(w0, u)] - dims[w0] > (0 if f == -1 else k):
            got = 1
        elif f >= 0:
            reach = plus(w0, f)
            if plus(reach, u) != reach:
                got = 2
        recv_memo[key] = got
        return got

    def without(src, i):
        """The span of src's sources but position i, and whether src
        reads position i."""
        acc, at = src
        for p in at:
            if p != i:
                acc = plus(acc, cur[p])
        return acc, i in at

    def dfs():
        # a loop, not a call per depth: recursion would hit the interpreter's
        # limit, and its speed would hang on the caller's stack depth
        todo = []      # per depth entered: the candidates not tried yet
        bases = []     # per depth entered: its receivers' spans without it
        conflict = []  # per depth entered: the positions its failures read
        i = 0
        while i < len(bundles):
            if i == len(todo):
                cands = candidates(span(tails[i]), caps[i])
                if i == 0 and opts.shards > 1:
                    cands = cands[opts.shard_index::opts.shards]
                # a dead end here depends on the tail, which fixes the
                # list, and on a twin's previous twin, which starts it;
                # orbit leaders and shards depend on no other position
                conflict.append(tail_reads[i])
                p = twin_of.get(i)
                if p is not None:
                    # the same list as at p, whose tail is the same
                    cands = cands[cands.index(cur[p]):]
                    conflict[i] |= 1 << p
                gens = claims.get(i)
                todo.append(iter(cands) if gens is None
                            else orbit_leaders(cands, gens))
                here = []
                for j, dim_only in ready.get(i, ()):
                    fixed, free, _ = checks[j]
                    here.append((j, *without(fixed, i),
                                 *((-1, False) if free is None else
                                   (-2, False) if dim_only else
                                   without(free, i)), reads[j]))
                bases.append(here)
            here = bases[i]
            for s in todo[i]:
                nodes = stats["nodes"] = stats["nodes"] + 1
                if nodes > budget:
                    raise _Budget("node budget exhausted")
                # a node can cost more than a clock read, so a budgeted
                # search reads it at every node; an unbudgeted one never
                if deadline is not None and time.perf_counter() > deadline:
                    raise _Budget("time budget exhausted")
                cur[i] = s
                for j, w, w_reads, f, f_reads, masks in here:
                    key = (j, plus(w, s) if w_reads else w,
                           plus(f, s) if f_reads else f)
                    why = recv_memo.get(key)
                    if why is None:
                        why = failed(key)
                    else:
                        stats["memo_hits"] += 1
                    if why:
                        conflict[i] |= masks[why - 1]
                        break
                else:
                    i += 1
                    break
            else:
                # no candidate here works while the positions in the
                # conflict set keep their values: back to the deepest one
                todo.pop()
                bases.pop()
                cause = conflict.pop() & ~(1 << i)
                if not cause:
                    return False
                back = cause.bit_length() - 1
                if back < i - 1:
                    stats["backjumps"] += 1
                    del todo[back + 1:], bases[back + 1:], conflict[back + 1:]
                conflict[back] |= cause
                i = back
        return True

    def settled(j, dim_only):
        fixed, free, _ = checks[j]
        return not failed((j, span(fixed), -1 if free is None else
                           -2 if dim_only else span(free)))

    try:
        found = all(settled(*c) for c in ready.get(-1, ())) and dfs()
        stopped = None
    except _Budget as exc:
        found, stopped = False, str(exc)
    t2 = time.perf_counter()
    stats["elapsed"] = t2 - t0
    phases = stats["phase_seconds"] = {
        "compile": t1 - t0 if compiled else 0.0, "search": t2 - t1,
        "witness": 0.0, "verify": 0.0}
    if stopped is not None:
        return SolveResult("budget-exceeded", None,
                           stats | {"reason": stopped})
    if not found:
        if opts.shards > 1:
            stats["sharded"] = f"{opts.shard_index}/{opts.shards}"
        return SolveResult("exhausted-unsolvable", None, stats)

    code = _rank_witness(net, ring, k, alg, shape, [spaces[s] for s in cur])
    t3 = time.perf_counter()
    report = verify_solution(net, code)
    phases["witness"], phases["verify"] = t3 - t2, time.perf_counter() - t3
    if not report.solved:
        raise RuntimeError(f"reconstructed code failed verification: "
                           f"{report.failure}")
    return SolveResult("solved", code, stats)


def _rank_witness(net, ring, k, alg, shape, bases):
    """Turn a passing subspace assignment, bases[i] the echelon basis of
    position i, into explicit coefficients (module notes)."""
    plan, cn = shape.plan, net.compiled()
    zero = alg.zero
    msg_rows = [[alg.unit(m * k + a) for a in range(k)]
                for m in range(len(shape.msgs))]
    rows = [None] * len(cn.edges)   # searched or free edge -> its k rows

    def rows_of(refs):
        out = []
        for x in refs:
            out += rows[x] if x >= 0 else msg_rows[~x]
        return out

    def padded(basis):
        return list(basis) + [zero] * (k - len(basis))

    # a bundle's basis, at most c k rows, split k rows to an edge
    for i, bundle in enumerate(shape.bundles):
        for a, e in enumerate(bundle):
            rows[e] = padded(bases[i][a * k:(a + 1) * k])

    # what each receiver's free edge carries: lifts into the free edge's
    # tail of a basis of the demands modulo the fixed inputs.  The demanded
    # unit rows outside the growing span of the fixed inputs and the rows
    # kept so far form that basis; each is written over the fixed and the
    # tail rows, and the tail rows' part is its lift, carried as the tag
    for _, r, demand in cn.receivers:
        e = shape.local_one.get(r)
        if e is None:
            continue
        fixed_rows = rows_of(x for x in plan.stack(r) if x != e)
        tail_rows = rows_of(plan.stack(cn.tails[e]))
        base = alg.eliminate(fixed_rows, [zero] * len(fixed_rows))
        span = dict(base)
        reps = []
        for m in demand:
            for j in range(m * k, m * k + k):
                if alg.unit_tag(span, j) is None:
                    reps.append(j)
                    alg.eliminate([alg.unit(j)], [zero], span)
        both = alg.eliminate(tail_rows, tail_rows, base)
        parts = [alg.unit_tag(both, j) for j in reps]
        if None in parts:
            raise RuntimeError("free-edge lift failed for a checked receiver")
        rows[e] = padded(alg.canon(parts))

    # each node's input rows are eliminated once, for its out-edges and its
    # demands alike, and a target's combination of them read off the tags;
    # a node whose inputs are all messages has the target's entries
    solved = {}

    def combos(node, targets, units):
        """The combinations of the node's input rows giving the target rows,
        or the unit rows at the target coordinates, as entry tuples."""
        got = solved.get(node)
        if got is None:
            refs = plan.stack(node)
            n = k * len(refs)
            if not cn.into[node]:       # messages only
                got = n, None, [~x * k + b for x in refs for b in range(k)]
            else:
                got = n, alg.eliminate(rows_of(refs)), None
            solved[node] = got
        n, piv, cols = got
        if piv is None:
            out = [alg.pick(alg.unit(t) if units else t, cols)
                   for t in targets]
        else:
            out = [alg.unit_tag(piv, t) if units else alg.express(piv, t, n)
                   for t in targets]
            if None not in out:
                out = [alg.entries(c, n) for c in out]
        if None in out:
            raise RuntimeError("witness row left its input span")
        return out

    def coefficients(got):
        """One ring element per input for each k consecutive combinations:
        their entries with k = 1, else the k x k block of each input."""
        if k == 1:
            return got
        return [tuple(ring.mat_from_entries([c[i:i + k] for c in got[a:a + k]])
                      for i in range(0, len(got[a]), k))
                for a in range(0, len(got), k)]

    coeffs = plan.forwarding(ring.one)
    for e, got in enumerate(rows):    # the searched and free edges
        if got is not None:
            [coeffs[e]] = coefficients(combos(cn.tails[e], got, False))
    decodings = {}
    for name, r, demand in cn.receivers:
        if not demand:
            continue
        got = coefficients(combos(r, [j for m in demand
                                      for j in range(m * k, m * k + k)], True))
        for m, c in zip(demand, got):
            decodings[(name, net.message_names[m])] = c
    return LinearCode(_modules.scalar_module(ring),
                      dict(zip(cn.edges, coeffs)), decodings)


# ---------------------------------------------------------------------------
# exhaustive strategy: lexicographic coefficient enumeration

def _table_slots(net: Network, size: int, opts: SearchOptions):
    """The exhaustive plan and its number of searched coefficient slots:
    one per input of each searched edge's tail, edge by edge."""
    plan = _Plan(net, opts,
                 joint_cap=lambda _, slots: size ** slots <= LOCAL_BUDGET)
    return plan, plan.arity(plan.outer)


@lru_cache(maxsize=None)
def _key_layout(size: int, t: int, m: int):
    """How t rows of m base-size digits pack into exact int64 key words.

    Each word holds as many digits as stay below 2^63, so a key is one word
    whenever size^(t*m) does (always for m <= 4 under DECODE_BUDGET) and is
    split, never hashed, past that.  Returns row i's (m, words) placement
    matrix for every i, then each digit's word and place value."""
    n = t * m
    per = 1
    while per < n and size ** (per + 1) < 1 << 63:
        per += 1
    pos = np.arange(n)
    word = pos // per
    digit_place = np.array([size ** (per - 1 - p % per) for p in range(n)],
                           dtype=np.int64)
    place = np.zeros((n, -(-n // per)), dtype=np.int64)
    place[pos, word] = digit_place
    layout = (place.reshape(t, m, -1), word, digit_place)
    for arr in layout:      # cached, so shared by every caller
        arr.setflags(write=False)
    return layout


def _distinct_inputs(arr_list, shape, size: int, m: int):
    """The distinct input tuples among a receiver's rows, as a (u, t, m)
    array, and for each (assignment, local choice) of shape, flattened,
    the index of its tuple.

    Each input i adds its rows times its placement matrix to the key, so a
    message row broadcast over the whole shape costs one product."""
    place, word, digit_place = _key_layout(size, len(arr_list), m)
    key = np.zeros(shape + (place.shape[-1],), dtype=np.int64)
    for arr, p in zip(arr_list, place):
        key += arr @ p
    key = key.reshape(-1, place.shape[-1])
    if key.shape[1] == 1:
        uniq, inv = np.unique(key[:, 0], return_inverse=True)
        uniq = uniq[:, None]
    else:
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
    tuples = ((uniq[:, word] // digit_place) % size).astype(np.int32)
    return tuples.reshape(len(uniq), len(arr_list), m), inv.reshape(-1)


def _combinations(tuples, mulT, addT) -> np.ndarray:
    """Every d_1 X_1 + ... + d_t X_t of each tuple of rows X_1..X_t of a
    (u, t, m) array, as a (u, |R|^t, m) array with d big-endian, that is
    in lexicographic order."""
    u, t, m = tuples.shape
    digits = np.arange(len(mulT))[:, None]
    acc = mulT[digits, tuples[:, 0, None, :]]
    for i in range(1, t):
        term = mulT[digits, tuples[:, i, None, :]]
        acc = addT[acc[:, :, None, :], term[:, None, :, :]].reshape(u, -1, m)
    return acc


def _decodable(tuples, mulT, addT, one: int, targets,
               deadline=None) -> np.ndarray:
    """Whether each input tuple (rows X_1..X_t of a (u, t, m) array) lets
    its receiver decode every target message: some d in R^t with
    d_1 X_1 + ... + d_t X_t the target's unit row.

    All |R|^t combinations of a tuple are built at once, blocks of tuples
    keeping them within _rings._TABLE_BLOCK entries.  A combination is the
    unit row e_j iff entry j is the identity and its entries sum to the
    identity, since zero is index 0 and no index is negative.  The deadline,
    if any, is checked before each block (_Budget once it has passed)."""
    u, t, m = tuples.shape
    ok = np.empty(u, dtype=bool)
    step = max(1, _rings._TABLE_BLOCK // (len(mulT) ** t * m))
    for b in range(0, u, step):
        if deadline is not None and time.perf_counter() > deadline:
            raise _Budget("time budget exhausted")
        acc = _combinations(tuples[b:b + step], mulT, addT)
        weight = acc[..., 0].copy()
        for j in range(1, m):
            weight += acc[..., j]
        unit = weight == one
        hit = np.ones(len(acc), dtype=bool)
        for j in targets:
            hit &= (unit & (acc[..., j] == one)).any(axis=1)
        ok[b:b + step] = hit
    return ok


def _solve_table(net: Network, ring: Ring, opts: SearchOptions, budget: int,
                 deadline: Optional[float], planned=None) -> SolveResult:
    """Enumerate at most budget assignments of the coefficient space,
    stopping at the deadline; planned is _table_slots' result when the
    caller has already built it."""
    t0 = time.perf_counter()
    if not ring.unital:
        raise ValueError("the coefficient search requires a unital ring")
    if not ring.has_tables():
        raise ValueError(f"ring of size {ring.size} has no dense tables; "
                         "the exhaustive strategy cannot run")
    size = ring.size
    addT = np.ascontiguousarray(ring.add_table(), dtype=np.int32)
    mulT = np.ascontiguousarray(ring.mul_table(), dtype=np.int32)
    cn = net.compiled()
    m = len(net.message_names)
    plan, nslots = planned or _table_slots(net, size, opts)
    for r, v, _ in cn.receivers:
        t = len(cn.inputs[v])
        if size ** t > DECODE_BUDGET:
            return SolveResult("budget-exceeded", None, {
                "strategy": "exhaustive", "reason":
                    f"receiver {r} has {t} inputs; decode "
                    f"enumeration exceeds DECODE_BUDGET ({DECODE_BUDGET})"})

    total = size ** nslots
    weights = [size ** (nslots - 1 - i) for i in range(nslots)]
    lo = total * opts.shard_index // opts.shards
    hi = total * (opts.shard_index + 1) // opts.shards

    # message i's unit row, as a (1, m) array
    unit_rows = np.eye(m, dtype=np.int32)[:, None, :] * np.int32(ring.one)

    stats = {"strategy": "exhaustive", "ring_size": size,
             "slots": nslots, "space": total, "assignments": 0,
             "receiver_checks": 0, "memo_hits": 0}

    # each receiver with demands, its local edges and their slot count
    receivers = [(r, v, demand, plan.local_of.get(v, []),
                  plan.arity(plan.local_of.get(v, ())))
                 for r, v, demand in cn.receivers if demand]

    def searched():
        """Close the search phase: elapsed and the phase times so far (the
        tables and plan are the search's, so compile is 0.0)."""
        t = time.perf_counter()
        stats["elapsed"] = t - t0
        stats["phase_seconds"] = {"compile": 0.0, "search": t - t0,
                                  "witness": 0.0, "verify": 0.0}
        return t

    c0 = lo
    while c0 < hi:
        n = min(CHUNK, hi - c0)
        stop = ("node" if stats["assignments"] + n > budget else
                "time" if deadline is not None
                and time.perf_counter() > deadline else None)
        if stop:
            searched()
            return SolveResult("budget-exceeded", None,
                               stats | {"reason": f"{stop} budget exhausted"})
        stats["assignments"] += n
        idx = np.arange(c0, c0 + n, dtype=np.int64)
        cols = [((idx // w) % size).astype(np.int32) for w in weights]

        rows = [None] * len(cn.edges)

        def input_rows(x):
            return rows[x] if x >= 0 else unit_rows[~x]

        # the searched edges' slots come edge by edge, in topological
        # order; a forwarding edge's rows are those of what it forwards
        col = 0
        for e in plan.outer:
            acc = None
            for x in plan.stack(cn.tails[e]):
                term = mulT[cols[col][:, None], input_rows(x)]
                col += 1
                acc = term if acc is None else addT[acc, term]
            rows[e] = acc

        alive = np.arange(n)
        picks = {}
        for r, v, demand, local, nlocal in receivers:
            if alive.size == 0:
                break
            lcount = size ** nlocal
            lcols = [((np.arange(lcount) // size ** (nlocal - 1 - i))
                      % size).astype(np.int32) for i in range(nlocal)]

            def take(arr):
                return arr if arr.shape[0] == 1 else arr[alive]

            local_rows = {}
            col = 0
            for e in local:
                acc = None
                for x in plan.stack(cn.tails[e]):
                    c = lcols[col][None, :, None]
                    col += 1
                    term = mulT[c, take(input_rows(x))[:, None, :]]
                    acc = term if acc is None else addT[acc, term]
                local_rows[e] = acc

            arr_list = [local_rows[x] if x in local_rows
                        else take(input_rows(x))[:, None, :]
                        for x in plan.stack(v)]
            # each distinct input tuple is decided once per chunk
            tuples, inv = _distinct_inputs(arr_list, (alive.size, lcount),
                                           size, m)
            try:
                ok = _decodable(tuples, mulT, addT, ring.one, demand,
                                deadline)
            except _Budget as exc:
                searched()
                return SolveResult("budget-exceeded", None,
                                   stats | {"reason": str(exc)})
            stats["receiver_checks"] += len(tuples)
            stats["memo_hits"] += len(inv) - len(tuples)
            # each row's least decodable local choice and the input tuple
            # it gives, kept for the witness
            inv = inv.reshape(alive.size, lcount)
            okmat = ok[inv]
            first = okmat.argmax(axis=1)
            keep = okmat[np.arange(alive.size), first]
            alive = alive[keep]
            picks[r] = (alive, first[keep],
                        tuples[inv[keep, first[keep]]])

        if alive.size:
            t1 = searched()
            pos = int(alive[0])
            chosen = {}
            for r, (rows_r, first, inputs) in picks.items():
                at = int(np.searchsorted(rows_r, pos))
                chosen[r] = (int(first[at]), inputs[at])
            code = _table_witness(net, ring, plan, weights, int(idx[pos]),
                                  chosen, unit_rows, mulT, addT)
            t2 = time.perf_counter()
            stats["elapsed"] = t2 - t0
            report = verify_solution(net, code)
            phases = stats["phase_seconds"]
            phases["witness"], phases["verify"] = (t2 - t1,
                                                   time.perf_counter() - t2)
            if not report.solved:
                raise RuntimeError(f"reconstructed code failed verification: "
                                   f"{report.failure}")
            return SolveResult("solved", code, stats)
        c0 += n

    searched()
    if opts.shards > 1:
        stats["sharded"] = f"{opts.shard_index}/{opts.shards}"
    return SolveResult("exhausted-unsolvable", None, stats)


def _table_witness(net, ring, plan, weights, winner, chosen, unit_rows,
                   mulT, addT):
    """Rebuild explicit coefficients from a surviving global index.

    chosen maps each receiver with demands to the index of its least local
    choice that decodes and the (t, m) input tuple that choice gives; each
    demand takes the least decode tuple, found among all |R|^t of them
    built at once from the ring tables."""
    size = ring.size
    cn = plan.compiled
    coeffs = plan.forwarding(ring.one)

    def spread(digits, edges):
        """The digits, in slot order, as the edges' coefficients."""
        at = 0
        for e in edges:
            n = len(cn.inputs[cn.tails[e]])
            coeffs[e] = tuple(digits[at:at + n])
            at += n

    spread([winner // w % size for w in weights], plan.outer)
    decodings = {}
    for r, v, demand in cn.receivers:
        choice, inputs = chosen.get(r, (0, None))
        local = plan.local_of.get(v, [])
        n = plan.arity(local)
        spread([choice // size ** (n - 1 - i) % size for i in range(n)],
               local)
        if inputs is None:
            continue
        t = len(inputs)
        combos = _combinations(inputs[None], mulT, addT)[0]
        for mi in demand:
            d = int((combos == unit_rows[mi]).all(axis=1).argmax())
            decodings[(r, net.message_names[mi])] = tuple(
                d // size ** (t - 1 - i) % size for i in range(t))

    return LinearCode(_modules.scalar_module(ring),
                      dict(zip(cn.edges, coeffs)), decodings)


# ---------------------------------------------------------------------------
# front ends

def _cut_bound(net: Network) -> Optional[SolveResult]:
    """The cut-set bound's "exhausted-unsolvable", or None when every cut
    is wide enough (module notes)."""
    cut = cut_deficit(net)
    if cut is None:
        return None
    r, owners, msgs, edges = cut
    return SolveResult("exhausted-unsolvable", None, {
        "method": f"cut-set bound at {r}: {len(edges)} edges for "
                  f"{len(msgs)} messages",
        "cut": {"receiver": r, "owners": list(owners),
                "edges": [[e.tail, e.head, e.ordinal] for e in edges],
                "messages": list(msgs)}})


def _block_name(r: int, q: int) -> str:
    return _rings.describe(_rings.simple_ring(r, q))


def _decide(net: Network, ring: Ring, opts: SearchOptions,
            allow: _Allowance, blocks: dict, planned=None) -> SolveResult:
    """Scalar solvability over the ring, by the route in the module notes.

    Every search it runs, quotients included, spends from allow.  blocks
    memoizes the canonical simple-ring searches by (r, q) across calls;
    those run with the caller's options, so a caller that reduces must not
    shard them.  planned is passed on to the direct search."""
    def block(r, q):
        if (r, q) not in blocks:
            blocks[(r, q)] = allow.search(
                _solve_rank, net, construct_ring(_rings.simple_ring(r, q)),
                opts)
        return blocks[(r, q)]

    parts = _rank_parts(ring)
    if parts is not None:
        r, q = parts[1], parts[0].size
        res = allow.search(_solve_rank, net, ring, opts)
        if ring.descriptor == _rings.simple_ring(r, q):
            blocks.setdefault((r, q), res)
        method = f"direct search as {_block_name(r, q)}"
    else:
        # a simple ring (maximal ideal 0) is searched in canonical form;
        # otherwise a solution pushes down to every quotient, so one
        # unsolvable simple quotient settles the ring without searching it
        quotients = {}
        for ideal, rq in _rings.simple_quotients(ring):
            if ideal.elements == (0,):
                res, method = block(*rq), f"direct search as {_block_name(*rq)}"
                break
            if rq not in quotients:
                res = quotients[rq] = block(*rq)
                if res.status == "exhausted-unsolvable":
                    method = f"quotient onto {_block_name(*rq)} is unsolvable"
                    break
        else:
            stopped = [got for got in quotients.values()
                       if got.status == "budget-exceeded"]
            if stopped:
                res, method = stopped[0], "a quotient search ran out of budget"
            else:
                res = allow.search(_solve_table, net, ring, opts, planned)
                method = "all simple quotients solvable; searched directly"
    code = res.code
    if res.solved and code.module.ring is not ring:
        iso = _rings.find_isomorphism(code.module.ring, ring)
        if iso is None:
            raise AssertionError("no isomorphism onto the canonical simple form")
        code = _transforms.hom_lift(code, iso, _modules.scalar_module(ring))
    return SolveResult(res.status, code, res.stats | {"method": method})


def solve_scalar(net: Network, ring: Ring,
                 options: Optional[SearchOptions] = None) -> SolveResult:
    """Decide scalar solvability over the ring.  auto answers by the cut-set
    bound when it fires on a ring of two or more elements, else goes
    through _decide unless a ring the rank strategy does not accept fits
    one enumeration block (reducing would cost more than searching) or the
    search is sharded (a quotient's verdict is not one shard's); rank and
    exhaustive are raw searches of the ring itself.  The node and time
    budgets bound the whole call, quotient searches included."""
    opts = _validated(net, options)
    _check_axioms(ring)
    allow = _Allowance(opts)
    strategy = opts.strategy
    planned = None
    if strategy == "auto":
        bound = _cut_bound(net) if ring.size > 1 else None
        if bound is not None:
            return bound
        if _rank_parts(ring) is not None:
            return _decide(net, ring, opts, allow, {})
        if opts.shards == 1 and ring.unital and ring.has_tables():
            planned = _table_slots(net, ring.size, opts)
            if ring.size ** planned[1] > CHUNK:
                return _decide(net, ring, opts, allow, {}, planned)
        strategy = "exhaustive"
    if strategy == "rank" and _rank_parts(ring) is None:
        raise ValueError("the rank strategy needs a field or a matrix "
                         "ring over a field")
    res = (allow.search(_solve_rank, net, ring, opts) if strategy == "rank"
           else allow.search(_solve_table, net, ring, opts, planned))
    res.stats["method"] = f"direct search as {_rings.describe(ring.descriptor)}"
    return res


def solve_vector(net: Network, field: Ring, k: int,
                 options: Optional[SearchOptions] = None) -> SolveResult:
    """Decide k-dimensional vector solvability over a field.

    Dimension d is solved as soon as two smaller dimensions d1 + d2 = d
    are: their codes stack block-diagonally (dim_sum), and stats["method"]
    is "dim-sum d1+d2" with the parts' stats under "parts".  Splits are
    tried first, d1 ascending, and can only answer "solved".  Otherwise d
    is decided by _decide over M_d(F) (F itself when d is 1).  The node
    and time budgets bound the whole call: a dimension reached with no
    nodes or no time left is "budget-exceeded" with method "no node
    budget left for <ring>" (or time budget), and stats["total_nodes"]
    counts the nodes charged over every dimension: those searched, and
    the whole budget for a search refused because its candidates
    outnumber the nodes left.  Each dimension is
    decided once per call, and the cut-set bound, which settles every
    dimension, is checked before any."""
    _check_axioms(field)
    if not field.is_field():
        raise ValueError("vector codes need a field of scalars")
    if k < 1:
        raise ValueError("dimension must be at least 1")
    opts = _validated(net, options)
    if opts.strategy != "auto":     # _decide picks each route itself
        raise ValueError(f"a vector search picks each dimension's route; "
                         f"strategy {opts.strategy!r} is not supported")
    bound = _cut_bound(net)
    if bound is not None:
        return bound
    allow = _Allowance(opts)

    @lru_cache(maxsize=None)
    def attempt(dim: int) -> SolveResult:
        for k1 in range(1, dim // 2 + 1):
            a = attempt(k1)
            if not a.solved:
                continue
            b = attempt(dim - k1)
            if b.solved:
                code = _transforms.dim_sum(a.code, b.code)
                report = verify_solution(net, code)
                if not report.solved:
                    raise RuntimeError("block-diagonal composite failed "
                                       f"verification: {report.failure}")
                return SolveResult("solved", code, {
                    "method": f"dim-sum {k1}+{dim - k1}",
                    "parts": (a.stats, b.stats)})
        ring = (field if dim == 1 else
                construct_ring(_rings.MatrixRing(field.descriptor, dim)))
        res = (allow.used_up(_rings.describe(ring.descriptor))
               or _decide(net, ring, opts, allow, {}))
        if res.solved and dim > 1:
            res.code = _transforms.matrix_scalar_to_vector(res.code)
        return res

    res = attempt(k)
    return SolveResult(res.status, res.code,
                       res.stats | {"total_nodes": allow.spent})


# ---------------------------------------------------------------------------
# smallest-ring sweep

def _catalog_key(desc: RingDescriptor):
    size = _rings.descriptor_size(desc)
    if isinstance(desc, (_rings.PrimeField, _rings.IntegersMod)):
        n = desc.p if isinstance(desc, _rings.PrimeField) else desc.n
        return (size, 0, (n,))
    if isinstance(desc, _rings.GaloisField):
        return (size, 1, (desc.p, desc.k))
    if isinstance(desc, _rings.UpperTriangular):
        return (size, 2, _catalog_key(desc.field))
    if isinstance(desc, _rings.MatrixRing):
        return (size, 3, _catalog_key(desc.inner))
    if isinstance(desc, _rings.Product):
        return (size, 4, tuple(_catalog_key(f) for f in desc.factors))
    if isinstance(desc, _rings.TableRing):
        return (size, 5, (desc.add, desc.mul))
    raise TypeError(f"unsortable descriptor {desc!r}")


def structured_catalog(max_size: int = 16) -> list[RingDescriptor]:
    """Unital rings from the structured families, up to max_size elements:
    residue rings at prime-power moduli, Galois fields, upper-triangular
    and full matrix rings over prime fields, and products of those, in
    the order a sweep walks them.  Not every finite unital ring of these
    sizes is here; an explicit sweep over this list answers for its rings
    only.  The default sweep does not need it: it walks the simple rings,
    which settle every ring (see smallest_ring_search)."""
    atoms: list[RingDescriptor] = []
    for n in range(2, max_size + 1):
        pp = _rings._prime_power(n)
        if pp is None:
            continue
        p, a = pp
        atoms.append(_rings.IntegersMod(n) if a > 1 else _rings.PrimeField(p))
        if a > 1:
            atoms.append(_rings.GaloisField(p, a))
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(2, 5):
            if p ** (k * (k + 1) // 2) <= max_size:
                atoms.append(_rings.UpperTriangular(_rings.PrimeField(p), k))
            if p ** (k * k) <= max_size:
                atoms.append(_rings.MatrixRing(_rings.PrimeField(p), k))
    atoms.sort(key=_catalog_key)

    out = list(atoms)

    def extend(start: int, factors, size: int):
        for i in range(start, len(atoms)):
            nsize = size * _rings.descriptor_size(atoms[i])
            if nsize > max_size:
                continue
            combo = factors + [atoms[i]]
            if len(combo) >= 2:
                out.append(_rings.Product(tuple(combo)))
            extend(i, combo, nsize)

    extend(0, [], 1)
    out.sort(key=_catalog_key)
    return out


@dataclass
class RingVerdict:
    descriptor: RingDescriptor
    name: str
    size: int
    status: str
    method: str
    code: Optional[LinearCode] = None


@dataclass
class SmallestRingReport:
    minimal_size: Optional[int]
    winners: list[RingVerdict]
    verdicts: list[RingVerdict]
    coverage: str
    elapsed: float


def smallest_ring_search(net: Network, max_size: int = 16,
                         catalog: Optional[list[RingDescriptor]] = None,
                         options: Optional[SearchOptions] = None
                         ) -> SmallestRingReport:
    """The least size of a ring over which the network is scalar-solvable,
    every solvable ring of that size, and a verdict per examined ring.

    With no catalogue the sweep walks the simple rings M_r(GF(q)) up to
    max_size elements, by ascending size and built one at a time, each
    decided by one rank search.  That answers for every finite ring with
    identity: R has a simple quotient with at most |R| elements, equal only
    when R is simple, and a solution over R pushes down to it.  An explicit
    catalogue is walked in the same order by the same loop, whatever
    max_size says, and answers for the listed rings only.  Each ring goes
    through _decide, with one memo of canonical simple-ring searches per
    sweep.  Without a catalogue the cut-set bound is checked first: when it
    fires, every simple ring gets its verdict unbuilt and unsearched, and
    the coverage is every ring and module with two or more elements.

    The node and time budgets bound the whole sweep, not each ring: a ring
    reached with no nodes or no time left is "budget-exceeded", unbuilt
    and unsearched, with method "no node budget left for <ring>" (or time
    budget), and the coverage names every ring the budget stopped."""
    t0 = time.perf_counter()
    opts = _validated(net, options)
    if opts.shards > 1:
        # one shard's "exhausted-unsolvable" says nothing about the ring
        raise ValueError("a smallest-ring sweep cannot be sharded")
    if opts.strategy != "auto":
        # _decide picks each ring's route; a strategy would go unread
        raise ValueError(f"a smallest-ring sweep decides each ring by its "
                         f"own route; strategy {opts.strategy!r} is not "
                         "supported")
    if max_size < 2:
        raise ValueError(f"max size must be at least 2, got {max_size}")
    if catalog is not None and not catalog:
        raise ValueError("the ring catalogue is empty")
    for desc in catalog or ():
        if isinstance(desc, _rings.TableRing):
            _check_axioms(construct_ring(desc))
    descs = (sorted(catalog, key=_catalog_key) if catalog is not None
             else (_rings.simple_ring(r, q) for n in range(2, max_size + 1)
                   for r, q in _rings.simple_rings(n)))
    bound = _cut_bound(net) if catalog is None else None
    blocks: dict[tuple[int, int], SolveResult] = {}
    verdicts: list[RingVerdict] = []
    winners: list[RingVerdict] = []
    minimal: Optional[int] = None
    allow = _Allowance(opts)
    for desc in descs:
        size = _rings.descriptor_size(desc)
        if minimal is not None and size > minimal:
            break
        name = _rings.describe(desc)
        res = (bound or allow.used_up(name)
               or _decide(net, construct_ring(desc), opts, allow, blocks))
        verdict = RingVerdict(desc, name, size, res.status,
                              res.stats["method"], res.code)
        verdicts.append(verdict)
        if verdict.status == "solved":
            minimal = size
            winners.append(verdict)

    if catalog is not None:
        coverage = f"complete for the {len(catalog)} listed rings only"
    elif bound is not None:
        coverage = ("complete for every ring and every module with two or "
                    f"more elements: {bound.stats['method']}, and no code "
                    "over an alphabet of two or more symbols beats a "
                    "cut-set bound")
    else:
        coverage = (f"complete for every finite ring with identity up to "
                    f"{max_size} elements: each has a simple quotient "
                    "M_r(GF(q)) no larger than itself, a solution pushes "
                    "down to it, and the simple rings were swept by size")
    stopped = [v.name for v in verdicts if v.status == "budget-exceeded"]
    if stopped:
        coverage += ("; the budget stopped the search over "
                     + ", ".join(stopped) + ", so their sizes are not settled")
    return SmallestRingReport(minimal, winners, verdicts, coverage,
                              time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# why coefficients come from a ring at all

@dataclass
class NonUnitalReport:
    values: tuple[int, ...]
    has_identity: bool
    collisions: tuple[tuple[int, tuple[int, int]], ...]
    message: str


def nonunital_demo() -> NonUnitalReport:
    """Coefficients without an identity cannot even relay one message.

    The even residues modulo 8 are closed under addition and
    multiplication but have no multiplicative identity, and every
    multiplication lands in {0, 4}: whatever coefficient the single edge
    of the relay network applies, the messages 0 and 4 become equal on
    the wire, so no decoding distinguishes them."""
    values = (0, 2, 4, 6)
    pos = {v: i for i, v in enumerate(values)}
    add = [[pos[(a + b) % 8] for b in values] for a in values]
    mul = [[pos[(a * b) % 8] for b in values] for a in values]
    rng = construct_ring(_rings.TableRing(
        tuple(tuple(r) for r in add), tuple(tuple(r) for r in mul),
        unital=False))
    residue = [0] * rng.size
    for i, v in enumerate(values):
        residue[rng.input_index_map[i]] = v

    has_identity = any(all(rng.mul(e, x) == x and rng.mul(x, e) == x
                           for x in range(rng.size))
                       for e in range(rng.size))

    group = _modules.additive_group(rng)
    mod = _modules.construct_module(rng, group, rng.mul)

    collisions = []
    for c in range(rng.size):
        pair = None
        for m1 in range(rng.size):
            for m2 in range(m1 + 1, rng.size):
                if mod.act(c, m1) == mod.act(c, m2):
                    pair = (residue[m1], residue[m2])
                    break
            if pair:
                break
        if pair is None:
            raise AssertionError("a coefficient separated all messages")
        collisions.append((residue[c], pair))
    collisions.sort()

    # no decode coefficient can help once the edge has merged two messages
    for c in range(rng.size):
        for d in range(rng.size):
            good = all(mod.act(d, mod.act(c, g)) == g
                       for g in range(group.size))
            if good:
                raise AssertionError("a coefficient pair decoded the relay")

    message = ("the even residues modulo 8 form a ring without identity; "
               "every edge coefficient merges at least two messages "
               "(products all land in {0, 4}), so even the one-edge relay "
               "network has no working code")
    return NonUnitalReport(values, has_identity,
                           tuple(collisions), message)
