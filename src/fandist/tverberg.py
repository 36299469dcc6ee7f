"""Deterministic search for (constrained) proper Tverberg tuples.

Candidates are ordered part-tuples of disjoint nonempty index subsets;
the stream is generated in lexicographic order of the sequence of sorted
parts, so ``({0},{1},{2})`` with everything else leftover comes first.
The stream holds one relabeling per unordered partition, the canonical
one with min(I_1) < ... < min(I_r): permuting the parts of a tuple keeps
it proper.

One set condition, ``SearchConstraint``, decides each part of a tuple
and each cell I_a ∩ J_b of a pair on index bitmasks: at most a capped
count per color class and no member of a forbidden family.  The caller
passes it in; the searches check no theorem hypothesis and promise no
tuple (``fandist.pipeline`` does both).

A proper tuple needs a common point in the relative interiors of the
convex hulls of its parts.  Searches over a point set therefore prune
the stream by prefix: the flat where the affine hulls of the parts
chosen so far meet is carried down the depth-first stream as integer
equations on the solver's grid, and each new part is tested against it.
A flat that is more than a point is tested through the new part's own
points: affine weights on them whose combination lies on the flat solve
one small integer system, built from the points' residuals against the
flat's equations.  No weights mean an empty meet, and every candidate
extending the prefix is skipped.  Unique weights make the part affinely
independent and are its barycentric coordinates at the only meeting
point x, so a weight <= 0 skips the prefix, and so does a coordinate
<= 0 of an affinely independent part chosen earlier.  Otherwise the
flat is met with the part's hull equations, computed once per part and
search.  Once the flat is a point, every extension can only meet in it,
and each later part must hold it, by its hull equations, with positive
barycentric coordinates.  Affinely dependent parts never prune.

A pair test (one part P chosen, with more parts to come) is decided
once per union U = P ∪ J, by Radon's observation: the hulls of P and J
meet iff some affine dependence lambda of U (sum lambda_i a_i = 0, sum
lambda_i = 0) has s = sum_P lambda_i != 0.  The first split of U that
is tested records U's dependences, read off J's residuals on P's hull
and P's barycentric map, and every later split reads the record.  An
independent U misses at every split.  When the dependences form one
line, a split meets only if s != 0, and then in the one point sum_P
lambda_i a_i / s, where the barycentric coordinates are lambda_i / s
on P and -lambda_j / s on J, so their signs decide it.  Any other U,
or a record read off a dependent P, falls back to the test through J's
points.

On a line (a grid of dimension 1) the stream decides properness itself.
There a part's relative interior is the open interval between its least
and greatest point, or its one point when they coincide, and a candidate
is proper exactly when these sets share a point.  The prefix carries
their intersection as integer bounds on twice the grid coordinate:
2 min + 1 and 2 max - 1 for an interval, 2p and 2p for a point p, so
that the intersection is nonempty iff the greatest lower bound is at
most the least upper one.  A part whose bounds miss the prefix's is
skipped with every candidate extending it, so every emitted candidate
is proper; no hull flat is built on a line.

The tests are exact and need no general position.  They remove only
candidates that have no proper weights, so the first feasible candidate
and every feasible one are unchanged; an emitted candidate with uniquely
solvable weights, or on a line any emitted candidate, is proper.

Searches are exhaustive within a size gate that counts exact feasibility
checks: every flat or interval test of a part after the first and every
weight-system solve counts one.  They run sequentially and return the
first feasible candidate in stream order.

The two-tuple search is a join.  It walks the canonical stream, and for
each proper tuple I it walks a second stream pruned by I's cell
condition, whose first proper tuple J completes the pair.  The cell
condition is monotone, so it prunes partial parts: index k joins only
the cell I_a ∩ J_b of the part I_a holding it.  Solves are memoised by
candidate, so none is solved twice, and one cache of hulls and one of
union records serve every stream of a search.  The pair is the one that
solving every candidate and scanning all pairs in order would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from fandist.errors import (
    PreconditionError,
    SizeGateExceeded,
    VerificationBug,
)
from fandist.exactnum import _back_eliminate, _eliminate_int, _kernel_int
from fandist.feaslp import (
    ExactWeightSolver,
    Flat,
    WeightWitness,
    affine_hull,
    barycentric_map,
    realify_if_needed,
)
from fandist.galedual import PointConfig
from fandist.kneser import SetFamily, bitmask

__all__ = [
    "SearchConstraint",
    "TverbergTuple",
    "search_tuple",
    "search_two_tuples",
]

DEFAULT_LP_GATE = 50_000_000
DEFAULT_PAIR_GATE = 1_000_000
DEFAULT_TUPLE_GATE = 200_000


@dataclass(frozen=True)
class TverbergTuple:
    """Ordered disjoint parts with an exact positive-weight witness."""

    r: int
    parts: tuple[tuple[int, ...], ...]
    witness: WeightWitness

    def support(self) -> tuple[int, ...]:
        out = []
        for p in self.parts:
            out.extend(p)
        return tuple(sorted(out))

    def validate(self, config: PointConfig) -> None:
        if len(self.parts) != self.r:
            raise PreconditionError("wrong number of parts")
        seen: set[int] = set()
        for p in self.parts:
            if not p:
                raise PreconditionError("empty part")
            if seen.intersection(p):
                raise PreconditionError("parts overlap")
            seen.update(p)
        real = realify_if_needed(config)
        if not self.witness.verify(real.points, self.parts):
            raise PreconditionError("witness fails exact re-verification")

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "parts": [list(p) for p in self.parts],
            "witness": self.witness.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "TverbergTuple":
        return cls(int(obj["r"]),
                   tuple(tuple(int(i) for i in p) for p in obj["parts"]),
                   WeightWitness.from_json(obj["witness"]))


class SearchConstraint:
    """Set condition on index bitmasks, for parts and cells alike.

    A set passes when it holds at most ``caps[c]`` (nonnegative; rainbow:
    1) indices of each class c in ``caps`` (other classes are uncapped)
    and no member of the family.  ``may_add`` grows a passing set by one
    index; ``admits_mask`` decides a whole set.
    """

    def __init__(self, *, family: Optional[SetFamily] = None,
                 caps: Optional[dict[int, int]] = None,
                 coloring: Sequence[int] = ()):
        caps = caps or {}
        class_masks: dict[int, int] = {}
        for i, c in enumerate(coloring):
            class_masks[c] = class_masks.get(c, 0) | 1 << i
        self._caps = [(class_masks.get(c, 0), cap) for c, cap in caps.items()]
        self._cap_of = {i: (class_masks[c], caps[c])
                        for i, c in enumerate(coloring) if c in caps}
        members = family.members if family is not None else ()
        self._members = [bitmask(m) for m in members]
        self._members_by_elem = {
            i: [mm for mm in self._members if mm >> i & 1]
            for i in set().union(*members)}

    @classmethod
    def family_avoid(cls, family: SetFamily) -> "SearchConstraint":
        return cls(family=family)

    @classmethod
    def color_cap(cls, caps: dict[int, int],
                  coloring: Sequence[int]) -> "SearchConstraint":
        """At most ``caps[c]`` indices of class c; a class missing from
        ``caps`` is uncapped."""
        return cls(caps=caps, coloring=coloring)

    @classmethod
    def rainbow(cls, coloring: Sequence[int]) -> "SearchConstraint":
        return cls(caps=dict.fromkeys(coloring, 1), coloring=coloring)

    def may_add(self, mask: int, i: int) -> bool:
        """Whether the passing set ``mask`` may take index i (not in it)."""
        new = mask | 1 << i
        cap = self._cap_of.get(i)
        if cap is not None and (new & cap[0]).bit_count() > cap[1]:
            return False
        for mm in self._members_by_elem.get(i, ()):
            if mm & new == mm:
                return False
        return True

    def admits_mask(self, mask: int) -> bool:
        """Full check of one part or cell given as an index bitmask."""
        for cm, cap in self._caps:
            if (mask & cm).bit_count() > cap:
                return False
        for mm in self._members:
            if mm & mask == mm:
                return False
        return True

    def admits(self, parts: Iterable[Sequence[int]]) -> bool:
        """Full check of every part of a candidate."""
        return all(self.admits_mask(bitmask(p)) for p in parts)


class _PartHull:
    """One part's hull flat and, once needed, its barycentric map
    (``feaslp.barycentric_map``, None if dependent).  ``unions`` maps the
    index mask of a union of two parts to its ``_union_record``; the
    stream hands every hull of a search the same dict."""

    __slots__ = ("flat", "grid", "part", "mask", "unions", "_bary")

    def __init__(self, grid, part, unions):
        self.flat = affine_hull(grid, part)
        self.grid = grid
        self.part = tuple(part)
        self.mask = bitmask(part)
        self.unions = unions
        self._bary = self  # not computed yet

    def bary(self):
        if self._bary is self:
            self._bary = barycentric_map(self.grid, self.part)
        return self._bary

    def positive_at(self, x, lead) -> bool:
        """False iff the part is affinely independent and some barycentric
        coordinate of the point x / lead, which lies on its hull, is <= 0.
        """
        bary = self.bary()
        if bary is None:
            return True
        return all(sum(a * b for a, b in zip(row, x)) + row[-1] * lead > 0
                   for row in bary[0])

    def holds(self, x, lead) -> bool:
        """Whether x / lead lies on the hull and passes ``positive_at``."""
        dim = self.flat.dim
        return all(sum(a * b for a, b in zip(row, x)) == row[dim] * lead
                   for row in self.flat.rows) and self.positive_at(x, lead)


# ``_union_record`` values besides a dependence {index: lambda_i}
_MISS = "independent"  # no split of the union has meeting hulls
_FALLBACK = "fallback"  # the split is tested by the part's points


def _union_record(flat, first: _PartHull, hull: _PartHull):
    """The affine dependences lambda (sum lambda_i a_i = 0, sum lambda_i
    = 0) of U = first.part ∪ hull.part, read off this split, where flat
    is the first part's hull.

    ``_MISS`` when U is affinely independent, one spanning dependence
    {i: lambda_i} when they form a line, and ``_FALLBACK`` when they
    span more or the first part P is dependent.  With P independent, a
    dependence restricted to J = hull.part is a kernel vector mu of J's
    residuals on flat, and then w = sum mu_j [a_j | 1] is B_P nu for
    unique weights nu = L w / D, (L, D) P's barycentric map; lambda is
    -L w on P and D mu on J.
    """
    P, J = first.part, hull.part
    if len(P) + flat.codim != flat.dim + 1:
        return _FALLBACK  # P is affinely dependent
    grid, n = hull.grid, len(J)
    res = flat.residuals(grid, J)
    M = [[r[k] for r in res] for k in range(flat.codim)]
    pivots = _eliminate_int(M, n)
    if len(pivots) == n:
        return _MISS
    if len(pivots) < n - 1:
        return _FALLBACK
    mu, = _kernel_int(M, pivots, _back_eliminate(M, pivots), n)
    w = [sum(m * grid[j][c] for m, j in zip(mu, J))
         for c in range(flat.dim)]
    w.append(sum(mu))
    L, D = first.bary()
    lam = [-sum(a * b for a, b in zip(row, w)) for row in L]
    lam += [D * m for m in mu]
    g = gcd(*lam)
    return {i: v // g for i, v in zip(P + J, lam)}


def _pair_meet(flat, first: _PartHull, hull: _PartHull):
    """The pair test of ``_next_flat`` by the union's record: the meet
    point's flat, None when no candidate extending the pair is proper,
    or ``_FALLBACK``.

    The hulls of P = first.part and J = hull.part meet iff a dependence
    lambda of U has s = sum_P lambda_i != 0.  With the dependences one
    line, both parts are then independent and meet only in x = sum_P
    lambda_i a_i / s, with barycentric coordinates lambda_i / s on P and
    -lambda_j / s on J.
    """
    key = first.mask | hull.mask
    lam = hull.unions.get(key)
    if lam is None:
        lam = hull.unions[key] = _union_record(flat, first, hull)
    if lam is _FALLBACK:
        return _FALLBACK
    if lam is _MISS:
        return None
    P, J = first.part, hull.part
    s = sum(lam[i] for i in P)
    if not s:
        return None
    if any(lam[i] * s <= 0 for i in P) or any(lam[j] * s >= 0 for j in J):
        return None
    grid = hull.grid
    x = [sum(lam[i] * grid[i][c] for i in P) for c in range(flat.dim)]
    if s < 0:
        s, x = -s, [-c for c in x]
    g = gcd(s, *x)
    return Flat.from_point([c // g for c in x], s // g)


def _next_flat(flat, hull: _PartHull, chosen, last: bool):
    """The prefix flat once a part with this hull joins the chosen parts,
    or None when no candidate extending the longer prefix is proper.

    A point flat is tested with ``_PartHull.holds``.  Any other flat with
    equations is tested through the part J's points: J meets it where
    affine weights mu on J's points have sum mu_j r_j = 0, r_j their
    ``Flat.residuals``; with mu_0 = 1 - sum of the others, that is codim
    rows in |J| - 1 unknowns.  Unique weights make J affinely independent,
    with barycentric coordinates mu at the only meeting point.

    A pair test that is not the last (one part chosen, its hull the
    flat, r >= 3) is decided by ``_pair_meet`` from the record of the
    pair's union, built at the union's first split and shared by all of
    them, unless the record falls back to the tests above.
    """
    if len(chosen) == 1 and not last:
        met = _pair_meet(flat, chosen[0], hull)
        if met is not _FALLBACK:
            return met
    point = flat.point()
    if point is not None:
        return flat if hull.holds(point, flat.lead) else None
    if flat.rows:
        grid, part = hull.grid, hull.part
        res = flat.residuals(grid, part)
        n = len(part) - 1
        M = [[r[k] - r0 for r in res[1:]] + [-r0]
             for k, r0 in enumerate(res[0])]
        pivots = _eliminate_int(M, n)
        if any(row[n] for row in M[len(pivots):]):
            return None  # the meet is empty
        if len(pivots) == n:
            # mu_j = w[j] / lead with lead > 0: row k reads lead mu_{k+1}
            # = M[k][n], and mu_0 is 1 - the others
            lead = _back_eliminate(M, pivots)
            w = [M[k][n] for k in range(n)]
            w.insert(0, lead - sum(w))
            if min(w) <= 0:
                return None
            x = [sum(wk * grid[i][c] for wk, i in zip(w, part))
                 for c in range(flat.dim)]
            g = gcd(lead, *x)
            lead, x = lead // g, [c // g for c in x]
            if not all(h.positive_at(x, lead) for h in chosen):
                return None
            return Flat.from_point(x, lead)
    # the meet is not empty: the flat is the whole space, or J's weights
    # are not unique
    if last and flat.codim + hull.flat.codim < flat.dim:
        # the last part's flat is never met again and the meet cannot be
        # a point
        return flat
    met = flat.meet(hull.flat)
    point = met.point()
    if point is not None and not all(h.positive_at(point, met.lead)
                                     for h in chosen + (hull,)):
        return None
    return met


def _candidate_stream(indices: Sequence[int], r: int,
                      constraint: Optional[SearchConstraint],
                      max_part_size: Optional[int],
                      solver: Optional[ExactWeightSolver] = None,
                      gate: Optional[int] = None, *,
                      hulls: Optional[dict[int, _PartHull]] = None,
                      unions: Optional[dict[int, object]] = None
                      ) -> Iterator[tuple]:
    """Part-tuples in lexicographic order of the sorted-parts sequence,
    with increasing part minima.

    A part takes an index only if ``constraint.may_add`` allows it.  With
    a solver, each part after the first is tested against the prefix's
    flat by ``_next_flat``; candidates extending a prefix whose flat is
    empty, or is a point where some affinely independent part has a
    barycentric coordinate <= 0, are skipped.  On a line the prefix
    carries the doubled bounds of its parts' common relative interior
    instead, and a part whose bounds miss them is skipped, so only
    proper candidates are emitted.  ``hulls`` caches each part's hull
    record by its index mask, and ``unions`` the affine-dependence record
    of each union of a first part and a part tested against its hull
    (one per union, whichever split comes first); both may be shared by
    streams over the same solver.  With a gate, each flat or interval
    test of a part after the first and each emitted candidate (its solve
    comes next) counts one feasibility check, and the stream raises
    SizeGateExceeded once the count passes the gate.
    """
    idx = sorted(indices)
    line = None
    if solver is not None and solver.dim == 1:
        line = [x for x, in solver.ipoints]
    if hulls is None:
        hulls = {}
    if unions is None:
        unions = {}
    checks = 0

    def count_check():
        nonlocal checks
        if gate is not None:
            checks += 1
            if checks > gate:
                raise SizeGateExceeded(
                    f"feasibility-check gate {gate} exceeded")

    def build(parts, used, prev_min, meet, chosen):
        depth = len(parts)
        if depth == r:
            count_check()
            yield tuple(tuple(p) for p in parts)
            return
        remaining = [i for i in idx if not used >> i & 1]
        if len(remaining) < r - depth:
            return

        def extend(part, mask, start):
            # a completed nonempty part is emitted before its extensions
            if part:
                yield list(part), mask
            if max_part_size is not None and len(part) >= max_part_size:
                return
            for k in range(start, len(remaining)):
                i = remaining[k]
                if not part and prev_min is not None and i <= prev_min:
                    continue
                if constraint is not None and not constraint.may_add(mask, i):
                    continue
                part.append(i)
                yield from extend(part, mask | 1 << i, k + 1)
                part.pop()

        for sub, mask in extend([], 0, 0):
            sub_meet = hull = None
            if line is not None:
                # twice the part's relative interior: the open interval
                # (lo, hi), or the point lo = hi
                lo = min(line[i] for i in sub)
                hi = max(line[i] for i in sub)
                shrink = lo < hi
                lo, hi = 2 * lo + shrink, 2 * hi - shrink
                if depth:
                    count_check()
                    lo, hi = max(lo, meet[0]), min(hi, meet[1])
                    if lo > hi:
                        continue
                sub_meet = (lo, hi)
            elif solver is not None:
                hull = hulls.get(mask)
                if hull is None:
                    hull = hulls[mask] = _PartHull(solver.ipoints, sub,
                                                    unions)
                if depth == 0:
                    # one part's only point has the coordinate 1 or is
                    # repeated, so it never prunes
                    sub_meet = hull.flat
                else:
                    count_check()
                    sub_meet = _next_flat(meet, hull, chosen, depth == r - 1)
                    if sub_meet is None:
                        continue
            yield from build(parts + [sub], used | mask, sub[0], sub_meet,
                             chosen + (hull,))

    yield from build([], 0, None, None, ())


def search_tuple(config: PointConfig, r: int,
                 constraint: Optional[SearchConstraint] = None, *,
                 allowed: Optional[Sequence[int]] = None,
                 max_part_size: Optional[int] = None,
                 lp_gate: int = DEFAULT_LP_GATE) -> Optional[TverbergTuple]:
    """First proper tuple in canonical order passing the constraint.

    Returns None after exhausting the stream, and raises SizeGateExceeded
    when more than ``lp_gate`` feasibility checks (flat or interval tests
    plus solves) are needed (a distinct outcome).
    """
    if r < 1:
        raise PreconditionError("r must be at least 1")
    if config.n < r:
        raise PreconditionError("need at least r points")
    real = realify_if_needed(config)
    solver = ExactWeightSolver(real.points)
    indices = list(range(config.n)) if allowed is None else sorted(allowed)
    stream = _candidate_stream(indices, r, constraint, max_part_size, solver,
                               lp_gate)

    for parts in stream:
        witness = solver.solve(parts)
        if witness is not None:
            tup = TverbergTuple(r, parts, witness)
            tup.validate(config)
            if constraint is not None and not constraint.admits(parts):
                raise VerificationBug(
                    "pruned stream emitted a violating candidate")
            return tup
    return None


# --------------------------------------------------------------------------
# two-tuple search

def search_two_tuples(config: PointConfig, r: int, check: SearchConstraint,
                      *, allowed: Optional[Sequence[int]] = None,
                      tuple_gate: int = DEFAULT_TUPLE_GATE,
                      pair_gate: int = DEFAULT_PAIR_GATE
                      ) -> Optional[tuple[TverbergTuple, TverbergTuple]]:
    """Two individually proper tuples I, J whose every cell I_a ∩ J_b
    passes ``check``.

    The pair returned is the first in stream order of its first tuple I,
    then of its second tuple J (J = I allowed), over the canonical stream
    with parts of at most dim + 1 indices.  Each feasible I is joined
    with a second stream pruned by I's cell condition and, like the
    first, by the parts' hulls (empty meets and point meets with a
    nonpositive barycentric coordinate), or on a line by the parts'
    relative interiors, so that there the first candidate passing the
    cell condition completes the pair.  The search is exhaustive while
    at most ``tuple_gate`` feasible first tuples are found and at most
    ``pair_gate`` candidates, summed over first tuples, are emitted by
    that pruned second stream; exhaustion returns None and a tripped gate
    raises SizeGateExceeded.  An emitted pair is always exactly verified.
    """
    real = realify_if_needed(config)
    solver = ExactWeightSolver(real.points)
    cara = real.dim + 1  # restricting part sizes preserves pair existence
    indices = list(range(config.n)) if allowed is None else sorted(allowed)
    hulls: dict[int, _PartHull] = {}
    unions: dict[int, object] = {}
    solved: dict[tuple, Optional[TverbergTuple]] = {}

    def stream(constraint):
        return _candidate_stream(indices, r, constraint, cara, solver,
                                 hulls=hulls, unions=unions)

    def proper(parts) -> Optional[TverbergTuple]:
        if parts not in solved:
            witness = solver.solve(parts)
            solved[parts] = (None if witness is None
                             else TverbergTuple(r, parts, witness))
        return solved[parts]

    found = passed = 0
    for parts in stream(None):
        first = proper(parts)
        if first is None:
            continue
        found += 1
        if found > tuple_gate:
            raise SizeGateExceeded(f"first-tuple gate {tuple_gate} exceeded")
        for parts2 in stream(_CellCondition(check, parts)):
            passed += 1
            if passed > pair_gate:
                raise SizeGateExceeded(f"pair gate {pair_gate} exceeded")
            second = proper(parts2)
            if second is not None:
                pair = (first, second)
                _validate_pair(pair, config, check)
                return pair
    return None


class _CellCondition:
    """The cell condition of a fixed first tuple I, as a stream constraint.

    Index k joins exactly one cell of the part J_b that takes it, the
    cell I_a ∩ J_b of the part I_a holding k; outside I it joins none.
    """

    def __init__(self, check: SearchConstraint,
                 parts: Sequence[Sequence[int]]):
        self._check = check
        self._part_mask = {i: bitmask(p) for p in parts for i in p}

    def may_add(self, mask: int, k: int) -> bool:
        part = self._part_mask.get(k)
        return part is None or self._check.may_add(mask & part, k)


def _validate_pair(pair, config, check: SearchConstraint) -> None:
    """Exact re-verification of both tuples and of every cell I_a ∩ J_b."""
    for t in pair:
        t.validate(config)
    first, second = ([bitmask(p) for p in t.parts] for t in pair)
    if not all(check.admits_mask(a & b) for a in first for b in second):
        raise VerificationBug("emitted pair fails its cell condition")
