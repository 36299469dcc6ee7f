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
flat is met with the part's hull equations, built on first use, once
per part and search.  Once the flat is a point, every extension can only
meet in it, and each later part must hold it, by its hull equations,
with positive barycentric coordinates.  Affinely dependent parts never
prune.

A pair test (one part P chosen, with more parts to come) is decided
once per union U = P ∪ J, by Radon's observation: the hulls of P and J
meet iff some affine dependence lambda of U (sum lambda_i a_i = 0, sum
lambda_i = 0) has s = sum_P lambda_i != 0, then with barycentric
coordinates lambda_i / s on P and -lambda_j / s on J if the dependences
form one line.  So with one line and no zero entry, only the split into
lambda's sign sides can meet, in x = sum_pos lambda_i a_i / sum_pos
lambda_i; with a zero entry, or no dependence, no split can.  The first
split of U that is tested records this, and builds x when a split first
matches.  Any other U falls back to the test through J's points.
Records read lambda from memoised maximal minors of the lifted columns
[a_i | 1], in a frame where the search's points span their own affine
hull.  One reduction of the frame's columns against a basis B of them
gives every minor that replaces one point of B; any other minor is a
small determinant of those, divided by a power of det(B).

The same record decides a point test of J against a prefix point y whose
last part P is not the first: y lies on P's hull, inside it if P is
independent, and a dependent part's own dependence has s = 0, so J holds
y with positive coordinates iff the split is the record's and y = x (a
zero entry of lambda would fall on J).

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

Searches are exhaustive within one size gate that counts exact
feasibility checks: every flat or interval test of a part after the
first and every emitted candidate (its solve comes next) counts one,
summed over every stream of the search.  They run sequentially and
return the first feasible candidate in stream order.

The two-tuple search is a join.  It walks the proper tuples I of the
canonical stream and takes, for each, the first proper tuple J of a
second stream pruned by I's cell condition, which completes the pair.
The cell condition is monotone, so it prunes partial parts: index k
joins only the cell I_a ∩ J_b of the part I_a holding it.  Solves are
memoised by candidate, so none is solved twice, and every stream of a
search shares one state: the hull records, the union records and the
check count.  The pair is the one that solving every candidate and
scanning all pairs in order would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from fandist.errors import (
    PreconditionError,
    SizeGateExceeded,
    VerificationBug,
)
from fandist.exactnum import (
    _back_eliminate,
    _det_int,
    _eliminate_int,
    _kernel_int,
    _rref_int,
)
from fandist.feaslp import (
    ExactWeightSolver,
    Flat,
    WeightWitness,
    affine_hull,
    barycentric_map,
    check_parts,
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
        check_parts(self.parts, config.n)
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
    """One part's hull flat, built on first read, and, once needed, its
    barycentric map (``feaslp.barycentric_map``, None if dependent).
    ``state`` is the ``_SearchState`` of the search, which holds the
    union records."""

    __slots__ = ("grid", "part", "mask", "state", "_flat", "_bary")

    def __init__(self, grid, part, state):
        self.grid = grid
        self.part = tuple(part)
        self.mask = bitmask(part)
        self.state = state
        self._flat = None
        self._bary = self  # not computed yet

    @property
    def flat(self) -> Flat:
        if self._flat is None:
            self._flat = affine_hull(self.grid, self.part)
        return self._flat

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
        flat = self.flat
        dim = flat.dim
        return all(sum(a * b for a, b in zip(row, x)) == row[dim] * lead
                   for row in flat.rows) and self.positive_at(x, lead)


# ``_union_record`` values besides a ``_Split``
_MISS = "miss"  # no split of the union has meeting relative interiors
_FALLBACK = "fallback"  # the split is tested by the part's points


class _Split:
    """The record of a union whose dependences are one line lambda with
    no zero entry: ``pos`` masks its positive side, and ``meet`` builds
    once the flat of x = sum_pos lambda_i a_i / sum_pos lambda_i from the
    positive side's pairs (i, lambda_i)."""

    __slots__ = ("pos", "_terms", "_grid", "_meet")

    def __init__(self, pos, terms, grid):
        self.pos, self._terms, self._grid, self._meet = pos, terms, grid, None

    def meet(self) -> Flat:
        if self._meet is None:
            grid, terms = self._grid, self._terms
            x = [sum(v * grid[i][c] for i, v in terms)
                 for c in range(len(grid[0]))]
            self._meet = Flat.from_point(x, sum(v for _, v in terms))
        return self._meet


def _union_record(first: _PartHull, hull: _PartHull):
    """Every split's decision by the affine dependences lambda (sum
    lambda_i a_i = 0, sum lambda_i = 0) of U = first.part ∪ hull.part.

    ``_MISS`` when U is affinely independent or its dependences form one
    line with a zero entry, a ``_Split`` when they form one line with
    none, and ``_FALLBACK`` when they span more.  A line that lies on one
    part has zero entries on the other, so it misses: the parts' affine
    spans cannot meet, since their meet would give a dependence with s !=
    0.  In the state's frame, where the search's points span e
    dimensions, more than e + 2 points have two dependences or more; e +
    2 points u_0 < ... < u_{e+1} have lambda_i = (-1)^i m(U - u_i), m(S)
    the memoised minor of the columns of S read off the frame's basis
    (``_SearchState.minor``), all zero when they have more; fewer are
    independent when the minor of U and the first other points is not
    zero, and only otherwise is the kernel of their columns eliminated.
    """
    state, grid = hull.state, hull.grid
    cols, e = state.frame(grid)
    umask = first.mask | hull.mask
    U = sorted(first.part + hull.part)
    k = len(U)
    if k > e + 2:
        return _FALLBACK
    if k == e + 2:
        lam = [state.minor(umask ^ 1 << i) * (-1) ** j
               for j, i in enumerate(U)]
        if not any(lam):
            return _FALLBACK
    else:
        pad = [i for i in state.indices if not umask >> i & 1][:e + 1 - k]
        if state.minor(umask | bitmask(pad)):
            return _MISS
        M = [[cols[i][c] for i in U] for c in range(e + 1)]
        pivots = _eliminate_int(M, k)
        if len(pivots) == k:
            return _MISS
        if len(pivots) < k - 1:
            return _FALLBACK
        lam, = _kernel_int(M, pivots, _back_eliminate(M, pivots), k)
    if not all(lam):
        return _MISS
    terms = [(i, v) for i, v in zip(U, lam) if v > 0]
    return _Split(bitmask(i for i, _ in terms), terms, grid)


def _next_flat(flat, hull: _PartHull, chosen, last: bool):
    """The prefix flat once a part with this hull joins the chosen parts,
    or None when no candidate extending the longer prefix is proper.
    A prefix of one part carries the flat None, read as the part's own.

    A pair test that is not the last (one part chosen, r >= 3) and a
    point test after two or more parts read the record of the union of
    the last chosen part and J, shared by all of its splits, unless it
    falls back: they pass only at the record's split, the first with its
    meet flat, the second if the prefix point is that meet point.

    Any other point flat is tested with ``_PartHull.holds``.  Any other
    flat with equations is tested through J's points: J meets it where
    affine weights mu on J's points have sum mu_j r_j = 0, r_j their
    ``Flat.residuals``; with mu_0 = 1 - sum of the others, that is codim
    rows in |J| - 1 unknowns.  Unique weights make J affinely independent,
    with barycentric coordinates mu at the only meeting point.
    """
    point = None if flat is None else flat.point()
    if len(chosen) == 1 and not last or len(chosen) > 1 and point is not None:
        prev, unions = chosen[-1], hull.state.unions
        key = prev.mask | hull.mask
        rec = unions.get(key)
        if rec is None:
            rec = unions[key] = _union_record(prev, hull)
        if rec is _MISS:
            return None
        if rec is not _FALLBACK:
            if rec.pos != prev.mask and rec.pos != hull.mask:
                return None
            met = rec.meet()
            if len(chosen) == 1:
                return met
            lead, m, y = flat.lead, met.lead, met.point()
            return flat if all(a * m == b * lead
                               for a, b in zip(point, y)) else None
    if flat is None:
        flat = chosen[0].flat
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


class _SearchState:
    """What every stream of one search shares: each part's ``_PartHull``
    by its index mask, each ``_union_record`` by the union's mask, the
    frame of ``indices`` and its minors, and the count of feasibility
    checks, which raises SizeGateExceeded once it passes ``gate``."""

    __slots__ = ("gate", "checks", "hulls", "unions", "indices", "minors",
                 "_frame", "_basis")

    def __init__(self, gate: int = DEFAULT_LP_GATE):
        self.gate = gate
        self.checks = 0
        self.hulls: dict[int, _PartHull] = {}
        self.unions: dict[int, object] = {}
        self.indices: Sequence[int] = ()
        self.minors: dict[int, int] = {}
        self._frame = self._basis = None

    def count_check(self) -> None:
        self.checks += 1
        if self.checks > self.gate:
            raise SizeGateExceeded(
                f"feasibility-check gate {self.gate} exceeded")

    def minor(self, mask) -> int:
        """m(S), memoised: the determinant of the frame columns of the
        e + 1 indices S in the mask, in increasing order.

        S shares ``common`` with the frame's basis B, takes t indices
        ``new`` off it and leaves ``out`` of B.  With Z[i][k] the minor
        of B with its k-th index replaced by i, in place, m(S) is (-1)^s
        det(Z[new][out]) / D^(t-1), D = det(B) = m(B): dividing the
        columns by B's is Cramer's rule, and bringing ``common`` to the
        front passes s = sum over x in new and out of the common indices
        above x."""
        m = self.minors.get(mask)
        if m is None:
            basis, D, Z, pos = self._basis
            common, new, out = mask & basis, mask & ~basis, basis & ~mask
            rows = [Z[i] for i in self.indices if new >> i & 1]
            if rows:
                ks = [k for i, k in pos.items() if out >> i & 1]
                m = _det_int([[row[k] for k in ks] for row in rows])
                if len(rows) > 1:
                    m //= D ** (len(rows) - 1)
                if sum((common >> i + 1).bit_count() for i in self.indices
                       if (new | out) >> i & 1) & 1:
                    m = -m
            else:
                m = D
            self.minors[mask] = m
        return m

    def frame(self, grid):
        """(cols, e): e is the dimension of the affine hull of the points
        grid[i], i in ``indices``, and cols[i] is [a_i | 1] for a_i the
        point's coordinates off the hull's pivots, a projection injective
        on the hull that keeps every affine dependence.  Built once, by
        the first union record, with what ``minor`` reads: the basis B of
        the first e + 1 indices whose columns are independent, the pivots
        of one ``_rref_int`` of the columns; D = det(B); and for each
        index i off B, Z[i][k] = D T[k][i] / lead, T the reduced form,
        which is the minor of B with its k-th index replaced by i."""
        if self._frame is None:
            idx = self.indices
            hull = affine_hull(grid, idx)
            keep = [c for c in range(hull.dim) if c not in hull.pivots]
            cols = {i: [grid[i][c] for c in keep] + [1] for i in idx}
            e = len(keep)
            T = [[cols[i][c] for i in idx] for c in range(e + 1)]
            pivots, lead = _rref_int(T, len(idx))
            pos = {idx[pc]: k for k, (_, pc) in enumerate(pivots)}
            D = _det_int([cols[i] for i in pos])
            Z = {i: [D * row[j] // lead for row in T]
                 for j, i in enumerate(idx) if i not in pos}
            self._frame = cols, e
            self._basis = bitmask(pos), D, Z, pos
        return self._frame


def _candidate_stream(indices: Sequence[int], r: int,
                      constraint: Optional[SearchConstraint],
                      max_part_size: Optional[int],
                      solver: Optional[ExactWeightSolver] = None,
                      state: Optional[_SearchState] = None
                      ) -> Iterator[tuple]:
    """Part-tuples in lexicographic order of the sorted-parts sequence,
    with increasing part minima.

    A part takes an index only if ``constraint.may_add`` allows it.  The
    stream keeps one table of the parts that the constraint and
    ``max_part_size`` admit: each part's admitted one-index extensions,
    keyed by its mask and filled when the part is first reached, so
    ``may_add`` runs once per entry and a search that stops early lists
    only the parts it reached.  Each depth walks the table in pre-order
    from the one-point parts above the previous part's least index, a
    part before its extensions, and never enters a part that meets the
    indices used so far.  With a solver, each part after the first is
    tested against the prefix's flat by ``_next_flat``; candidates
    extending a prefix whose flat is empty, or is a point where some
    affinely independent part has a barycentric coordinate <= 0, are
    skipped.  On a line the prefix
    carries the doubled bounds of its parts' common relative interior
    instead, and a part whose bounds miss them is skipped, so only
    proper candidates are emitted.  Each flat or interval test of a part
    after the first and each emitted candidate (its solve comes next)
    counts one check on ``state``, which also keeps the hull and union
    records and the frame of the indices; streams over the same solver
    and indices may share it.
    """
    idx = sorted(indices)
    line = None
    if solver is not None and solver.dim == 1:
        line = [x for x, in solver.ipoints]
    if state is None:
        state = _SearchState()
    state.indices = idx
    count_check, hulls = state.count_check, state.hulls
    table: dict[int, list] = {}

    def extensions(part, mask, start):
        # fill the table's entry for part: its admitted one-index
        # extensions (part + (idx[j],), their mask, j + 1) for j >= start,
        # last first, so that a stack pops them in increasing order
        kids = table[mask] = []
        if max_part_size is None or len(part) < max_part_size:
            for j in range(len(idx) - 1, start - 1, -1):
                i = idx[j]
                if constraint is None or constraint.may_add(mask, i):
                    kids.append((part + (i,), mask | 1 << i, j + 1))
        return kids

    roots = extensions((), 0, 0)

    def build(parts, used, prev_min, meet, chosen):
        depth = len(parts)
        if depth == r:
            count_check()
            yield parts
            return
        if len(idx) - used.bit_count() < r - depth:
            return
        # a stack walk of the table in pre-order: a popped part pushes its
        # extensions that miss used, so it comes before them, and an
        # extension of a part that meets used is never reached
        stack = [e for e in roots if e[0][0] > prev_min and not e[1] & used]
        while stack:
            sub, mask, start = stack.pop()
            kids = table.get(mask)
            if kids is None:
                kids = extensions(sub, mask, start)
            if kids:
                stack += [e for e in kids if not e[1] & used]
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
                    hull = hulls[mask] = _PartHull(solver.ipoints, sub, state)
                # one part never prunes (its only point has the coordinate
                # 1 or is repeated), and its prefix carries no flat
                if depth:
                    count_check()
                    sub_meet = _next_flat(meet, hull, chosen, depth == r - 1)
                    if sub_meet is None:
                        continue
            yield from build(parts + (sub,), used | mask, sub[0], sub_meet,
                             chosen + (hull,))

    yield from build((), 0, -1, None, ())


def _setup(config: PointConfig, r: int,
           allowed: Optional[Sequence[int]]
           ) -> tuple[ExactWeightSolver, list[int]]:
    """The preconditions and the (solver, indices) of every search."""
    if r < 1:
        raise PreconditionError("r must be at least 1")
    if config.n < r:
        raise PreconditionError("need at least r points")
    solver = ExactWeightSolver(realify_if_needed(config).points)
    if allowed is None:
        allowed = range(config.n)
    indices = sorted(i for i, in check_parts(([i] for i in allowed), config.n))
    return solver, indices


def search_tuple(config: PointConfig, r: int,
                 constraint: Optional[SearchConstraint] = None, *,
                 allowed: Optional[Sequence[int]] = None,
                 max_part_size: Optional[int] = None,
                 lp_gate: int = DEFAULT_LP_GATE) -> Optional[TverbergTuple]:
    """First proper tuple in canonical order passing the constraint.

    Returns None after exhausting the stream, and raises SizeGateExceeded
    when more than ``lp_gate`` feasibility checks (flat or interval tests
    plus solves) are needed (a distinct outcome).  The solver re-verifies
    the returned witness exactly.
    """
    solver, indices = _setup(config, r, allowed)
    stream = _candidate_stream(indices, r, constraint, max_part_size, solver,
                               _SearchState(lp_gate))

    for parts in stream:
        witness = solver.solve(parts)
        if witness is not None:
            if constraint is not None and not constraint.admits(parts):
                raise VerificationBug(
                    "pruned stream emitted a violating candidate")
            return TverbergTuple(r, parts, witness)
    return None


# --------------------------------------------------------------------------
# two-tuple search

def search_two_tuples(config: PointConfig, r: int, check: SearchConstraint,
                      *, allowed: Optional[Sequence[int]] = None,
                      lp_gate: int = DEFAULT_LP_GATE
                      ) -> Optional[tuple[TverbergTuple, TverbergTuple]]:
    """Two individually proper tuples I, J whose every cell I_a ∩ J_b
    passes ``check``.

    The pair returned is the first in stream order of its first tuple I,
    then of its second tuple J (J = I allowed), over the canonical stream
    with parts of at most dim + 1 indices.  Each proper I is joined with
    a second stream pruned by I's cell condition and, like the first, by
    the parts' hulls (empty meets and point meets with a nonpositive
    barycentric coordinate), or on a line by the parts' relative
    interiors, whose first proper candidate completes the pair.  Every
    stream counts its flat or interval tests and emitted candidates
    against one gate, as ``search_tuple`` does: exhaustion returns None,
    more than ``lp_gate`` checks raise SizeGateExceeded.  An emitted pair
    is always exactly verified.
    """
    solver, indices = _setup(config, r, allowed)
    cara = solver.dim + 1  # restricting part sizes preserves pair existence
    state = _SearchState(lp_gate)
    solved: dict[tuple, Optional[TverbergTuple]] = {}

    def proper_tuples(constraint):
        for parts in _candidate_stream(indices, r, constraint, cara, solver,
                                       state):
            if parts not in solved:
                witness = solver.solve(parts)
                solved[parts] = (None if witness is None
                                 else TverbergTuple(r, parts, witness))
            if solved[parts] is not None:
                yield solved[parts]

    for first in proper_tuples(None):
        second = next(proper_tuples(_CellCondition(check, first.parts)),
                      None)
        if second is not None:
            pair = (first, second)
            _validate_pair(pair, check)
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


def _validate_pair(pair, check: SearchConstraint) -> None:
    """Exact re-verification of every cell I_a ∩ J_b (``solve`` has
    re-verified both witnesses)."""
    first, second = ([bitmask(p) for p in t.parts] for t in pair)
    if not all(check.admits_mask(a & b) for a in first for b in second):
        raise VerificationBug("emitted pair fails its cell condition")
