"""Deterministic search for (constrained) proper Tverberg tuples.

Candidates are ordered part-tuples of disjoint nonempty index subsets;
the stream is generated in lexicographic order of the sequence of sorted
parts, so ``({0},{1},{2})`` with everything else leftover comes first.
Canonical mode keeps exactly one relabeling per unordered partition by
requiring min(I_1) < ... < min(I_r).

One set condition, ``SearchConstraint``, decides each part of a tuple
and each cell I_a ∩ J_b of a pair on index bitmasks: at most a capped
count per color class and no member of a forbidden family.

A proper tuple needs a common point in the relative interiors of the
convex hulls of its parts.  Searches over a point set therefore prune
the stream by prefix: each part's hull equations are computed once on
the solver's integer grid, and the flat where the affine hulls of the
parts chosen so far meet is carried down the depth-first stream.  When
that flat is empty, every candidate extending the prefix is skipped.
When it is a single point x, every extension can only meet in x, and an
affinely independent part has unique barycentric coordinates there; so
the prefix is skipped when some such part has a coordinate <= 0, and
each later part must hold x with positive coordinates.  Affinely
dependent parts never prune.  The tests are exact and need no general
position.  They remove only candidates that have no proper weights, so
the first feasible candidate and every feasible one are unchanged; an
emitted candidate with uniquely solvable weights is always proper.

Searches are exhaustive within a size gate that counts exact feasibility
checks: every flat test of a part after the first and every weight-system
solve counts one.  They
run sequentially and return the first feasible candidate in stream
order.

The two-tuple search is a join.  It walks the canonical stream, and for
each proper tuple I it walks a second stream pruned by I's cell
condition, whose first proper tuple J completes the pair.  The cell
condition is monotone, so it prunes partial parts: index k joins only
the cell I_a ∩ J_b of the part I_a holding it.  Solves are memoised by
candidate, so none is solved twice, and one hull cache serves every
stream of a search.  The pair is the one that solving every candidate
and scanning all pairs in order would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from fandist.errors import (
    GuaranteeViolation,
    PreconditionError,
    SizeGateExceeded,
    VerificationBug,
)
from fandist.feaslp import (
    ExactWeightSolver,
    WeightWitness,
    affine_hull,
    barycentric_map,
    realify_if_needed,
)
from fandist.galedual import PointConfig
from fandist.kneser import (
    ColoringCertificate,
    SetFamily,
    bitmask,
    m_eligible,
    prime_base,
    verify_certificate,
)

__all__ = [
    "SearchConstraint",
    "TverbergTuple",
    "enumerate_candidates",
    "search_colored_tuple",
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
    """One part's hull flat and, once a point flat needs it, its
    barycentric map (``feaslp.barycentric_map``, None if dependent)."""

    __slots__ = ("flat", "_grid", "_part", "_bary")

    def __init__(self, grid, part):
        self.flat = affine_hull(grid, part)
        self._grid = grid
        self._part = tuple(part)
        self._bary = self  # not computed yet

    def positive_at(self, x, lead) -> bool:
        """False iff the part is affinely independent and some barycentric
        coordinate of the point x / lead, which lies on its hull, is <= 0.
        """
        if self._bary is self:
            self._bary = barycentric_map(self._grid, self._part)
        if self._bary is None:
            return True
        return all(sum(a * b for a, b in zip(row, x)) + row[-1] * lead > 0
                   for row in self._bary[0])

    def holds(self, x, lead) -> bool:
        """Whether x / lead lies on the hull and passes ``positive_at``."""
        dim = self.flat.dim
        return all(sum(a * b for a, b in zip(row, x)) == row[dim] * lead
                   for row in self.flat.rows) and self.positive_at(x, lead)


def _next_flat(flat, hull: _PartHull, chosen, last: bool):
    """The prefix flat once a part with this hull joins the chosen parts,
    or None when no candidate extending the longer prefix is proper."""
    point = flat.point()
    if point is not None:
        return flat if hull.holds(point, flat.lead) else None
    if last and flat.codim + hull.flat.codim < flat.dim:
        # the last part's flat is never met again and the meet cannot be
        # a point: test only
        return flat if flat.added_rank(hull.flat) is not None else None
    met = flat.meet(hull.flat)
    point = None if met is None else met.point()
    if point is not None and not all(h.positive_at(point, met.lead)
                                     for h in chosen + (hull,)):
        return None
    return met


def _candidate_stream(indices: Sequence[int], r: int, canonical_only: bool,
                      constraint: Optional[SearchConstraint],
                      max_part_size: Optional[int],
                      solver: Optional[ExactWeightSolver] = None,
                      gate: Optional[int] = None, *,
                      hulls: Optional[dict[int, _PartHull]] = None
                      ) -> Iterator[tuple]:
    """Part-tuples in lexicographic order of the sorted-parts sequence.

    A part takes an index only if ``constraint.may_add`` allows it.  With
    a solver, candidates extending a prefix whose hull flat is empty, or
    is a point where some affinely independent part has a barycentric
    coordinate <= 0, are skipped; ``hulls`` caches each part's hull
    record by its index mask and may be shared by streams over the same
    solver.  With a gate, each flat test of a part after the first and
    each emitted candidate (its solve comes next) counts one feasibility
    check, and the stream raises SizeGateExceeded once the count passes
    the gate.
    """
    idx = sorted(indices)
    if hulls is None:
        hulls = {}
    checks = 0

    def count_check():
        nonlocal checks
        if gate is not None:
            checks += 1
            if checks > gate:
                raise SizeGateExceeded(
                    f"feasibility-check gate {gate} exceeded")

    def build(parts, used, prev_min, flat, chosen):
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
                if not part and canonical_only and prev_min is not None \
                        and i <= prev_min:
                    continue
                if constraint is not None and not constraint.may_add(mask, i):
                    continue
                part.append(i)
                yield from extend(part, mask | 1 << i, k + 1)
                part.pop()

        for sub, mask in extend([], 0, 0):
            sub_flat = hull = None
            if solver is not None:
                hull = hulls.get(mask)
                if hull is None:
                    hull = hulls[mask] = _PartHull(solver.ipoints, sub)
                if depth == 0:
                    # one part's only point has the coordinate 1 or is
                    # repeated, so it never prunes
                    sub_flat = hull.flat
                else:
                    count_check()
                    sub_flat = _next_flat(flat, hull, chosen, depth == r - 1)
                    if sub_flat is None:
                        continue
            yield from build(parts + [sub], used | mask, sub[0], sub_flat,
                             chosen + (hull,))

    yield from build([], 0, None, None, ())


def enumerate_candidates(n: int, r: int,
                         canonical_only: bool = False) -> Iterator[tuple]:
    """Every assignment of [n] into r nonempty parts plus leftovers.

    Ordered lexicographically by the sequence of sorted parts; canonical
    mode suppresses relabelings by requiring increasing part minima.
    """
    if n < r:
        raise PreconditionError("need at least r indices")
    return _candidate_stream(range(n), r, canonical_only, None, None)


def search_tuple(config: PointConfig, r: int,
                 constraint: Optional[SearchConstraint] = None, *,
                 allowed: Optional[Sequence[int]] = None,
                 canonical_only: bool = True,
                 max_part_size: Optional[int] = None,
                 lp_gate: int = DEFAULT_LP_GATE,
                 guarantee: Optional[str] = None) -> Optional[TverbergTuple]:
    """First proper tuple in canonical order passing the constraint.

    Returns None after exhausting the stream; raises SizeGateExceeded when
    more than ``lp_gate`` feasibility checks (flat meets plus solves) are
    needed (a distinct outcome), and GuaranteeViolation when
    ``guarantee`` names a satisfied theorem hypothesis yet the exhaustive
    search came up empty (that is a bug signal, not a data error).
    """
    if config.n < r:
        raise PreconditionError("need at least r points")
    real = realify_if_needed(config)
    solver = ExactWeightSolver(real.points)
    indices = list(range(config.n)) if allowed is None else sorted(allowed)
    stream = _candidate_stream(indices, r, canonical_only, constraint,
                               max_part_size, solver, lp_gate)

    for parts in stream:
        witness = solver.solve(parts)
        if witness is not None:
            tup = TverbergTuple(r, parts, witness)
            tup.validate(config)
            if constraint is not None and not constraint.admits(parts):
                raise VerificationBug(
                    "pruned stream emitted a violating candidate")
            return tup
    if guarantee:
        raise GuaranteeViolation(
            f"search exhausted although {guarantee} guarantees a tuple")
    return None


def search_colored_tuple(config: PointConfig, r: int, *,
                         allowed: Optional[Sequence[int]] = None,
                         lp_gate: int = DEFAULT_LP_GATE,
                         guarantee: Optional[str] = None
                         ) -> Optional[TverbergTuple]:
    """Rainbow-constrained search: at most one point per class per part."""
    if config.coloring is None:
        raise PreconditionError("a coloring is required")
    sizes = config.class_sizes()
    if any(s < r for s in sizes):
        raise PreconditionError(
            f"every class needs at least r={r} points, sizes {sizes}")
    constraint = SearchConstraint.rainbow(config.coloring)
    return search_tuple(config, r, constraint, allowed=allowed,
                        lp_gate=lp_gate, guarantee=guarantee)


# --------------------------------------------------------------------------
# two-tuple search

def search_two_tuples(config: PointConfig, r: int, *,
                      family: Optional[SetFamily] = None,
                      certificate: Optional[ColoringCertificate] = None,
                      cell_caps: Optional[dict[int, int]] = None,
                      coloring: Optional[Sequence[int]] = None,
                      allowed: Optional[Sequence[int]] = None,
                      tuple_gate: int = DEFAULT_TUPLE_GATE,
                      pair_gate: int = DEFAULT_PAIR_GATE
                      ) -> Optional[tuple[TverbergTuple, TverbergTuple]]:
    """Two individually proper tuples jointly satisfying a cell condition.

    Cell condition: either no family member inside any Ver-intersection
    I_i ∩ J_j (family mode, certified for the r^2-uniform Kneser
    hypergraph), or per-class caps on every cell (caps mode; a class
    missing from ``cell_caps`` is capped at 0, so it may meet no cell).

    The pair returned is the first in stream order of its first tuple I,
    then of its second tuple J (J = I allowed), over the canonical stream
    with parts of at most dim + 1 indices.  Each feasible I is joined
    with a second stream pruned by I's cell condition and, like the
    first, by the parts' hulls (empty meets and point meets with a
    nonpositive barycentric coordinate).  The search is exhaustive while
    at most ``tuple_gate`` feasible first tuples are found and at most
    ``pair_gate`` candidates, summed over first tuples, are emitted by
    that pruned second stream; exhaustion returns None and a tripped gate
    raises SizeGateExceeded.  An emitted pair is always exactly verified.
    """
    if r == 2 or prime_base(r) != r:
        raise PreconditionError("r must be an odd prime")
    if family is not None:
        if certificate is None:
            raise PreconditionError(
                "family mode needs a chromatic certificate")
        if certificate.family != family or certificate.r != r * r:
            raise PreconditionError(
                "certificate must cover this family for r^2")
        ok, bad = verify_certificate(certificate)
        if not ok:
            raise PreconditionError(f"invalid certificate: {bad}")
        m = certificate.num_classes
        check = SearchConstraint.family_avoid(family)
    elif cell_caps is not None:
        if coloring is None:
            raise PreconditionError("caps mode needs the coloring")
        m = max(coloring) + 1
        check = SearchConstraint.color_cap(
            {c: cell_caps.get(c, 0) for c in range(m)}, coloring)
    else:
        raise PreconditionError("either a family or cell caps are required")
    eligible, digits = m_eligible(m, r)
    if not eligible:
        raise PreconditionError(
            f"m={m} fails the digit condition: base-{r} digits {digits}")

    real = realify_if_needed(config)
    solver = ExactWeightSolver(real.points)
    cara = real.dim + 1  # restricting part sizes preserves pair existence
    indices = list(range(config.n)) if allowed is None else sorted(allowed)
    hulls: dict[int, _PartHull] = {}
    solved: dict[tuple, Optional[TverbergTuple]] = {}

    def stream(constraint):
        return _candidate_stream(indices, r, True, constraint, cara, solver,
                                 hulls=hulls)

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
