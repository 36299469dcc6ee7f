"""Set families, r-uniform Kneser hypergraph certificates, and caps.

A family F of nonempty subsets of [n] has the r-uniform Kneser hypergraph
whose hyperedges are r pairwise disjoint members.  An m-class assignment
with no monochromatic hyperedge certifies chromatic number at most m.

Threshold families (all sets holding more than a 1/r fraction of a color
class) are handled intensionally through per-class caps; they are never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from fandist.errors import PreconditionError, SizeGateExceeded
from fandist.exactnum import _json_int

__all__ = [
    "ColoringCertificate",
    "SetFamily",
    "bitmask",
    "has_r_disjoint",
    "m_eligible",
    "prime_base",
    "threshold_caps",
    "verify_certificate",
]


class SetFamily:
    """A family of nonempty index subsets of [n], canonicalized.

    Members are stored as sorted tuples, deduplicated, ordered by size
    then lexicographically.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Sequence[Sequence[int]]):
        canon = set()
        for m in members:
            t = tuple(sorted(set(int(i) for i in m)))
            if not t:
                raise PreconditionError("family members must be nonempty")
            if t[0] < 0 or t[-1] >= n:
                raise PreconditionError("member index out of range")
            canon.add(t)
        self.n = n
        self.members = tuple(sorted(canon, key=lambda t: (len(t), t)))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, SetFamily) and self.n == other.n
                and self.members == other.members)

    def to_json(self) -> dict:
        return {"n": self.n, "members": [list(m) for m in self.members]}

    @classmethod
    def from_json(cls, obj: dict) -> "SetFamily":
        if not isinstance(obj, dict):
            raise PreconditionError("a set family is a JSON object")
        members = obj.get("members")
        if not isinstance(members, list) or \
                not all(isinstance(m, list) for m in members):
            raise PreconditionError("members must be a list of lists")
        return cls(_json_int(obj.get("n"), "n"),
                   [[_json_int(i, "members entry") for i in m]
                    for m in members])

    @classmethod
    def all_k_subsets(cls, n: int, k: int) -> "SetFamily":
        from itertools import combinations
        return cls(n, list(combinations(range(n), k)))


@dataclass(frozen=True)
class ColoringCertificate:
    """An m-class assignment of family members.

    Valid iff no class contains r pairwise disjoint members, witnessing
    chromatic number of the r-uniform Kneser hypergraph at most m.
    """

    family: SetFamily
    r: int
    assignment: tuple[int, ...]  # class per member, aligned with family.members

    def __post_init__(self):
        if len(self.assignment) != len(self.family.members):
            raise PreconditionError("assignment must be total")

    @property
    def num_classes(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 1

    def class_members(self, k: int) -> list[tuple[int, ...]]:
        return [m for m, c in zip(self.family.members, self.assignment)
                if c == k]

    def to_json(self) -> dict:
        out = self.family.to_json()
        out["r"] = self.r
        out["classes"] = list(self.assignment)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ColoringCertificate":
        if not isinstance(obj, dict):
            raise PreconditionError("a certificate is a JSON object")
        classes = obj.get("classes")
        if not isinstance(classes, list):
            raise PreconditionError("classes must be a list of integers")
        classes = tuple(_json_int(c, "classes") for c in classes)
        if min(classes, default=0) < 0:
            raise PreconditionError("classes must be integers >= 0")
        return cls(SetFamily.from_json(obj), _json_int(obj.get("r"), "r"),
                   classes)


def has_r_disjoint(members: Sequence[Sequence[int]], r: int,
                   gate: int = 2_000_000) -> Optional[tuple]:
    """r pairwise disjoint members, or None.

    Backtracking over members ordered by size, pruning on the remaining
    member count and on a counting bound: the members still needed each
    have at least ``len(ms[start])`` elements, all in the members' union
    and outside the chosen ones.  Exact, size-gated by node count.
    """
    if r < 2:
        raise PreconditionError("r must be at least 2")
    ms = sorted((tuple(sorted(m)) for m in members), key=lambda t: (len(t), t))
    masks = [bitmask(m) for m in ms]
    union = 0
    for mask in masks:
        union |= mask
    k = len(ms)
    nodes = 0

    def rec(start, used_mask, chosen):
        nonlocal nodes
        need = r - len(chosen)
        if need == 0:
            return tuple(ms[i] for i in chosen)
        if k - start < need or \
                need * len(ms[start]) > (union & ~used_mask).bit_count():
            return None
        for i in range(start, k):
            nodes += 1
            if nodes > gate:
                raise SizeGateExceeded("disjointness search gate exceeded")
            if masks[i] & used_mask:
                continue
            found = rec(i + 1, used_mask | masks[i], chosen + [i])
            if found is not None:
                return found
        return None

    return rec(0, 0, [])


def bitmask(indices) -> int:
    """The index set as an integer with bit i set for each index i."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def verify_certificate(cert: ColoringCertificate, gate: int = 2_000_000):
    """(True, None) when valid, else (False, (class, witness members))."""
    for k in range(cert.num_classes):
        witness = has_r_disjoint(cert.class_members(k), cert.r, gate)
        if witness is not None:
            return False, (k, witness)
    return True, None


def threshold_caps(class_sizes: Sequence[int], r: int) -> dict[int, int]:
    """Per-class caps equivalent to avoiding the 1/r threshold families.

    A part I avoids every set holding more than |X_k|/r points of class k
    iff |I intersect X_k| <= floor(|X_k|/r); the family itself is never
    enumerated.
    """
    if r < 2:
        raise PreconditionError("r must be at least 2")
    return {k: size // r for k, size in enumerate(class_sizes)}


def prime_base(n: int) -> Optional[int]:
    """The prime p with n = p^k for some k >= 1, or None if there is none."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n  # n itself prime


def m_eligible(m: int, r: int) -> tuple[bool, list[int]]:
    """Whether every base-r digit of m(r-1)/2 is even, plus the digits.

    r must be an odd prime (so m(r-1) is always even and the halving is
    exact); digits are listed least-significant first.
    """
    if r == 2 or prime_base(r) != r:
        raise PreconditionError("r must be an odd prime")
    if m < 1:
        raise PreconditionError("m must be at least 1")
    v = m * (r - 1) // 2
    digits = []
    while v:
        digits.append(v % r)
        v //= r
    return all(d % 2 == 0 for d in digits), digits
