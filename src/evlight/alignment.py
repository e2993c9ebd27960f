"""Temporal matching of low-light and normal-light capture sequences.

Each sequence records the interval between its motion trajectory's start
and its first frame timestamp. Pairing minimizes the worst-case absolute
difference between those intervals, which is the quality statistic the
capture protocol reports; ties fall back to mean error, then to the
lexicographically smallest pairing, so results are order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True)
class SequenceMeta:
    id: str
    condition: str  # "low" or "normal"
    trajectory_start: int  # microseconds
    first_frame: int  # microseconds

    def __post_init__(self):
        if self.condition not in ("low", "normal"):
            raise ValueError(f"condition must be low|normal, got {self.condition!r}")
        if self.first_frame < self.trajectory_start:
            raise ValueError(f"{self.id}: first_frame precedes trajectory_start")


def interval(meta: SequenceMeta) -> int:
    """Start-to-first-frame interval in microseconds."""
    return meta.first_frame - meta.trajectory_start


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[str, str, int], ...]  # (low id, normal id, abs error us)
    max_error: int
    mean_error: float


def match(lows: list[SequenceMeta], normals: list[SequenceMeta]) -> MatchResult:
    """Exhaustive one-to-one assignment minimizing the maximum error.

    Limited to 8 sequences per side (factorial search); an id may appear
    once per side, and min(#low, #normal) pairs are produced.
    """
    if not lows or not normals:
        raise ValueError("both sequence lists must be non-empty")
    if len(lows) > 8 or len(normals) > 8:
        raise ValueError("exhaustive matching handles at most 8 per side")
    lows = sorted(lows, key=lambda m: m.id)
    normals = sorted(normals, key=lambda m: m.id)
    for a, b in [*zip(lows, lows[1:]), *zip(normals, normals[1:])]:
        if a.id == b.id:
            raise ValueError(f"id {a.id!r} appears twice on the {a.condition} side")
    li = {m.id: interval(m) for m in lows}
    ni = {m.id: interval(m) for m in normals}

    swap = len(lows) > len(normals)
    small, large = (normals, lows) if swap else (lows, normals)
    best = None
    for perm in permutations([m.id for m in large], len(small)):
        pairs = []
        for s, lid in zip(small, perm):
            low_id, normal_id = (lid, s.id) if swap else (s.id, lid)
            pairs.append((low_id, normal_id,
                          abs(li[low_id] - ni[normal_id])))
        pairs.sort()
        errs = [e for _, _, e in pairs]
        key = (max(errs), sum(errs) / len(errs),
               tuple((a, b) for a, b, _ in pairs))
        if best is None or key < best[0]:
            best = (key, pairs)
    (max_err, mean_err, _), pairs = best
    return MatchResult(tuple(pairs), int(max_err), float(mean_err))


def align_report(result: MatchResult, threshold: int = 10_000) -> float:
    """The fraction of pairs whose error is below ``threshold`` microseconds."""
    below = sum(1 for _, _, e in result.pairs if e < threshold)
    return below / len(result.pairs)
