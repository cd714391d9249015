"""Token reduction: grouping, cross-group distances, disjoint pair selection,
and merge/prune application, run as one step by ``reduce_tokens``.

A step reads ``x`` and the features where they lie, with the shuffle and
the groups as index arrays. A reduction plan is one [B, p, 2] integer
array: each batch row's p pairs (i, j) of sequence indices; tokens in no
pair pass through unchanged. ``merge``, the one op that applies a plan,
merges or prunes each pair by one gather forward and one scatter back;
its output keeps sequence order, each token at its earlier source index.

Selection policy: each group-1 token's candidate partner is its pair_rank-th
closest group-2 token; the r candidates with smallest distance win, and when
two group-1 tokens want the same partner the loser falls back to its next
closest untaken partner. Ties on distance break toward the lower group-1
index, then the lower group-2 index, so plans are deterministic. Random
selection runs the same greedy with group-1 tokens visited in a random order
in place of distance. A group-1 token has n - pair_rank + 1 partners at rank
>= pair_rank among the n group-2 tokens, and each pair shuts at most one, so
every row finds r pairs when r <= min(m, n - pair_rank + 1); ``effective_r``
caps the schedule there.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, record


class ReduceError(ValueError):
    pass


class Feature(enum.Enum):
    X = "x"
    C = "c"
    B = "b"
    DELTA = "delta"


class Distance(enum.Enum):
    COSINE = "cosine"
    L1 = "l1"
    L2 = "l2"


class MergeOp(enum.Enum):
    SUM = "sum"
    MEAN = "mean"
    MAX = "max"
    MIN = "min"


class Grouping(enum.Enum):
    ODD_EVEN = "odd_even"
    FRONT_BEHIND = "front_behind"
    RANDOM = "random"


class Selection(enum.Enum):
    TOP_R = "top_r"
    RANDOM_R = "random_r"


class Pairing(enum.Enum):
    NEAREST = "nearest"
    RANDOM_PAIR = "random_pair"


class Mode(enum.Enum):
    MERGE = "merge"
    PRUNE = "prune"


@dataclass
class ReductionConfig:
    r: int = 0
    sites: tuple = ()
    feature: Feature = Feature.X
    distance: Distance = Distance.COSINE
    merge_op: MergeOp = MergeOp.SUM
    grouping: Grouping = Grouping.ODD_EVEN
    pair_rank: int = 1
    selection: Selection = Selection.TOP_R
    pairing: Pairing = Pairing.NEAREST
    shuffle_ratio: float = 0.0
    mode: Mode = Mode.MERGE

    def __post_init__(self):
        if self.r < 0:
            raise ReduceError("r must be non-negative")
        if self.pair_rank < 1:
            raise ReduceError("pair_rank must be >= 1")
        if not 0.0 <= self.shuffle_ratio <= 1.0:
            raise ReduceError("shuffle_ratio must be in [0, 1]")
        if self.feature is Feature.DELTA and self.distance is Distance.COSINE:
            # a one-wide positive step points one way: every pair would score 0
            raise ReduceError("feature delta needs distance l1 or l2, not cosine")
        sites = tuple(self.sites)
        if len(set(sites)) != len(sites):
            raise ReduceError("duplicate reduction sites")
        self.sites = sites


def grouping(t_len, strategy: Grouping, rng=None):
    """Partition slot indices [0, T) into two disjoint groups."""
    if t_len < 2:
        raise ReduceError("grouping needs at least 2 tokens")
    idx = np.arange(t_len)
    if strategy is Grouping.ODD_EVEN:
        return idx[0::2], idx[1::2]
    if strategy is Grouping.FRONT_BEHIND:
        half = (t_len + 1) // 2
        return idx[:half], idx[half:]
    if rng is None:  # Grouping.RANDOM
        raise ReduceError("random grouping needs an rng")
    perm = rng.permutation(t_len)
    half = (t_len + 1) // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


def pairwise_distance(feat, g1, g2, metric: Distance):
    """Distances from the tokens of ``feat`` [..., T, D] at indices g1 to those
    at g2 -> [..., m, n]; under cosine every token of feat must be non-zero."""
    feat = np.asarray(feat, dtype=np.float64)
    if metric is Distance.COSINE:
        norm = np.linalg.norm(feat, axis=-1, keepdims=True)
        if np.any(norm == 0.0):
            raise ReduceError("zero vector under cosine distance")
        unit = feat / norm
        return 1.0 - unit[..., g1, :] @ np.swapaxes(unit[..., g2, :], -1, -2)
    diff = feat[..., g1, None, :] - feat[..., None, g2, :]
    if metric is Distance.L1:
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))  # Distance.L2


def select_pairs(dists, r, pair_rank=1, selection=Selection.TOP_R,
                 pairing=Pairing.NEAREST, rng=None, *, g1, g2):
    """Pick r disjoint cross-group pairs in every row of a distance batch.

    dists is [B, m, n]: each row's distances from the m group-1 tokens, at
    sequence indices g1, to the n group-2 tokens, at g2. Returns the
    [B, p, 2] plan: each row's pairs (i, j) of sequence indices in the order
    they were chosen, i from group 1 and j from group 2. A row picks up to r
    pairs, exactly r when r <= n - pair_rank + 1; every row must choose the
    same number p of pairs. RANDOM_R draws every row's visiting order from
    the rng in one ``permuted`` call; RANDOM_PAIR then draws every row's
    partner shuffle in one more.
    """
    dists = np.asarray(dists, dtype=np.float64)
    if not np.all(np.isfinite(dists)):
        raise ReduceError("non-finite distance")
    bsz, m, n = dists.shape
    if r > min(m, n):
        raise ReduceError(f"r={r} exceeds available pairs min({m},{n})")
    if pair_rank < 1 or (r and pair_rank > n):  # no pairs need no partner
        raise ReduceError(f"pair_rank={pair_rank} outside [1, group-2 size {n}]")
    cost = dists
    if selection is Selection.RANDOM_R:
        if rng is None:
            raise ReduceError("random selection needs an rng")
        # greedy on (row's place in a random order, column's rank in its row)
        order = rng.permuted(np.broadcast_to(np.arange(m), (bsz, m)), axis=1)
        rank = np.argsort(np.argsort(dists, axis=2, kind="stable"), axis=2)
        cost = np.argsort(order, axis=1)[..., None] * float(n) + rank
    i, j = _top_r(cost, r, pair_rank)
    if pairing is Pairing.RANDOM_PAIR and j.shape[1] > 1:  # a single pair stays as it is
        if rng is None:
            raise ReduceError("random pairing needs an rng")
        j = rng.permuted(j, axis=1)
    return np.stack([np.asarray(g1)[i], np.asarray(g2)[j]], axis=-1)


def _top_r(dists, r, pair_rank):
    """Greedy disjoint pairs in every [m, n] matrix of a [B, m, n] batch at once.

    An entry is open while its row and column are unpaired and its column
    ranks >= pair_rank in its row (ties rank the lower column first). Each
    round, every matrix pairs its open entry that comes first in
    (distance, row, column) order, which is the first minimum argmin finds
    in row-major order, until r pairs are chosen or none is open. Shut
    entries hold +inf, so the distances must be finite. Returns the [B, p]
    rows and columns paired, in the order they were chosen.
    """
    bsz, m, n = dists.shape
    cand = dists.copy()
    if pair_rank > 1:
        order = np.argsort(dists, axis=2, kind="stable")
        np.put_along_axis(cand, order[:, :, :pair_rank - 1], np.inf, axis=2)
    flat_cand = cand.reshape(bsz, m * n)
    rows = np.arange(bsz)
    picks = []
    for _ in range(r):
        flat = flat_cand.argmin(axis=1)
        live = flat_cand[rows, flat] < np.inf
        if not live.all():
            # a matrix with no open entry never gets one back
            if live.any():
                raise ReduceError("rows choose different numbers of pairs")
            break
        picks.append(flat)
        i, j = np.divmod(flat, n)
        cand[rows, i, :] = np.inf
        cand[rows, :, j] = np.inf
    return np.divmod(np.array(picks, dtype=np.intp).reshape(len(picks), bsz).T, n)


def effective_r(t_current, r, pair_rank=1):
    """The pairs a site takes from T tokens: r, capped at n - pair_rank + 1,
    where every grouping splits T into m = ceil(T/2) >= n = floor(T/2), so
    that every batch row can pick that many (see the module docstring)."""
    if t_current < 1:
        raise ReduceError("empty sequence")
    return max(0, min(r, t_current // 2 + 1 - pair_rank))


def reduction_ratio(t0, sites, r, total_blocks, pair_rank=1):
    """1 - mean per-block token count / T0 under the capped schedule.

    Uses the nominal per-block count (a site block is charged its
    already-reduced count), so the ratio measures the average compute saved
    across the whole stack.
    """
    if t0 < 1:
        raise ReduceError("T0 must be >= 1")
    counts = token_counts(t0, sites, r, total_blocks, pair_rank)[1:]
    return 1.0 - float(np.mean(counts)) / t0


def token_counts(t0, sites, r, total_blocks, pair_rank=1):
    """The token count entering each block, then the count the stack ends with.

    Reduction runs after each site block, so ``counts[:-1]`` is the count
    each block executes on. ``counts[1:]`` is the paper's nominal schedule,
    which charges a site block the count it reduces to.
    """
    sites = set(sites)
    t = t0
    counts = [t]
    for blk in range(total_blocks):
        if blk in sites and r > 0:
            t -= effective_r(t, r, pair_rank)
        counts.append(t)
    return counts


def _check_plan(pairs, b, t):
    """A [B, p, 2] plan for b rows of t tokens as a checked index array.

    Every index must lie in [0, t) and no token may be used twice in a row,
    so each input token reaches at most one output slot.
    """
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.ndim != 3 or pairs.shape[0] != b or pairs.shape[2] != 2:
        raise ReduceError(f"plan of shape {pairs.shape} does not fit {b} rows")
    if np.any((pairs < 0) | (pairs >= t)):
        raise ReduceError("plan index out of range")
    if np.any(np.bincount((pairs + t * np.arange(b)[:, None, None]).ravel()) > 1):
        raise ReduceError("token used twice in plan")
    return pairs


def merge(values: Tensor, pairs, merge_op: MergeOp | None = None, perm=None):
    """Apply a reduction plan by one gather: fuse each planned pair (i, j)
    into one token at the earlier of i and j, or, with no ``merge_op``,
    drop its group-2 member j.

    ``values`` is [B, T, D]; ``pairs`` is a [B, p, 2] plan indexing
    ``values[:, perm]`` when a slot permutation ``perm`` is given: perm goes
    into the gather and scatter indices, so the shuffled array is never
    built. Returns the [B, T - p, D] tokens and idx [B, T - p], the earlier
    (shuffled) source index of each output token, increasing along each row.
    """
    x = values.data
    b, t, _ = x.shape
    pairs = _check_plan(pairs, b, t)
    if perm is not None and not np.array_equal(np.sort(perm), np.arange(t)):
        raise ReduceError(f"perm is not a permutation of {t} slots")
    rows = np.arange(b)[:, None]
    pi, pj = pairs[..., 0], pairs[..., 1]
    keep = np.ones((b, t), dtype=bool)
    keep[rows, pj if merge_op is None else pairs.max(axis=2)] = False
    idx = np.broadcast_to(np.arange(t), (b, t))[keep].reshape(b, t - pairs.shape[1])
    # the input token each plan index reads
    src, si, sj = (idx, pi, pj) if perm is None else (perm[idx], perm[pi], perm[pj])
    out = x[rows, src]                                  # one gather
    if merge_op is not None:
        slot = (np.cumsum(keep, axis=1) - 1)[rows, pairs.min(axis=2)]
        xi, xj = x[rows, si], x[rows, sj]               # [B, p, D] pair members
        if merge_op is MergeOp.SUM:
            out[rows, slot] = xi + xj
        elif merge_op is MergeOp.MEAN:
            out[rows, slot] = 0.5 * (xi + xj)
        else:
            pick_i = xi >= xj if merge_op is MergeOp.MAX else xi <= xj
            out[rows, slot] = np.where(pick_i, xi, xj)

    def scatter(dout):
        # a checked plan sends each input token to at most one output slot,
        # so the scatter is an assignment; pair members are then overwritten
        din = np.zeros(shape, dtype)
        din[rows, src] = dout
        if merge_op is None:
            return (din,)
        g_p = dout[rows, slot]
        if merge_op is MergeOp.SUM:
            din[rows, si] = din[rows, sj] = g_p
        elif merge_op is MergeOp.MEAN:
            din[rows, si] = din[rows, sj] = 0.5 * g_p
        else:  # subgradient routed to the selected element
            din[rows, si] = np.where(pick_i, g_p, 0.0)
            din[rows, sj] = np.where(pick_i, 0.0, g_p)
        return (din,)

    shape, dtype = x.shape, x.dtype  # the scatter reads these, not x
    out = record(Tensor(out, _check=False), (values,), scatter)
    return out, idx


def shuffle_permutation(t_len, shuffle_ratio, rng):
    """Slot permutation realizing a partial odd-even interleave.

    Selects floor(ratio*T) slots uniformly, ratio in [0, 1] as checked by
    ReductionConfig, and reorders the selected subsequence evens-first
    ([0,1,2,3] -> [0,2,1,3]); identity elsewhere.
    Fewer than 3 slots interleave to themselves, so then it returns None
    and draws nothing from ``rng``.
    """
    k = int(shuffle_ratio * t_len)
    if k < 3:
        return None
    sel = np.sort(rng.choice(t_len, size=k, replace=False))
    perm = np.arange(t_len)
    perm[sel] = np.concatenate([sel[0::2], sel[1::2]])
    return perm


# What one reduction step ran, in the slot order it saw after its shuffle:
# perm (None without a shuffle), groups g1 and g2, dists [B, m, n], the plan
# pairs [B, p, 2], and idx [B, T - p], the source slot of each output token.
Step = namedtuple("Step", "perm g1 g2 dists pairs idx")


def reduce_tokens(x: Tensor, feat, r, cfg: ReductionConfig, rng):
    """Shuffle, group, score on ``feat`` [B, T, F], pick r pairs per row and
    merge or prune them in ``x`` [B, T, D], drawing from ``rng`` in that
    order. Returns the reduced Tensor and its ``Step``."""
    t_len = x.shape[1]
    perm = shuffle_permutation(t_len, cfg.shuffle_ratio, rng)
    g1, g2 = grouping(t_len, cfg.grouping, rng)
    src = (g1, g2) if perm is None else (perm[g1], perm[g2])  # feat's slots
    dists = pairwise_distance(feat, *src, cfg.distance)
    pairs = select_pairs(dists, r, cfg.pair_rank, cfg.selection, cfg.pairing,
                         rng=rng, g1=g1, g2=g2)
    x, idx = merge(x, pairs, cfg.merge_op if cfg.mode is Mode.MERGE else None, perm)
    return x, Step(perm, g1, g2, dists, pairs, idx)
