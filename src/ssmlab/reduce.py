"""Token reduction: grouping, cross-group distances, disjoint pair selection,
and merge/prune application with original-order restoration.

Selection policy: each group-1 token's candidate partner is its pair_rank-th
closest group-2 token; the r candidates with smallest distance win, and when
two group-1 tokens want the same partner the loser falls back to its next
closest untaken partner. Ties on distance break toward the lower group-1
index, then the lower group-2 index, so plans are deterministic.
"""

from __future__ import annotations

import enum
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
        sites = tuple(self.sites)
        if len(set(sites)) != len(sites):
            raise ReduceError("duplicate reduction sites")
        self.sites = sites


@dataclass
class TokenBatch:
    """Batched token sequences plus per-token original time indices."""

    values: Tensor                      # [B, T, D]
    positions: list                     # B arrays of length T, strictly increasing

    def __post_init__(self):
        b, t, _ = self.values.shape
        if len(self.positions) != b:
            raise ReduceError("positions/batch mismatch")
        if any(len(pos) != t for pos in self.positions):
            raise ReduceError("positions length mismatch")
        if b and t > 1 and not np.all(np.diff(np.stack(self.positions), axis=1) > 0):
            raise ReduceError("positions must be strictly increasing")

    @classmethod
    def fresh(cls, values: Tensor):
        b, t, _ = values.shape
        return cls(values, [np.arange(t) for _ in range(b)])


@dataclass
class MergePlan:
    pairs: list                         # [(i, j)] sequence indices, disjoint
    survivors: list                     # indices untouched by any pair

    def __post_init__(self):
        used = [k for i, j in self.pairs for k in (i, j)]
        if len(set(used)) != len(used):
            raise ReduceError("overlapping pairs in plan")
        if set(used) & set(self.survivors):
            raise ReduceError("survivor listed in a pair")
        if len(set(self.survivors)) != len(self.survivors):
            raise ReduceError("duplicate survivor in plan")

    def serialize(self):
        lines = [f"pair {i} {j}" for i, j in self.pairs]
        lines += [f"survivor {k}" for k in sorted(self.survivors)]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        pairs, survivors = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "pair" and len(parts) == 3:
                pairs.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "survivor" and len(parts) == 2:
                survivors.append(int(parts[1]))
            else:
                raise ReduceError(f"bad plan line: {line!r}")
        return cls(pairs, survivors)


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
    if strategy is Grouping.RANDOM:
        if rng is None:
            raise ReduceError("random grouping needs an rng")
        perm = rng.permutation(t_len)
        half = (t_len + 1) // 2
        return np.sort(perm[:half]), np.sort(perm[half:])
    raise ReduceError(f"unknown grouping {strategy}")


def pairwise_distance(g1, g2, metric: Distance):
    """All cross-group distances; g1: [..., m, D], g2: [..., n, D] -> [..., m, n]."""
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    if metric is Distance.COSINE:
        n1 = np.linalg.norm(g1, axis=-1)
        n2 = np.linalg.norm(g2, axis=-1)
        if np.any(n1 == 0.0) or np.any(n2 == 0.0):
            raise ReduceError("zero vector under cosine distance")
        return 1.0 - (g1 / n1[..., None]) @ np.swapaxes(g2 / n2[..., None], -1, -2)
    diff = g1[..., :, None, :] - g2[..., None, :, :]
    if metric is Distance.L1:
        return np.abs(diff).sum(axis=-1)
    if metric is Distance.L2:
        return np.sqrt((diff * diff).sum(axis=-1))
    raise ReduceError(f"unknown distance {metric}")


def select_pairs(dists, r, pair_rank=1, selection=Selection.TOP_R,
                 pairing=Pairing.NEAREST, rng=None, g1=None, g2=None):
    """Pick r disjoint cross-group pairs from a distance matrix.

    dists is one [m, n] matrix, which gives one MergePlan, or a batch
    [B, m, n], which gives a list of B plans; an rng is drawn from row by
    row, as if each row were selected alone in turn. Plans are in sequence
    indices when g1/g2 slot arrays are given, otherwise in group-local
    indices (g1 = rows, g2 = columns).
    """
    dists = np.asarray(dists, dtype=np.float64)
    if not np.all(np.isfinite(dists)):
        raise ReduceError("non-finite distance")
    batch = dists[None] if dists.ndim == 2 else dists
    bsz, m, n = batch.shape
    if r > min(m, n):
        raise ReduceError(f"r={r} exceeds available pairs min({m},{n})")
    if not 1 <= pair_rank <= n:
        raise ReduceError(f"pair_rank={pair_rank} outside [1, group-2 size {n}]")
    if g1 is None:
        g1 = np.arange(m)
    if g2 is None:
        g2 = np.arange(m, m + n)
    if selection is Selection.TOP_R:
        chosen = _top_r(batch, r, pair_rank)
        select_row = lambda k: chosen[k]
    elif selection is Selection.RANDOM_R:
        if rng is None:
            raise ReduceError("random selection needs an rng")
        order = np.argsort(batch, axis=2, kind="stable")  # ties -> lower column
        select_row = lambda k: _random_r(order[k], r, pair_rank, rng)
    else:
        raise ReduceError(f"unknown selection {selection}")

    g1, g2 = np.asarray(g1).tolist(), np.asarray(g2).tolist()
    all_idx = set(g1) | set(g2)
    plans = []
    for k in range(bsz):
        local = select_row(k)
        if pairing is Pairing.RANDOM_PAIR and len(local) > 1:
            if rng is None:
                raise ReduceError("random pairing needs an rng")
            js = [j for _, j in local]
            shuffled = [js[p] for p in rng.permutation(len(js))]
            local = [(i, j) for (i, _), j in zip(local, shuffled)]
        elif pairing not in (Pairing.NEAREST, Pairing.RANDOM_PAIR):
            raise ReduceError(f"unknown pairing {pairing}")
        pairs = [(g1[i], g2[j]) for i, j in local]
        used = {v for p in pairs for v in p}
        plans.append(MergePlan(pairs, sorted(all_idx - used)))
    return plans[0] if dists.ndim == 2 else plans


def _top_r(dists, r, pair_rank):
    """Greedy disjoint pairs in every [m, n] matrix of a [B, m, n] batch at once.

    An entry is open while its row and column are unpaired and its column
    ranks >= pair_rank in its row (ties rank the lower column first). Each
    round, every matrix pairs its open entry that comes first in
    (distance, row, column) order, which is the first minimum argmin finds
    in row-major order, until r pairs are chosen or none is open. Shut
    entries hold +inf, so the distances must be finite.
    """
    bsz, m, n = dists.shape
    cand = dists.copy()
    if pair_rank > 1:
        order = np.argsort(dists, axis=2, kind="stable")
        np.put_along_axis(cand, order[:, :, :pair_rank - 1], np.inf, axis=2)
    flat_cand = cand.reshape(bsz, -1)
    rows = np.arange(bsz)
    picks = []
    for _ in range(r):
        flat = flat_cand.argmin(axis=1)
        live = flat_cand[rows, flat] < np.inf
        if not live.any():
            break
        i, j = np.divmod(flat, n)
        picks.append((i, j, live))
        cand[rows, i, :] = np.inf
        cand[rows, :, j] = np.inf
    if not picks:
        return [[] for _ in range(bsz)]
    i, j, live = (np.stack(a, axis=1) for a in zip(*picks))   # [B, rounds]
    return [list(zip(i[k][live[k]].tolist(), j[k][live[k]].tolist()))
            for k in range(bsz)]


def _random_r(order, r, pair_rank, rng):
    """Rows in random order, each paired with its first untaken column at rank >= pair_rank."""
    m, n = order.shape
    local = []
    taken = np.zeros(n, dtype=bool)
    for i in rng.permutation(m):
        if len(local) == r:
            break
        for ptr in range(pair_rank - 1, n):
            j = int(order[i, ptr])
            if not taken[j]:
                taken[j] = True
                local.append((int(i), j))
                break
    return local


def effective_r(t_current, r):
    """Pairs available under a bipartite split cap at floor(T/2)."""
    if t_current < 1:
        raise ReduceError("empty sequence")
    return min(r, t_current // 2)


def reduction_ratio(t0, sites, r, total_blocks):
    """1 - mean per-block token count / T0 under the capped schedule.

    Uses the nominal per-block count (a site block is charged its
    already-reduced count), so the ratio measures the average compute saved
    across the whole stack.
    """
    if t0 < 1:
        raise ReduceError("T0 must be >= 1")
    counts = token_counts(t0, sites, r, total_blocks)[1:]
    return 1.0 - float(np.mean(counts)) / t0


def token_counts(t0, sites, r, total_blocks):
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
            t -= effective_r(t, r)
        counts.append(t)
    return counts


def _plans_for_batch(plans, batch):
    if isinstance(plans, MergePlan):
        plans = [plans] * batch
    plans = list(plans)
    if len(plans) != batch:
        raise ReduceError("one plan per batch element required")
    if any(len(p.pairs) != len(plans[0].pairs) for p in plans):
        raise ReduceError("plans must remove the same number of tokens")
    return plans


def _gather(tokens: TokenBatch, src_i, src_j, merge_op: MergeOp):
    """Apply [B, T_out] source-index arrays to a token batch.

    Output token (k, t) is x[k, src_i[k, t]], fused by merge_op with
    x[k, src_j[k, t]] where src_j >= 0; its position is that of the earlier
    source. Returns (out Tensor, new positions, scatter), where scatter
    maps the output cotangent back to the input's.
    """
    x = tokens.values.data
    b, t, d = x.shape
    rows = np.broadcast_to(np.arange(b)[:, None], src_i.shape)
    first = np.where(src_j >= 0, np.minimum(src_i, src_j), src_i)
    positions = list(np.stack(tokens.positions)[rows, first])
    out = x[rows, src_i]                                # one gather
    pr, pc = np.nonzero(src_j >= 0)
    xi, xj = out[pr, pc], x[pr, src_j[pr, pc]]          # [P, D] pair members
    pick_i = None
    if merge_op is MergeOp.SUM:
        out[pr, pc] = xi + xj
    elif merge_op is MergeOp.MEAN:
        out[pr, pc] = 0.5 * (xi + xj)
    elif merge_op in (MergeOp.MAX, MergeOp.MIN):
        pick_i = xi >= xj if merge_op is MergeOp.MAX else xi <= xj
        out[pr, pc] = np.where(pick_i, xi, xj)
    else:
        raise ReduceError(f"unknown merge op {merge_op}")
    pi, pj = src_i[pr, pc], src_j[pr, pc]

    def scatter(dout):
        # a checked plan sends each input token to at most one output slot,
        # so the scatter is an assignment
        din = np.zeros_like(x)
        din[rows, src_i] = dout
        g_p = dout[pr, pc]
        if merge_op is MergeOp.SUM:
            din[pr, pj] = g_p
        elif merge_op is MergeOp.MEAN:
            din[pr, pi] = din[pr, pj] = 0.5 * g_p
        else:  # subgradient routed to the selected element
            din[pr, pi] = np.where(pick_i, g_p, 0.0)
            din[pr, pj] = np.where(pick_i, 0.0, g_p)
        return din

    return Tensor(out, _check=False), positions, scatter


def merge(tokens: TokenBatch, plans, merge_op: MergeOp) -> TokenBatch:
    """Fuse each planned pair into one token and restore position order."""
    b, t, _ = tokens.values.shape
    plans = _plans_for_batch(plans, b)
    n_pairs = len(plans[0].pairs)
    if any(2 * n_pairs + len(p.survivors) != t for p in plans):
        raise ReduceError("plan does not cover the sequence")
    pairs = np.array([p.pairs for p in plans], dtype=np.intp).reshape(b, n_pairs, 2)
    kept = np.array([p.survivors for p in plans], dtype=np.intp).reshape(b, -1)
    if np.any((pairs < 0) | (pairs >= t)) or np.any((kept < 0) | (kept >= t)):
        raise ReduceError("plan index out of range")
    # positions increase along the sequence, so index order is position order
    order = np.argsort(np.concatenate([pairs.min(axis=2), kept], axis=1),
                       axis=1, kind="stable")
    src_i = np.concatenate([pairs[..., 0], kept], axis=1)
    src_j = np.concatenate([pairs[..., 1], np.full_like(kept, -1)], axis=1)
    out, positions, scatter = _gather(tokens, np.take_along_axis(src_i, order, 1),
                                      np.take_along_axis(src_j, order, 1), merge_op)
    record(out, (tokens.values,), lambda dout: (scatter(dout),))
    return TokenBatch(out, positions)


def prune(tokens: TokenBatch, plans) -> TokenBatch:
    """Drop the group-2 member of each planned pair; no fusion."""
    b, t, _ = tokens.values.shape
    plans = _plans_for_batch(plans, b)
    dropped = np.array([[j for _, j in p.pairs] for p in plans],
                       dtype=np.intp).reshape(b, -1)
    if np.any((dropped < 0) | (dropped >= t)):
        raise ReduceError("plan index out of range")
    keep = np.ones((b, t), dtype=bool)
    keep[np.arange(b)[:, None], dropped] = False
    src_i = np.nonzero(keep)[1].reshape(b, -1)
    out, positions, scatter = _gather(tokens, src_i, np.full_like(src_i, -1),
                                      MergeOp.SUM)
    record(out, (tokens.values,), lambda dout: (scatter(dout),))
    return TokenBatch(out, positions)


def shuffle_permutation(t_len, shuffle_ratio, rng):
    """Slot permutation realizing a partial odd-even interleave.

    Selects floor(ratio*T) slots uniformly and reorders the selected
    subsequence evens-first ([0,1,2,3] -> [0,2,1,3]); identity elsewhere.
    """
    if not 0.0 <= shuffle_ratio <= 1.0:
        raise ReduceError("shuffle_ratio must be in [0, 1]")
    k = int(shuffle_ratio * t_len)
    perm = np.arange(t_len)
    if k < 2:
        return perm
    sel = np.sort(rng.choice(t_len, size=k, replace=False))
    src = np.concatenate([sel[0::2], sel[1::2]])
    perm[sel] = src
    return perm


def extract_feature(block_state, choice: Feature):
    """Per-token similarity feature from a reduction-site block's forward pass."""
    if block_state is None:
        raise ReduceError("no intermediates captured at this block")
    key = choice.value
    if key not in block_state:
        raise ReduceError(f"feature {choice} not available")
    return block_state[key]
