import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mul
from ssmlab import reduce as rd
from ssmlab import tensor as tt
from ssmlab.reduce import (
    Distance,
    Grouping,
    MergeOp,
    Mode,
    Pairing,
    ReduceError,
    ReductionConfig,
    Selection,
)
from ssmlab.tensor import GradTape, Tensor


def select_row(dists, r, *args, g1=None, g2=None, **kwargs):
    """``rd.select_pairs`` on one [m, n] distance matrix, as a batch of one.

    Group 1 sits at sequence indices 0 .. m-1 and group 2 at m .. m+n-1
    unless g1 and g2 say otherwise. Returns the row's [p, 2] plan.
    """
    m, n = np.shape(dists)
    return rd.select_pairs(np.asarray(dists)[None], r, *args,
                           g1=np.arange(m) if g1 is None else g1,
                           g2=np.arange(m, m + n) if g2 is None else g2, **kwargs)[0]


def cross_distance(a, b, metric):
    """``rd.pairwise_distance`` from the tokens of a [..., m, D] to those of
    b [..., n, D], scored as the two groups of one site: [..., m, n]."""
    m, n = a.shape[-2], b.shape[-2]
    return rd.pairwise_distance(np.concatenate([a, b], axis=-2), np.arange(m),
                                np.arange(m, m + n), metric)


def slow_select(dists, r, pair_rank):
    """Round-based reference for the greedy disjoint pair policy.

    Each round, every unpaired row's candidate is its first untaken column
    at sorted rank >= pair_rank; the row with the globally smallest
    (distance, row index) wins, where within a row equal distances sort
    toward the lower column.
    """
    dists = np.asarray(dists, dtype=np.float64)
    m, n = dists.shape
    order = np.argsort(dists, axis=1, kind="stable")
    taken = np.zeros(n, dtype=bool)
    paired = np.zeros(m, dtype=bool)
    out = []
    while len(out) < r:
        best = None
        for i in range(m):
            if paired[i]:
                continue
            for j in order[i, pair_rank - 1:]:
                if not taken[j]:
                    cand = (dists[i, j], i, int(j))
                    if best is None or cand[:2] < best[:2]:
                        best = cand
                    break
        if best is None:
            break
        _, i, j = best
        paired[i] = True
        taken[j] = True
        out.append((i, j))
    return out


def slow_random_select(dists, r, pair_rank, rng, shuffle):
    """Per-row reference for random selection: rows in rng.permutation order,
    each paired with its first untaken column at sorted rank >= pair_rank
    (equal distances toward the lower column), stopping at r pairs; with
    ``shuffle`` the chosen columns are then permuted."""
    m, n = dists.shape
    order = np.argsort(dists, axis=1, kind="stable")
    taken = np.zeros(n, dtype=bool)
    out = []
    for i in rng.permutation(m):
        if len(out) == r:
            break
        for j in order[i, pair_rank - 1:]:
            if not taken[j]:
                taken[j] = True
                out.append((int(i), int(j)))
                break
    if shuffle and len(out) > 1:
        cols = [j for _, j in out]
        out = [(i, cols[k]) for (i, _), k in zip(out, rng.permutation(len(out)))]
    return out


def slow_merge(values, positions, pairs, merge_op):
    """Per-row, per-token reference for rd.merge, with its own backward.

    Returns the merged Tensor and each output token's position: the earlier
    of its sources' positions.
    """
    b, t, d = values.shape
    t_out = t - pairs.shape[1]
    out = np.empty((b, t_out, d))
    new_positions = []
    routing = []  # per batch element: (out_row -> sources) for the backward
    for k, plan in enumerate(pairs.tolist()):
        pos = positions[k]
        used = {v for pair in plan for v in pair}
        entries = [(min(pos[i], pos[j]), i, j) for i, j in plan]
        entries += [(pos[s], s, -1) for s in range(t) if s not in used]
        entries.sort()
        new_positions.append(np.array([e[0] for e in entries]))
        rows = []
        vk = values.data[k]
        for row, (_, i, j) in enumerate(entries):
            pick_i = None
            if j < 0:
                out[k, row] = vk[i]
            elif merge_op is MergeOp.SUM:
                out[k, row] = vk[i] + vk[j]
            elif merge_op is MergeOp.MEAN:
                out[k, row] = 0.5 * (vk[i] + vk[j])
            else:
                pick_i = vk[i] >= vk[j] if merge_op is MergeOp.MAX else vk[i] <= vk[j]
                out[k, row] = np.where(pick_i, vk[i], vk[j])
            rows.append((i, j, pick_i))
        routing.append(rows)

    def backward(dout):
        din = np.zeros((b, t, d))
        for k, rows in enumerate(routing):
            for row, (i, j, pick_i) in enumerate(rows):
                g = dout[k, row]
                if j < 0:
                    din[k, i] += g
                elif merge_op is MergeOp.SUM:
                    din[k, i] += g
                    din[k, j] += g
                elif merge_op is MergeOp.MEAN:
                    din[k, i] += 0.5 * g
                    din[k, j] += 0.5 * g
                else:
                    din[k, i] += np.where(pick_i, g, 0.0)
                    din[k, j] += np.where(pick_i, 0.0, g)
        return (din,)

    out_t = tt.record(Tensor(out, _check=False), (values,), backward)
    return out_t, new_positions


def slow_prune(values, positions, pairs):
    """Per-row, per-token reference for rd.merge with no merge_op (prune),
    with its own backward."""
    b, t, d = values.shape
    keep_idx = []
    for plan in pairs.tolist():
        dropped = {j for _, j in plan}
        keep_idx.append(np.array([i for i in range(t) if i not in dropped]))
    out = np.stack([values.data[k][kept] for k, kept in enumerate(keep_idx)])

    def backward(dout):
        din = np.zeros((b, t, d))
        for k, kept in enumerate(keep_idx):
            din[k, kept] = dout[k]
        return (din,)

    out_t = tt.record(Tensor(out, _check=False), (values,), backward)
    return out_t, [positions[k][kept] for k, kept in enumerate(keep_idx)]


def permute_slots(values, perm):
    """``values[:, perm]`` as its own taped op that scatters the gradient
    back: the reference for a shuffle folded into rd.merge's indices."""
    def backward(d):
        din = np.zeros_like(values.data)
        din[:, perm] = d
        return (din,)

    return tt.record(Tensor(values.data[:, perm], _check=False), (values,), backward)


class TestGrouping:
    def test_odd_even(self):
        g1, g2 = rd.grouping(7, Grouping.ODD_EVEN)
        assert list(g1) == [0, 2, 4, 6] and list(g2) == [1, 3, 5]

    def test_front_behind(self):
        g1, g2 = rd.grouping(6, Grouping.FRONT_BEHIND)
        assert list(g1) == [0, 1, 2] and list(g2) == [3, 4, 5]

    def test_front_behind_odd_length(self):
        g1, g2 = rd.grouping(5, Grouping.FRONT_BEHIND)
        assert list(g1) == [0, 1, 2] and list(g2) == [3, 4]

    def test_random_partitions(self):
        rng = np.random.default_rng(0)
        for t in (2, 5, 16):
            g1, g2 = rd.grouping(t, Grouping.RANDOM, rng)
            assert sorted(list(g1) + list(g2)) == list(range(t))
            assert np.all(np.diff(g1) > 0)
            assert len(g1) == (t + 1) // 2

    def test_random_needs_rng(self):
        with pytest.raises(ReduceError, match="random grouping needs an rng"):
            rd.grouping(4, Grouping.RANDOM)

    def test_too_short(self):
        with pytest.raises(ReduceError):
            rd.grouping(1, Grouping.ODD_EVEN)


class TestDistance:
    def test_cosine_extremes(self):
        v = np.array([[1.0, 0.0]])
        same = np.array([[2.0, 0.0]])
        orth = np.array([[0.0, 3.0]])
        opp = np.array([[-1.0, 0.0]])
        assert cross_distance(v, same, Distance.COSINE)[0, 0] == pytest.approx(0.0)
        assert cross_distance(v, orth, Distance.COSINE)[0, 0] == pytest.approx(1.0)
        assert cross_distance(v, opp, Distance.COSINE)[0, 0] == pytest.approx(2.0)

    def test_cosine_scale_invariant(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (3, 5))
        b = rng.uniform(-1, 1, (4, 5))
        d0 = cross_distance(a, b, Distance.COSINE)
        d1 = cross_distance(7.0 * a, 0.1 * b, Distance.COSINE)
        assert np.allclose(d0, d1, atol=1e-12)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ReduceError):
            cross_distance(np.zeros((1, 2)), np.ones((1, 2)), Distance.COSINE)

    def test_l1_l2_hand_values(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert cross_distance(a, b, Distance.L1)[0, 0] == pytest.approx(7.0)
        assert cross_distance(a, b, Distance.L2)[0, 0] == pytest.approx(5.0)

    def test_matches_elementwise_loops(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-2, 2, (4, 3))
        b = rng.uniform(-2, 2, (5, 3))
        for metric in Distance:
            got = cross_distance(a, b, metric)
            for i in range(4):
                for j in range(5):
                    if metric is Distance.L1:
                        want = np.abs(a[i] - b[j]).sum()
                    elif metric is Distance.L2:
                        want = np.sqrt(((a[i] - b[j]) ** 2).sum())
                    else:
                        want = 1 - a[i] @ b[j] / (
                            np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                    assert got[i, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("metric", list(Distance))
    def test_batch_equals_rows(self, metric):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 6, 4))
        rows = [cross_distance(x, y, metric) for x, y in zip(a, b)]
        assert np.array_equal(cross_distance(a, b, metric), np.stack(rows))


class TestSelectPairs:
    def test_simple_nearest(self):
        dists = np.array([[0.1, 0.9],
                          [0.8, 0.2]])
        pairs = select_row(dists, 2)
        assert pairs.tolist() == [[0, 2], [1, 3]]

    def test_conflict_falls_back_to_next_best(self):
        # both rows prefer column 0; the closer row wins, the other takes col 1
        dists = np.array([[0.1, 0.7],
                          [0.2, 0.3]])
        pairs = select_row(dists, 2)
        assert pairs.tolist() == [[0, 2], [1, 3]]

    def test_tie_breaks_deterministic(self):
        dists = np.array([[0.5, 0.5],
                          [0.5, 0.5]])
        pairs = select_row(dists, 2)
        # equal everywhere: row 0 takes col 0, row 1 the remaining col
        assert pairs.tolist() == [[0, 2], [1, 3]]

    def test_pair_rank_skips_closest(self):
        dists = np.array([[0.1, 0.5, 0.9]])
        pairs = select_row(dists, 1, pair_rank=2)
        assert pairs.tolist() == [[0, 2]]  # second-closest column

    def test_sequence_index_mapping(self):
        dists = np.array([[0.3]])
        pairs = select_row(dists, 1, g1=np.array([4]), g2=np.array([9]))
        assert pairs.tolist() == [[4, 9]]

    def test_mismatched_plan_sizes_rejected(self):
        # at pair_rank 2 the first matrix has one pair to offer, the second two
        dists = np.array([[[0.0, 1.0], [0.0, 1.0]],
                          [[0.0, 1.0], [1.0, 0.0]]])
        assert select_row(dists[1], 2, pair_rank=2).shape == (2, 2)
        assert select_row(dists[0], 2, pair_rank=2).shape == (1, 2)
        with pytest.raises(ReduceError):
            rd.select_pairs(dists, 2, pair_rank=2, g1=np.arange(2), g2=np.arange(2, 4))

    def test_r_too_large(self):
        with pytest.raises(ReduceError):
            select_row(np.ones((3, 2)), 3)

    def test_pair_rank_too_large(self):
        with pytest.raises(ReduceError):
            select_row(np.ones((3, 2)), 1, pair_rank=3)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_distance_rejected(self, value):
        dists = np.ones((2, 2))
        dists[1, 0] = value
        with pytest.raises(ReduceError):
            select_row(dists, 1)

    def test_no_pairs_need_no_partner_rank(self):
        # a site whose pair rank passes the group-2 size takes no pairs
        assert select_row(np.ones((3, 2)), 0, pair_rank=3).shape == (0, 2)

    def test_pair_rank_zero_rejected(self):
        with pytest.raises(ReduceError):
            select_row(np.ones((3, 2)), 1, pair_rank=0)

    @pytest.mark.parametrize("selection", list(Selection))
    @pytest.mark.parametrize("pairing", list(Pairing))
    @pytest.mark.parametrize("pair_rank", [1, 3])
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 8),
           st.integers(1, 8), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_rows_in_turn(self, selection, pairing, pair_rank,
                                       seed, bsz, m, n, r):
        # r runs past n - pair_rank + 1, where rows may run out of partners;
        # the integer grid makes ties common
        pair_rank, r = min(pair_rank, n), min(r, m, n)
        dists = np.random.default_rng(seed).integers(0, 3, (bsz, m, n)).astype(float)
        g1, g2 = 2 * np.arange(m), 2 * np.arange(n) + 1
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # random-r draws every row's order first, then every row's partner shuffle
        both_random = (selection, pairing) == (Selection.RANDOM_R, Pairing.RANDOM_PAIR)
        row_pairing = Pairing.NEAREST if both_random else pairing
        want = [select_row(d, r, pair_rank, selection, row_pairing, rng=ref_rng,
                           g1=g1, g2=g2) for d in dists]
        if len({len(w) for w in want}) > 1:
            with pytest.raises(ReduceError, match="different numbers of pairs"):
                rd.select_pairs(dists, r, pair_rank, selection, pairing, rng=rng,
                                g1=g1, g2=g2)
            return
        want = np.stack(want)
        if both_random and want.shape[1] > 1:
            want[..., 1] = ref_rng.permuted(want[..., 1], axis=1)
        got = rd.select_pairs(dists, r, pair_rank, selection, pairing, rng=rng,
                              g1=g1, g2=g2)
        assert np.array_equal(got, want)
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)

    @pytest.mark.parametrize("selection, pairing, message", [
        (Selection.RANDOM_R, Pairing.NEAREST, "random selection needs an rng"),
        (Selection.TOP_R, Pairing.RANDOM_PAIR, "random pairing needs an rng"),
    ])
    def test_random_options_need_an_rng(self, selection, pairing, message):
        with pytest.raises(ReduceError, match=message):
            rd.select_pairs(np.ones((2, 3, 3)), 2, selection=selection,
                            pairing=pairing, g1=np.arange(3), g2=np.arange(3, 6))

    @pytest.mark.parametrize("selection", list(Selection))
    def test_single_random_pair_draws_nothing(self, selection):
        # one pair has one order, so RANDOM_PAIR draws what NEAREST does
        dists = np.random.default_rng(2).uniform(0, 1, (3, 4, 4))
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        g1, g2 = np.arange(4), np.arange(4, 8)
        pairs = rd.select_pairs(dists, 1, selection=selection,
                                pairing=Pairing.RANDOM_PAIR, rng=rng, g1=g1, g2=g2)
        want = rd.select_pairs(dists, 1, selection=selection, rng=ref_rng, g1=g1, g2=g2)
        assert np.array_equal(pairs, want)
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)

    def test_random_selection_disjoint(self):
        rng = np.random.default_rng(4)
        dists = rng.uniform(0, 1, (6, 6))
        pairs = select_row(dists, 4, selection=Selection.RANDOM_R,
                            rng=np.random.default_rng(0))
        assert pairs.shape == (4, 2) and len(set(pairs[:, 1])) == 4

    def test_random_pairing_keeps_partners_disjoint(self):
        rng = np.random.default_rng(5)
        dists = rng.uniform(0, 1, (6, 6))
        pairs = select_row(dists, 4, pairing=Pairing.RANDOM_PAIR,
                            rng=np.random.default_rng(0))
        is_, js = pairs.T
        assert len(set(is_)) == 4 and len(set(js)) == 4
        assert all(j >= 6 for j in js)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(2, 8),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_slow_reference(self, seed, m, n, pair_rank):
        if pair_rank > n:
            pair_rank = n
        rng = np.random.default_rng(seed)
        dists = np.round(rng.uniform(0, 1, (m, n)), 2)  # coarse grid forces ties
        r = min(m, n)
        pairs = select_row(dists, r, pair_rank=pair_rank)
        want = [[i, j + m] for i, j in slow_select(dists, r, pair_rank)]
        assert pairs.tolist() == want


    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.integers(1, 7),
           st.integers(1, 7), st.integers(0, 7), st.sampled_from(list(Pairing)))
    @settings(max_examples=200, deadline=None)
    def test_random_r_matches_slow_reference(self, seed, m, n, pair_rank, r,
                                             pairing):
        pair_rank, r = min(pair_rank, n), min(r, m, n)
        dists = np.random.default_rng(seed).integers(0, 3, (m, n)).astype(float)
        rng = np.random.default_rng(seed)
        pairs = select_row(dists, r, pair_rank, Selection.RANDOM_R, pairing, rng=rng)
        ref_rng = np.random.default_rng(seed)
        want = slow_random_select(dists, r, pair_rank, ref_rng,
                                  pairing is Pairing.RANDOM_PAIR)
        assert pairs.tolist() == [[i, j + m] for i, j in want]
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)


class TestSchedules:
    def test_effective_r_cap(self):
        assert rd.effective_r(16, 3) == 3
        assert rd.effective_r(16, 100) == 8
        assert rd.effective_r(1, 5) == 0
        # n - pair_rank + 1 pairs for groups of m = ceil(T/2), n = floor(T/2)
        assert rd.effective_r(16, 100, pair_rank=3) == 6
        assert rd.effective_r(17, 100, pair_rank=3) == 6
        assert rd.effective_r(16, 5, pair_rank=3) == 5
        assert rd.effective_r(16, 5, pair_rank=8) == 1
        assert rd.effective_r(16, 5, pair_rank=9) == 0
        assert rd.effective_r(3, 5, pair_rank=14) == 0
        with pytest.raises(ReduceError):
            rd.effective_r(0, 1)

    def test_trace_counts_reduce_after_site_block(self):
        assert rd.token_counts(16, (2,), 3, 4)[:-1] == [16, 16, 16, 13]

    def test_site_counts_reduce_at_site_block(self):
        assert rd.token_counts(16, (2,), 3, 4)[1:] == [16, 16, 13, 13]

    def test_capped_trajectory(self):
        sites = tuple(range(2, 24, 2))
        counts = rd.token_counts(197, sites, 20, 24)[1:]
        assert counts[0] == 197 and counts[-1] == 5
        assert counts[18:] == [19, 19, 10, 10, 5, 5]

    def test_final_counts_eleven_sites(self):
        sites = tuple(range(2, 24, 2))
        assert rd.token_counts(197, sites, 11, 24)[-1] == 76
        assert rd.token_counts(197, sites, 5, 24)[-1] == 142

    def test_desk_schedule(self):
        counts = rd.token_counts(49, (2, 4, 6), 5, 8)[1:]
        assert counts[-1] == 34
        assert rd.reduction_ratio(49, (2, 4, 6), 5, 8) == pytest.approx(
            1 - np.mean(counts) / 49)

    def test_ratio_monotone_in_r(self):
        sites = tuple(range(2, 24, 2))
        ratios = [rd.reduction_ratio(197, sites, r, 24) for r in range(0, 30)]
        assert ratios[0] == 0.0
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert all(0.0 <= x < 1.0 for x in ratios)


def four_tokens():
    return Tensor(np.array([[[1.0, 2.0], [10.0, 20.0], [3.0, -4.0], [5.0, 6.0]]]))


class TestMergePlanFormat:
    def test_overlap_rejected(self):
        with pytest.raises(ReduceError):
            rd.merge(four_tokens(), np.array([[[0, 1], [1, 2]]]), MergeOp.SUM)

    def test_duplicate_dropped_index_rejected(self):
        with pytest.raises(ReduceError):
            rd.merge(four_tokens(), np.array([[[0, 1], [2, 1]]]), None)

    @pytest.mark.parametrize("plan", [[[0, 1], [0, 2]], [[0, 1], [2, 1]], [[0, 1], [1, 2]]],
                             ids=["first-column", "second-column", "across-columns"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_repeated_token_rejected(self, plan, rows):
        # every row repeats the plan
        vals = Tensor(np.random.default_rng(0).uniform(-1, 1, (rows, 4, 2)))
        with pytest.raises(ReduceError, match="token used twice in plan"):
            rd.merge(vals, np.array([plan] * rows), MergeOp.SUM)

    def test_rows_may_share_tokens(self):
        # tokens are counted per row: every row may use the same indices,
        # and one row's repeat is still caught
        vals = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 4, 2)))
        plan = np.array([[[0, 1], [2, 3]]] * 3)
        out, _ = rd.merge(vals, plan, MergeOp.SUM)
        assert out.shape == (3, 2, 2)
        plan[2, 1] = [3, 1]
        with pytest.raises(ReduceError, match="token used twice in plan"):
            rd.merge(vals, plan, MergeOp.SUM)

    def test_unbatched_plan_rejected(self):
        # a [p, 2] plan is not broadcast over the batch
        with pytest.raises(ReduceError, match="does not fit"):
            rd.merge(four_tokens(), np.array([[0, 1]]), MergeOp.SUM)

    def test_plan_must_fit_batch(self):
        with pytest.raises(ReduceError):
            rd.merge(four_tokens(), np.zeros((2, 1, 2), dtype=int), MergeOp.SUM)

    @pytest.mark.parametrize("perm", [[0, 0, 1, 2], [0, 1, 2], [1, 2, 3, 4]])
    def test_perm_must_permute_the_slots(self, perm):
        # a repeated slot would reach two outputs, and the scatter keeps one
        with pytest.raises(ReduceError, match="not a permutation"):
            rd.merge(four_tokens(), np.array([[[0, 1]]]), MergeOp.SUM, np.array(perm))


class TestMerge:
    def test_sum_example(self):
        out, idx = rd.merge(four_tokens(), np.array([[[0, 1]]]), MergeOp.SUM)
        assert np.array_equal(out.data[0],
                              [[11.0, 22.0], [3.0, -4.0], [5.0, 6.0]])
        assert list(idx[0]) == [0, 2, 3]

    def test_mean_halves(self):
        out, _ = rd.merge(four_tokens(), np.array([[[0, 1]]]), MergeOp.MEAN)
        assert np.array_equal(out.data[0][0], [5.5, 11.0])

    def test_max_min_elementwise(self):
        mx, _ = rd.merge(four_tokens(), np.array([[[2, 3]]]), MergeOp.MAX)
        mn, _ = rd.merge(four_tokens(), np.array([[[2, 3]]]), MergeOp.MIN)
        assert np.array_equal(mx.data[0][2], [5.0, 6.0])
        assert np.array_equal(mn.data[0][2], [3.0, -4.0])

    def test_merged_position_is_min(self):
        out, idx = rd.merge(four_tokens(), np.array([[[3, 1]]]), MergeOp.SUM)
        assert list(idx[0]) == [0, 1, 2]
        assert np.array_equal(out.data[0][1], [15.0, 26.0])

    def test_sum_conserves_mass(self):
        rng = np.random.default_rng(6)
        vals = rng.uniform(-2, 2, (2, 8, 3))
        out, _ = rd.merge(Tensor(vals), np.array([[[0, 1], [4, 7]]] * 2), MergeOp.SUM)
        assert np.allclose(out.data.sum(1), vals.sum(1), atol=1e-12)

    def test_per_batch_plans(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1, 1, (2, 4, 2))
        out, _ = rd.merge(Tensor(vals), np.array([[[0, 1]], [[2, 3]]]), MergeOp.SUM)
        assert np.allclose(out.data[0][0], vals[0, 0] + vals[0, 1])
        assert np.allclose(out.data[1][2], vals[1, 2] + vals[1, 3])

    def test_plan_index_out_of_range(self):
        with pytest.raises(ReduceError):
            rd.merge(four_tokens(), np.array([[[0, 9]]]), MergeOp.SUM)

    def test_gradient_routing_sum_mean(self):
        for op, coeff in ((MergeOp.SUM, 1.0), (MergeOp.MEAN, 0.5)):
            x = Tensor(four_tokens().data, requires_grad=True)
            with GradTape() as tape:
                out, _ = rd.merge(x, np.array([[[0, 1]]]), op)
                tape.backward(tt.tsum(out))
            g = x.grad.data[0]
            assert np.allclose(g[0], coeff) and np.allclose(g[1], coeff)
            assert np.allclose(g[2], 1.0) and np.allclose(g[3], 1.0)

    def test_gradient_routing_max_goes_to_winner(self):
        x = Tensor(four_tokens().data, requires_grad=True)
        with GradTape() as tape:
            out, _ = rd.merge(x, np.array([[[2, 3]]]), MergeOp.MAX)
            tape.backward(tt.tsum(out))
        g = x.grad.data[0]
        # token 3 wins both coordinates (5>3, 6>-4)
        assert np.array_equal(g[2], [0.0, 0.0])
        assert np.array_equal(g[3], [1.0, 1.0])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.integers(1, 4),
           st.sampled_from(list(MergeOp)))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, seed, t, dim, op):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-2, 2, (1, t, dim))
        g1, g2 = rd.grouping(t, Grouping.ODD_EVEN)
        r = rd.effective_r(t, 2)
        dists = rd.pairwise_distance(vals[0], g1, g2, Distance.L2)
        pairs = select_row(dists, r, g1=g1, g2=g2)
        out, idx = rd.merge(Tensor(vals), pairs[None], op)
        assert out.shape == (1, t - r, dim)
        assert np.all(np.diff(idx[0]) > 0)
        assert set(idx[0]) <= set(range(t))
        if op is MergeOp.SUM:
            assert np.allclose(out.data.sum(1), vals.sum(1), atol=1e-12)
        # deterministic: same inputs, same result
        again, _ = rd.merge(Tensor(vals), pairs[None], op)
        assert np.array_equal(again.data, out.data)


class TestPrune:
    def test_drops_second_member(self):
        out, idx = rd.merge(four_tokens(), np.array([[[0, 1]]]), None)
        assert np.array_equal(out.data[0],
                              [[1.0, 2.0], [3.0, -4.0], [5.0, 6.0]])
        assert list(idx[0]) == [0, 2, 3]

    def test_kept_index_out_of_range(self):
        with pytest.raises(ReduceError):
            rd.merge(four_tokens(), np.array([[[9, 1]]]), None)

    def test_gradient_zero_for_dropped(self):
        x = Tensor(four_tokens().data, requires_grad=True)
        with GradTape() as tape:
            out, _ = rd.merge(x, np.array([[[0, 1]]]), None)
            tape.backward(tt.tsum(out))
        g = x.grad.data[0]
        assert np.array_equal(g[1], [0.0, 0.0])
        assert np.array_equal(g[0], [1.0, 1.0])


def random_plans(rng, b, t, n_pairs):
    """A different valid [b, n_pairs, 2] plan per row; a pair's first index
    may be the later one."""
    return np.stack([rng.permutation(t)[:2 * n_pairs].reshape(n_pairs, 2)
                     for _ in range(b)])


def reduce_with_grad(fn, vals, pairs, w):
    """(values, idx or positions, input gradient) of fn under a weighted-sum loss."""
    x = Tensor(vals, requires_grad=True)
    with GradTape() as tape:
        out, where = fn(x, pairs)
        tape.backward(tt.tsum(mul(out, Tensor(w))))
    return out.data, where, x.grad.data


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("op", list(MergeOp))
def test_gather_matches_slow_reference(mode, op):
    """rd.merge against: shuffle the slots by a separate taped gather (on
    every other draw), then the per-token reference; positions are per
    (shuffled) slot."""
    rng = np.random.default_rng(31)
    merge_op = op if mode is Mode.MERGE else None
    for k in range(40):
        b, t, d = int(rng.integers(1, 5)), int(rng.integers(2, 12)), int(rng.integers(1, 4))
        n_pairs = int(rng.integers(0, t // 2 + 1))
        vals = np.round(rng.uniform(-2, 2, (b, t, d)) * 2) / 2   # ties for max/min
        positions = np.stack([np.sort(rng.choice(3 * t, t, replace=False))
                              for _ in range(b)])
        pairs = random_plans(rng, b, t, n_pairs)
        perm = rng.permutation(t) if k % 2 else None
        fast = lambda x, pairs: rd.merge(x, pairs, merge_op, perm)

        def slow(x, pairs):
            x = x if perm is None else permute_slots(x, perm)
            return (slow_merge(x, positions, pairs, op) if merge_op
                    else slow_prune(x, positions, pairs))
        w = rng.uniform(-1, 1, (b, t - n_pairs, d))
        v, idx, g = reduce_with_grad(fast, vals, pairs, w)
        v_ref, pos_ref, g_ref = reduce_with_grad(slow, vals, pairs, w)
        assert np.array_equal(v, v_ref)
        assert np.array_equal(positions[np.arange(b)[:, None], idx], np.stack(pos_ref))
        assert np.array_equal(g, g_ref)


def shuffle_tokens(values, shuffle_ratio, rng):
    """Permute token values by the partial odd-even rule, as a site with
    shuffle_ratio > 0 reads them."""
    t_len = values.shape[1]
    perm = rd.shuffle_permutation(t_len, shuffle_ratio, rng)
    return values if perm is None else permute_slots(values, perm)


class TestReduceTokens:
    """``reduce_tokens`` is the stage functions run in turn on one rng."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("shuffle_ratio", [0.0, 0.5])
    def test_runs_the_stages_in_order_on_one_rng(self, mode, shuffle_ratio):
        # the reference scores a shuffled feature copy, one copy per group;
        # the step reads feat through the composed indices, with equal bits
        data = np.random.default_rng(3)
        vals, feat64 = data.normal(size=(3, 9, 2)), data.normal(size=(3, 9, 4))
        for distance in (Distance.L2, Distance.COSINE):
            for feat in (feat64, feat64.astype(np.float32)):
                cfg = ReductionConfig(distance=distance, grouping=Grouping.RANDOM,
                                      selection=Selection.RANDOM_R,
                                      pairing=Pairing.RANDOM_PAIR,
                                      shuffle_ratio=shuffle_ratio, mode=mode)
                out, step = rd.reduce_tokens(Tensor(vals), feat, 3, cfg,
                                             np.random.default_rng(11))
                rng = np.random.default_rng(11)
                x, perm = Tensor(vals), None
                if shuffle_ratio:
                    perm = rd.shuffle_permutation(9, shuffle_ratio, rng)
                    x, feat = permute_slots(x, perm), feat[:, perm]
                g1, g2 = rd.grouping(9, Grouping.RANDOM, rng)
                dists = cross_distance(feat[:, g1], feat[:, g2], distance)
                pairs = rd.select_pairs(dists, 3, 1, Selection.RANDOM_R,
                                        Pairing.RANDOM_PAIR, rng=rng, g1=g1, g2=g2)
                want, idx = rd.merge(x, pairs,
                                     MergeOp.SUM if mode is Mode.MERGE else None)
                assert (step.perm is None) == (shuffle_ratio == 0)
                if perm is not None:
                    assert np.array_equal(step.perm, perm)
                for got, ref in ((step.g1, g1), (step.g2, g2), (step.dists, dists),
                                 (step.pairs, pairs), (step.idx, idx),
                                 (out.data, want.data)):
                    assert np.array_equal(got, ref)
                assert out.shape == (3, 6, 2) and step.pairs.shape == (3, 3, 2)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("shuffle_ratio", [0.0, 0.5, 1.0])
    def test_one_tape_entry_per_site(self, mode, shuffle_ratio):
        # the shuffle is part of merge's gather, not a taped op of its own
        cfg = ReductionConfig(shuffle_ratio=shuffle_ratio, mode=mode)
        data = np.random.default_rng(4)
        x = Tensor(data.normal(size=(2, 9, 3)), requires_grad=True)
        with GradTape() as tape:
            out, step = rd.reduce_tokens(x, x.data, 3, cfg, np.random.default_rng(0))
            assert len(tape.entries) == 1 and tape.entries[0][1] == (x,)
            tape.backward(tt.tsum(out))
        assert (step.perm is None) == (shuffle_ratio == 0)
        # each token's gradient is 1 where it reaches the output, else 0
        want = np.zeros((2, 9))
        np.put_along_axis(want, (step.idx if step.perm is None
                                 else step.perm[step.idx]), 1.0, axis=1)
        if mode is Mode.MERGE:
            src = step.pairs if step.perm is None else step.perm[step.pairs]
            np.put_along_axis(want, src.reshape(2, -1), 1.0, axis=1)
        assert np.array_equal(x.grad.data, np.repeat(want[..., None], 3, axis=2))


class TestShuffle:
    def test_zero_ratio_identity(self):
        rng = np.random.default_rng(0)
        assert rd.shuffle_permutation(10, 0.0, rng) is None

    @pytest.mark.parametrize("mode", list(Mode))
    def test_two_slots_is_no_shuffle(self, mode):
        # a 4-token site at ratio 0.5 selects 2 slots, which interleave to
        # themselves: no permutation, no rng draw, the step of ratio 0
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert rd.shuffle_permutation(4, 0.5, rng) is None
        assert rng.bit_generator.state == state
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 3)))
        steps = [rd.reduce_tokens(x, x.data, 1, ReductionConfig(
                     grouping=Grouping.RANDOM, shuffle_ratio=ratio, mode=mode),
                     np.random.default_rng(7)) for ratio in (0.5, 0.0)]
        (out, step), (want, want_step) = steps
        assert step.perm is None
        assert np.array_equal(out.data, want.data)
        assert np.array_equal(step.g1, want_step.g1)

    def test_full_interleave(self):
        rng = np.random.default_rng(0)
        assert list(rd.shuffle_permutation(4, 1.0, rng)) == [0, 2, 1, 3]
        rng = np.random.default_rng(0)
        assert list(rd.shuffle_permutation(6, 1.0, rng)) == [0, 2, 4, 1, 3, 5]

    def test_partial_is_valid_permutation(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            perm = rd.shuffle_permutation(17, 0.5, rng)
            assert sorted(perm) == list(range(17))
            # unselected slots stay put: at most floor(0.5*17)=8 slots move
            assert (perm != np.arange(17)).sum() <= 8

    def test_tokens_values_move_positions_stay(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(-1, 1, (1, 8, 2))
        out = shuffle_tokens(Tensor(vals), 1.0, np.random.default_rng(2))
        assert sorted(map(tuple, out.data[0])) == sorted(map(tuple, vals[0]))
        assert not np.array_equal(out.data, vals)


class TestConfigValidation:
    def test_negative_r(self):
        with pytest.raises(ReduceError):
            ReductionConfig(r=-1)

    def test_bad_pair_rank(self):
        with pytest.raises(ReduceError):
            ReductionConfig(pair_rank=0)

    def test_duplicate_sites(self):
        with pytest.raises(ReduceError):
            ReductionConfig(sites=(2, 2))

    def test_bad_shuffle_ratio(self):
        with pytest.raises(ReduceError):
            ReductionConfig(shuffle_ratio=1.5)

    def test_defaults_ok(self):
        cfg = ReductionConfig(r=11, sites=(2, 4, 6), mode=Mode.PRUNE)
        assert cfg.sites == (2, 4, 6)

