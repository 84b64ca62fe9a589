"""Frequent item-pair mining (stages/itemsets.py): hand-checked
supports, brute-force equality, multiplicity handling, the basket-size
cap, and the pair-expansion index kernel."""
import numpy as np
import pyarrow as pa

from prompture_ray.stages.itemsets import (frequent_pairs,
                                           pairs_within_sorted_groups)


def _ds(tbl: dict, parallelism: int = 2):
    import ray.data as rd
    t = pa.table(tbl)
    return rd.from_arrow(t).repartition(parallelism)


def _brute(baskets: dict[int, set], min_support: int):
    from collections import Counter
    c = Counter()
    for items in baskets.values():
        s = sorted(items)
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                c[(s[i], s[j])] += 1
    return {k: v for k, v in c.items() if v >= min_support}


# ------------------------------------------------- index kernel


def test_pairs_within_sorted_groups_hand():
    li, ri = pairs_within_sorted_groups(np.array([3, 1, 2]))
    # group 0 = indices 0,1,2 -> (0,1),(0,2),(1,2); group 1 = {3} ->
    # none; group 2 = 4,5 -> (4,5)
    assert list(zip(li.tolist(), ri.tolist())) == [
        (0, 1), (0, 2), (1, 2), (4, 5)]
    li0, ri0 = pairs_within_sorted_groups(np.array([], dtype=np.int64))
    assert len(li0) == 0 and len(ri0) == 0
    li1, ri1 = pairs_within_sorted_groups(np.array([1, 1]))
    assert len(li1) == 0


# ------------------------------------------------- frequent_pairs


def test_frequent_pairs_hand_checked(ray_session):
    # baskets: 1={a,b,c} 2={a,b} 3={b,c} 4={a}  (b appears twice in
    # basket 1 — multiplicity must not inflate support)
    ds = _ds({"basket": pa.array([1, 1, 1, 1, 2, 2, 3, 3, 4],
                                 type=pa.int64()),
              "item": ["a", "b", "c", "b", "a", "b", "b", "c", "a"]})
    out = frequent_pairs(ds, "basket", "item", min_support=2) \
        .to_pandas().sort_values(["item_a", "item_b"],
                                 ignore_index=True)
    got = {(r.item_a, r.item_b): r.support for r in out.itertuples()}
    assert got == {("a", "b"): 2, ("b", "c"): 2}
    # min_support=1 adds the single-basket pair (a, c)
    out1 = frequent_pairs(ds, "basket", "item", min_support=1) \
        .to_pandas()
    got1 = {(r.item_a, r.item_b): r.support for r in out1.itertuples()}
    assert got1 == {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1}


def test_frequent_pairs_brute_force(ray_session):
    rng = np.random.default_rng(7)
    b = rng.integers(0, 40, size=600)
    it = rng.integers(0, 12, size=600)
    baskets = {}
    for bb, ii in zip(b.tolist(), it.tolist()):
        baskets.setdefault(bb, set()).add(f"i{ii:02d}")
    ds = _ds({"basket": pa.array(b, type=pa.int64()),
              "item": [f"i{v:02d}" for v in it.tolist()]},
             parallelism=5)
    out = frequent_pairs(ds, "basket", "item", min_support=3) \
        .to_pandas()
    got = {(r.item_a, r.item_b): r.support for r in out.itertuples()}
    assert got == _brute(baskets, 3)


def test_frequent_pairs_basket_cap(ray_session):
    # basket 1 has 5 items (over cap 4) -> dropped ENTIRELY; basket 2
    # and 3 supply the only surviving pair
    ds = _ds({"basket": pa.array([1, 1, 1, 1, 1, 2, 2, 3, 3],
                                 type=pa.int64()),
              "item": ["a", "b", "c", "d", "e", "a", "b", "a", "b"]})
    out = frequent_pairs(ds, "basket", "item", min_support=1,
                         max_basket_items=4).to_pandas()
    got = {(r.item_a, r.item_b): r.support for r in out.itertuples()}
    assert got == {("a", "b"): 2}


def test_frequent_pairs_int_items(ray_session):
    # numeric item columns order numerically (10 > 9)
    ds = _ds({"basket": pa.array([1, 1, 2, 2], type=pa.int64()),
              "item": pa.array([10, 9, 9, 10], type=pa.int64())})
    out = frequent_pairs(ds, "basket", "item", min_support=2) \
        .to_pandas()
    assert list(out["item_a"]) == [9] and list(out["item_b"]) == [10]
    assert list(out["support"]) == [2]


def test_frequent_pairs_null_basket_pairs_nothing(ray_session):
    # a null basket pairs with nothing (SQL self-join semantics): the
    # two null-basket rows would make (a, c) if they formed a basket
    import ray.data as rd
    first = pa.table({"basket": pa.array([1, 1, 2, 2], type=pa.int64()),
                      "item": ["a", "b", "a", "b"]})

    def run(second):
        out = frequent_pairs(rd.from_arrow([first, second]), "basket",
                             "item", min_support=1).to_pandas()
        return {(r.item_a, r.item_b): r.support
                for r in out.itertuples()}

    with_null = run(pa.table({
        "basket": pa.array([3, 3, None, None], type=pa.int64()),
        "item": ["a", "c", "a", "c"]}))
    without = run(pa.table({"basket": pa.array([3, 3], type=pa.int64()),
                            "item": ["a", "c"]}))
    assert with_null == without == {("a", "b"): 2, ("a", "c"): 1}
