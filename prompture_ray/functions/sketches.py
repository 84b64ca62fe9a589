"""Mergeable, deterministic sketches: HLL, KLL, Count-Min, TopK, Bloom,
MinHash, SimHash.

The reference has no approximate aggregates (its dedup is an exact Python
``set``, reference prompture/dataset/dedup.py:84); these implement the
north-star requirement of mergeable per-column statistics combined via
partial+final tree reduction (SURVEY §2.5). All hashing is seed-pinned
(``pandas.util.hash_array`` with fixed 16-byte hash keys) so partial merges
are deterministic regardless of partitioning.

Every sketch supports:
  - ``update_array(np_or_arrow_values)`` — vectorized batch accumulation
  - ``merge(other)`` — commutative/associative combine
  - estimate accessors + ``summary()`` → JSON-safe dict
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

_HK_DEFAULT = "prompture_ray_0"  # 15 chars + null padding = 16 bytes


def hash64(values, hash_key: str = _HK_DEFAULT) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of an array of values."""
    arr = np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in "USO":
        arr = arr.astype(object)
    key = (hash_key + "\x00" * 16)[:16]
    return pd.util.hash_array(arr, hash_key=key, categorize=False)


def hash_arrow_column(arr) -> np.ndarray:
    """hash64 of an Arrow column's non-null values — numeric columns go
    through ``to_numpy`` (zero-copy, numeric hashing) instead of a Python
    object round-trip. int64 and object hashes DIFFER, so every site that
    cross-compares hashes of the same logical column (uniqueness sidecars,
    referential broadcast sides) must use THIS helper, not ad-hoc hash64
    calls. It drops nulls, so its output is not row-aligned with a
    column that holds any: keyed lookups (a per-key table mapped back
    onto rows) hash through ``stages.shuffle.key_hash`` instead."""
    import pyarrow as pa
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.drop_null()
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    if pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type):
        return hash64(arr.to_numpy(zero_copy_only=False))
    return hash64(np.asarray(arr.to_pylist(), dtype=object))


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------
class HLL:
    """HyperLogLog with 2^p registers, standard bias correction."""

    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def update_hashes(self, h: np.ndarray) -> None:
        if len(h) == 0:
            return
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rho = (leading zeros of rest) + 1 = 64 - bit_length(rest) + 1;
        # the OR above bounds rho ≤ 64-p+1 so uint8 is safe
        bl = np.frompyfunc(int.bit_length, 1, 1)(rest.astype(object)).astype(np.int64)
        rho = (64 - bl + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rho)

    def update_array(self, values) -> None:
        self.update_hashes(hash64(values))

    def merge(self, other: "HLL") -> "HLL":
        assert self.p == other.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.exp2(-self.registers.astype(np.float64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * math.log(m / zeros)
        return e

    def summary(self) -> dict:
        return {"kind": "hll", "p": self.p, "estimate": round(self.estimate(), 1)}


# ---------------------------------------------------------------------------
# KLL quantile sketch (simplified, deterministic compaction)
# ---------------------------------------------------------------------------
class KLL:
    """KLL-style quantile sketch over float64 values (after Karnin-Lang-
    Liberty; cf. "KLL±: Approximate Quantile Sketches over Dynamic
    Datasets", VLDB 2021 — see PAPERS.md).

    Levels of buffers; level i items have weight 2^i. Compaction keeps
    every other element of the sorted buffer, alternating the starting
    offset deterministically (a compaction counter replaces the random
    coin) so results are reproducible under any merge order up to the
    sketch's epsilon.
    """

    def __init__(self, k: int = 200):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._coin = 0

    def _capacity(self, level: int, num_levels: int) -> int:
        # geometrically decreasing capacities for lower levels
        depth = num_levels - level - 1
        return max(2, int(math.ceil(self.k * (2.0 / 3.0) ** depth)))

    def update_array(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        self.n += v.size
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            cap = self._capacity(i, len(self.levels))
            buf = self.levels[i]
            if buf.size <= max(cap, 2):
                i += 1
                continue
            buf = np.sort(buf)
            off = self._coin & 1
            self._coin += 1
            promoted = buf[off::2]
            self.levels[i] = np.empty(0, dtype=np.float64)
            if len(self.levels) == i + 1:
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[i + 1] = np.concatenate([self.levels[i + 1], promoted])
            i += 1

    def merge(self, other: "KLL") -> "KLL":
        self.n += other.n
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for i, buf in enumerate(other.levels):
            if buf.size:
                self.levels[i] = np.concatenate([self.levels[i], buf])
        self._coin += other._coin
        self._compress()
        return self

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        items, weights = [], []
        for i, buf in enumerate(self.levels):
            if buf.size:
                items.append(buf)
                weights.append(np.full(buf.size, 1 << i, dtype=np.int64))
        if not items:
            return np.empty(0), np.empty(0, dtype=np.int64)
        it = np.concatenate(items)
        w = np.concatenate(weights)
        order = np.argsort(it, kind="stable")
        return it[order], w[order]

    def quantile(self, q) -> float | np.ndarray:
        it, w = self._weighted()
        if it.size == 0:
            return float("nan")
        cum = np.cumsum(w)
        total = cum[-1]
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        ranks = np.clip(qs * total, 1, total)
        idx = np.searchsorted(cum, ranks, side="left")
        out = it[np.clip(idx, 0, it.size - 1)]
        return float(out[0]) if np.isscalar(q) else out

    def summary(self) -> dict:
        qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        vals = self.quantile(qs) if self.n else [float("nan")] * len(qs)
        return {"kind": "kll", "n": int(self.n),
                "quantiles": {str(q): float(v) for q, v in zip(qs, vals)}}


# ---------------------------------------------------------------------------
# Count-Min + exact TopK (space-saving style pruning)
# ---------------------------------------------------------------------------
class CountMin:
    def __init__(self, depth: int = 5, width: int = 2048):
        self.depth = depth
        self.width = width
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def update_array(self, values, counts=None) -> None:
        arr = np.asarray(values)
        if arr.size == 0:
            return
        c = np.ones(arr.size, dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64)
        h1 = hash64(arr, "prompture_cm_h1")
        h2 = hash64(arr, "prompture_cm_h2") | np.uint64(1)
        for d in range(self.depth):
            idx = ((h1 + np.uint64(d) * h2) % np.uint64(self.width)).astype(np.int64)
            np.add.at(self.table[d], idx, c)
        self.total += int(c.sum())

    def merge(self, other: "CountMin") -> "CountMin":
        assert (self.depth, self.width) == (other.depth, other.width)
        self.table += other.table
        self.total += other.total
        return self

    def estimate(self, value) -> int:
        h1 = hash64(np.array([value], dtype=object), "prompture_cm_h1")[0]
        h2 = hash64(np.array([value], dtype=object), "prompture_cm_h2")[0] | np.uint64(1)
        with np.errstate(over="ignore"):  # uint64 wraparound matches update path
            est = min(int(self.table[d][int((h1 + np.uint64(d) * h2) % np.uint64(self.width))])
                      for d in range(self.depth))
        return est

    def summary(self) -> dict:
        return {"kind": "countmin", "total": self.total,
                "depth": self.depth, "width": self.width}


class TopK:
    """Heavy hitters with bounded dictionary (space-saving style prune)."""

    def __init__(self, k: int = 20, capacity: int | None = None):
        self.k = k
        self.capacity = capacity or k * 8
        self.counts: dict = {}

    def update_array(self, values, counts=None) -> None:
        vals, cnts = np.unique(np.asarray(values, dtype=object), return_counts=True)
        if counts is not None:
            # pre-aggregated input
            vals, cnts = np.asarray(values, dtype=object), np.asarray(counts)
        for v, c in zip(vals, cnts):
            self.counts[v] = self.counts.get(v, 0) + int(c)
        self._prune()

    def _prune(self) -> None:
        if len(self.counts) > self.capacity:
            keep = sorted(self.counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
            self.counts = dict(keep[: self.capacity])

    def merge(self, other: "TopK") -> "TopK":
        for v, c in other.counts.items():
            self.counts[v] = self.counts.get(v, 0) + c
        self._prune()
        return self

    def top(self, k: int | None = None) -> list[tuple]:
        k = k or self.k
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[:k]

    def summary(self) -> dict:
        return {"kind": "topk",
                "top": [[str(v), int(c)] for v, c in self.top()]}


# ---------------------------------------------------------------------------
# Bloom filter
# ---------------------------------------------------------------------------
class Bloom:
    """Bit-array Bloom filter with double hashing (Kirsch–Mitzenmacher)."""

    def __init__(self, n_bits: int = 1 << 23, n_hashes: int = 5):
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = np.zeros(n_bits // 8 + 1, dtype=np.uint8)

    def _positions(self, values) -> np.ndarray:
        h1 = hash64(values, "prompture_bl_h1")
        h2 = hash64(values, "prompture_bl_h2") | np.uint64(1)
        return self._positions_from(h1, h2)

    def _positions_from(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        d = np.arange(self.n_hashes, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return ((h1[None, :] + d * h2[None, :])
                    % np.uint64(self.n_bits)).astype(np.int64)

    @staticmethod
    def _mix(h: np.ndarray) -> np.ndarray:
        # splitmix64 finalizer: a second independent hash from a 64-bit hash
        with np.errstate(over="ignore"):
            z = (np.asarray(h, dtype=np.uint64) +
                 np.uint64(0x9E3779B97F4A7C15))
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    def add_hashes(self, h: np.ndarray) -> None:
        """Add precomputed 64-bit hashes (second hash derived by mixing)."""
        if len(h) == 0:
            return
        pos = self._positions_from(np.asarray(h, dtype=np.uint64),
                                   self._mix(h) | np.uint64(1)).ravel()
        np.bitwise_or.at(self.bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        if len(h) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions_from(np.asarray(h, dtype=np.uint64),
                                   self._mix(h) | np.uint64(1))
        hit = (self.bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
        return hit.all(axis=0)

    def add_array(self, values) -> None:
        arr = np.asarray(values)
        if arr.size == 0:
            return
        pos = self._positions(arr).ravel()
        np.bitwise_or.at(self.bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))

    def contains_array(self, values) -> np.ndarray:
        arr = np.asarray(values)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(arr)
        hit = (self.bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
        return hit.all(axis=0)

    def merge(self, other: "Bloom") -> "Bloom":
        assert self.n_bits == other.n_bits and self.n_hashes == other.n_hashes
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self


# ---------------------------------------------------------------------------
# MinHash signatures (for LSH near-dup)
# ---------------------------------------------------------------------------
_MERSENNE = (1 << 61) - 1


class MinHasher:
    """Vectorized MinHash over token/shingle hash sets.

    ``signatures(list_of_hash_arrays)`` → (n_docs, n_perm) uint64 matrix.
    Permutations are the multiply-shift family ``(a|1)·x + b mod 2^64``
    with seed-pinned a, b — wrapped 64-bit arithmetic only, no modular
    reduction in the hot loop (the earlier ``mod 2^61-1`` form paid two
    integer mods per (shingle × perm); min-over-wrapped-values is an
    equally valid MinHash and kept-sets over exact duplicates are
    invariant to the family)."""

    def __init__(self, n_perm: int = 128, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.n_perm = n_perm
        self.a = (rng.randint(1, _MERSENNE, size=n_perm, dtype=np.int64)
                  .astype(np.uint64) | np.uint64(1))
        self.b = rng.randint(0, _MERSENNE, size=n_perm,
                             dtype=np.int64).astype(np.uint64)
        self._buf = None                     # persistent permute buffer

    def sig(self, hashes: np.ndarray) -> np.ndarray:
        if hashes.size == 0:
            return np.full(self.n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = hashes.astype(np.uint64, copy=False)
        with np.errstate(over="ignore"):
            vals = self.a[:, None] * x[None, :] + self.b[:, None]
        return vals.min(axis=1)

    _CHUNK = 1 << 16                         # ≤ 64 MB of permuted values

    def signatures(self, hash_arrays: list) -> np.ndarray:
        """Batched ``sig``: list of per-doc hash arrays → (n_docs,
        n_perm) uint64 matrix, BIT-IDENTICAL to calling ``sig`` per doc.
        One permute pass into a PERSISTENT buffer (no 64 MB fresh
        allocation per chunk) + segmented min (np.minimum.reduceat);
        empty docs get the all-max sentinel."""
        n_docs = len(hash_arrays)
        out = np.full((n_docs, self.n_perm), np.iinfo(np.uint64).max,
                      dtype=np.uint64)
        CHUNK = self._CHUNK
        if self._buf is None:
            self._buf = np.empty((self.n_perm, CHUNK), dtype=np.uint64)
        di = 0
        while di < n_docs:
            dj = di
            total = 0
            while dj < n_docs and (total == 0
                                   or total + hash_arrays[dj].size <= CHUNK):
                total += hash_arrays[dj].size
                dj += 1
            nonempty = [d for d in range(di, dj) if hash_arrays[d].size]
            if nonempty:
                cat = np.concatenate([hash_arrays[d] for d in nonempty])
                x = cat.astype(np.uint64, copy=False)
                n = x.size
                if n <= CHUNK:
                    vals = self._buf[:, :n]
                else:                        # single doc above CHUNK
                    vals = np.empty((self.n_perm, n), dtype=np.uint64)
                with np.errstate(over="ignore"):
                    np.multiply(self.a[:, None], x[None, :], out=vals)
                    vals += self.b[:, None]
                offs = np.cumsum([0] + [hash_arrays[d].size
                                        for d in nonempty[:-1]])
                mins = np.minimum.reduceat(vals, offs, axis=1)
                for col, d in enumerate(nonempty):
                    out[d] = mins[:, col]
            di = dj
        return out

    def band_keys(self, sig: np.ndarray, n_bands: int) -> np.ndarray:
        """Split a signature into n_bands and hash each band → uint64 keys."""
        rows = self.n_perm // n_bands
        bands = sig[: n_bands * rows].reshape(n_bands, rows)
        out = np.zeros(n_bands, dtype=np.uint64)
        for i in range(n_bands):
            out[i] = pd.util.hash_array(bands[i], categorize=False).sum(dtype=np.uint64)
        return out

    def band_keys_batch(self, sigs: np.ndarray, n_bands: int) -> np.ndarray:
        """(n_docs, n_perm) signatures → (n_docs, n_bands) uint64 band
        keys, BIT-IDENTICAL to per-doc ``band_keys`` (hash_array is
        elementwise, so one flattened call + per-band sums match)."""
        rows = self.n_perm // n_bands
        used = sigs[:, : n_bands * rows]
        hashed = pd.util.hash_array(np.ascontiguousarray(used).ravel(),
                                    categorize=False)
        return hashed.reshape(-1, n_bands, rows).sum(axis=2,
                                                     dtype=np.uint64)


def simhash64(token_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash of a set of token hashes."""
    if token_hashes.size == 0:
        return 0
    bits = ((token_hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    w = np.ones(token_hashes.size, dtype=np.int64) if weights is None else np.asarray(weights, dtype=np.int64)
    score = ((bits * 2 - 1) * w[:, None]).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if score[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


def popcount64(x: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(np.asarray(x, dtype=np.uint64))
    b = v.view(np.uint8).reshape(v.shape + (8,))
    return np.unpackbits(b, axis=-1).sum(axis=-1).astype(np.int64)


def hamming_distance64(a, b) -> np.ndarray:
    return popcount64(np.bitwise_xor(np.asarray(a, dtype=np.uint64),
                                     np.asarray(b, dtype=np.uint64)))


# ---------------------------------------------------------------------------
# Fixed-bin histogram (mergeable; basis for PSI/KS drift scoring)
# ---------------------------------------------------------------------------
class Hist:
    """Histogram over fixed bin edges — trivially mergeable; the drift
    baseline pins the edges so live and reference counts are comparable."""

    def __init__(self, edges):
        self.edges = np.asarray(edges, dtype=np.float64)
        self.counts = np.zeros(len(self.edges) + 1, dtype=np.int64)  # +under/overflow

    @classmethod
    def log_bins(cls, lo: float = 1.0, hi: float = 1e6, n: int = 32) -> "Hist":
        return cls(np.logspace(np.log10(lo), np.log10(hi), n + 1))

    def update_array(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        idx = np.searchsorted(self.edges, v, side="right")
        np.add.at(self.counts, idx, 1)

    def merge(self, other: "Hist") -> "Hist":
        assert np.array_equal(self.edges, other.edges)
        self.counts += other.counts
        return self

    def probs(self) -> np.ndarray:
        total = self.counts.sum()
        return self.counts / total if total else self.counts.astype(np.float64)

    def summary(self) -> dict:
        return {"kind": "hist", "edges": self.edges.tolist(),
                "counts": self.counts.tolist()}

    @classmethod
    def from_summary(cls, d: dict) -> "Hist":
        h = cls(d["edges"])
        h.counts = np.asarray(d["counts"], dtype=np.int64)
        return h


def psi(expected: np.ndarray, actual: np.ndarray, eps: float = 1e-6) -> float:
    """Population Stability Index between two probability vectors."""
    e = np.clip(np.asarray(expected, dtype=np.float64), eps, None)
    a = np.clip(np.asarray(actual, dtype=np.float64), eps, None)
    e, a = e / e.sum(), a / a.sum()
    return float(((a - e) * np.log(a / e)).sum())


def ks_from_hist(expected_counts: np.ndarray, actual_counts: np.ndarray) -> float:
    """Kolmogorov–Smirnov statistic approximated from shared-bin histograms."""
    e = np.asarray(expected_counts, dtype=np.float64)
    a = np.asarray(actual_counts, dtype=np.float64)
    if e.sum() == 0 or a.sum() == 0:
        return 0.0
    return float(np.abs(np.cumsum(e) / e.sum() - np.cumsum(a) / a.sum()).max())
