"""Latency topologies.

The paper drives its simulator with the King dataset -- measured
pairwise RTTs between 1740 DNS servers, with an average RTT of roughly
180 ms.  That dataset is not redistributable here, so
:class:`KingLikeTopology` synthesises a stand-in with the same
*structural* properties the evaluation depends on:

* geographic clustering (so proximity-neighbour selection has real
  proximity to exploit),
* symmetric, roughly metric RTTs with bounded per-pair jitter,
* a calibrated mean RTT (default 180 ms for any network size),
* O(N) memory, so the 16k-node scalability sweep (Figure 5) fits in RAM
  where an explicit 16k x 16k matrix would not.

All topologies are deterministic functions of their seed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

#: Default mean RTT (ms) of the King dataset used in the paper.
KING_MEAN_RTT_MS = 180.0
#: Bound on the one-way latency memo, in links per endpoint.
LATENCY_MEMO_PER_NODE = 16


class Topology(ABC):
    """Pairwise latency oracle over ``size`` network addresses."""

    def __init__(self) -> None:
        #: link ``hi * hi + lo`` -> one-way latency, see :meth:`latency_ms`
        self._latency_memo: dict = {}
        #: :meth:`max_rtt_ms`, once asked
        self._max_rtt: float = -1.0

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of addressable endpoints."""

    @abstractmethod
    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time between endpoints ``a`` and ``b`` (ms)."""

    def latency_ms(self, a: int, b: int) -> float:
        """One-way latency; the packet-level convention is RTT / 2.

        Memoised per link, i.e. per unordered pair: a run keeps sending
        over the same few overlay links per node (about 6.6 k distinct
        pairs at 1740 nodes), a reply crosses the link its request did,
        and ``rtt_ms`` is a pure, symmetric function of the pair --
        ``rtt_ms(a, b)`` and ``rtt_ms(b, a)`` are the same float in every
        topology here -- so a hit is the bit-identical float whichever
        direction asked first.  Iterative lookups touch arbitrary pairs,
        hence the bound (flushed wholesale, like the route cache).  The
        link's key is one int, ``hi * hi + lo`` for ``lo < hi``: distinct
        per link (it lies in ``[hi**2, (hi + 1)**2)``), cheaper to build
        and hash than a tuple, and needs no stride.
        """
        if a == b:
            return 0.0
        memo = self._latency_memo
        key = b * b + a if a < b else a * a + b
        try:
            return memo[key]
        except KeyError:
            if len(memo) >= LATENCY_MEMO_PER_NODE * self.size:
                memo.clear()
            value = memo[key] = self.rtt_ms(a, b) / 2.0
            return value

    def rtt_many(self, a: int, others: Sequence[int]) -> np.ndarray:
        """Vector of RTTs from ``a`` to each endpoint in ``others``.

        Subclasses override this when a vectorised path exists; the
        default loops.  Used heavily by proximity-neighbour selection.
        """
        return np.array([self.rtt_ms(a, b) for b in others], dtype=np.float64)

    def max_rtt_ms(self) -> float:
        """The largest RTT between two endpoints (0 for one endpoint).

        Exact and cached (a topology is immutable): one :meth:`rtt_many`
        row per endpoint, against the endpoints above it -- RTTs are
        symmetric in every topology here."""
        if self._max_rtt < 0.0:
            n = self.size
            self._max_rtt = max(
                (
                    float(self.rtt_many(a, np.arange(a + 1, n)).max())
                    for a in range(n - 1)
                ),
                default=0.0,
            )
        return self._max_rtt

    def mean_rtt(self, sample_pairs: int = 50_000, seed: int = 12345) -> float:
        """Estimate the mean pairwise RTT by sampling distinct pairs."""
        n = self.size
        if n < 2:
            return 0.0
        rng = np.random.default_rng(seed)
        total_pairs = n * (n - 1) // 2
        if total_pairs <= sample_pairs:
            acc = 0.0
            cnt = 0
            for a in range(n):
                for b in range(a + 1, n):
                    acc += self.rtt_ms(a, b)
                    cnt += 1
            return acc / cnt
        a = rng.integers(0, n, size=sample_pairs)
        b = rng.integers(0, n, size=sample_pairs)
        mask = a != b
        a, b = a[mask], b[mask]
        return float(np.mean([self.rtt_ms(int(x), int(y)) for x, y in zip(a, b)]))


class ConstantTopology(Topology):
    """Every distinct pair has the same RTT.  Useful in unit tests."""

    def __init__(self, size: int, rtt: float = 100.0) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        super().__init__()
        self._size = size
        self._rtt = float(rtt)

    @property
    def size(self) -> int:
        return self._size

    def rtt_ms(self, a: int, b: int) -> float:
        self._check(a)
        self._check(b)
        return 0.0 if a == b else self._rtt

    def rtt_many(self, a: int, others: Sequence[int]) -> np.ndarray:
        out = np.full(len(others), self._rtt, dtype=np.float64)
        out[np.asarray(others) == a] = 0.0
        return out

    def _check(self, i: int) -> None:
        if not 0 <= i < self._size:
            raise IndexError(f"endpoint {i} out of range [0, {self._size})")


class ExplicitTopology(Topology):
    """Topology backed by a full RTT matrix (small networks / tests)."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.array_equal(matrix, matrix.T):
            # exactly: the link-latency memo serves one float per pair
            raise ValueError("RTT matrix must be symmetric")
        if np.any(matrix < 0):
            raise ValueError("RTTs must be non-negative")
        if np.any(np.diag(matrix) != 0):
            raise ValueError("self-RTT must be zero")
        super().__init__()
        self._m = matrix

    @property
    def size(self) -> int:
        return self._m.shape[0]

    def rtt_ms(self, a: int, b: int) -> float:
        return float(self._m[a, b])

    def rtt_many(self, a: int, others: Sequence[int]) -> np.ndarray:
        return self._m[a, np.asarray(others, dtype=np.intp)]


def _pair_jitter(a: int, b: int, amplitude: float) -> float:
    """Deterministic symmetric multiplicative jitter in [1-amp, 1+amp].

    A cheap integer mix keyed on the unordered pair; avoids storing any
    per-pair state while keeping RTTs symmetric and reproducible.
    """
    lo, hi = (a, b) if a < b else (b, a)
    h = (lo * 2654435761 + hi * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x45D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    unit = h / 0xFFFFFFFF  # in [0, 1]
    return 1.0 + amplitude * (2.0 * unit - 1.0)


def _pair_jitter_vec(a: int, idx: np.ndarray, amplitude: float) -> np.ndarray:
    """Vectorised :func:`_pair_jitter` for one source against many peers.

    Bit-for-bit identical to the scalar version (tests assert this);
    proximity-neighbour selection evaluates millions of candidate RTTs
    while building large overlays, so this path must be NumPy-native.
    """
    idx = idx.astype(np.uint64)
    av = np.uint64(a)
    lo = np.minimum(av, idx)
    hi = np.maximum(av, idx)
    mask32 = np.uint64(0xFFFFFFFF)
    h = (lo * np.uint64(2654435761) + hi * np.uint64(40503) + np.uint64(0x9E3779B9)) & mask32
    h ^= h >> np.uint64(16)
    h = (h * np.uint64(0x45D9F3B)) & mask32
    h ^= h >> np.uint64(16)
    unit = h.astype(np.float64) / float(0xFFFFFFFF)
    return 1.0 + amplitude * (2.0 * unit - 1.0)


class KingLikeTopology(Topology):
    """Synthetic clustered Internet-latency model (King-dataset stand-in).

    Nodes are placed in a 2-D plane as a mixture of Gaussian clusters
    (continents / ISPs); the RTT between two nodes is::

        rtt(a, b) = (base + scale * ||coord_a - coord_b||) * jitter(a, b)

    ``scale`` is calibrated at construction so the sampled mean RTT
    matches ``target_mean_rtt_ms``.
    """

    def __init__(
        self,
        size: int,
        seed: int = 1,
        target_mean_rtt_ms: float = KING_MEAN_RTT_MS,
        num_clusters: int = 24,
        cluster_sigma: float = 0.045,
        base_rtt_ms: float = 4.0,
        jitter: float = 0.15,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        if target_mean_rtt_ms <= base_rtt_ms and size > 1:
            raise ValueError("target mean RTT must exceed the base RTT")
        super().__init__()
        self._size = size
        self._jitter = float(jitter)
        self._base = float(base_rtt_ms)
        rng = np.random.default_rng(seed)

        k = max(1, min(num_clusters, size))
        centers = rng.uniform(0.0, 1.0, size=(k, 2))
        # Zipf-ish cluster popularity: big ISPs host many nodes.
        weights = 1.0 / np.arange(1, k + 1)
        weights /= weights.sum()
        assignment = rng.choice(k, size=size, p=weights)
        self.coords = centers[assignment] + rng.normal(
            0.0, cluster_sigma, size=(size, 2)
        )
        self.cluster_of = assignment

        self._scale = 1.0
        if size > 1:
            mean_now = self._sample_mean(rng)
            self._scale = (target_mean_rtt_ms - self._base) / max(mean_now, 1e-12)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def _sample_mean(self, rng: np.random.Generator, pairs: int = 40_000) -> float:
        """Mean of ``||coord_a - coord_b||`` over sampled distinct pairs."""
        n = self._size
        total = n * (n - 1) // 2
        if total <= pairs:
            a, b = np.triu_indices(n, k=1)
        else:
            a = rng.integers(0, n, size=pairs)
            b = rng.integers(0, n, size=pairs)
            mask = a != b
            a, b = a[mask], b[mask]
        d = np.linalg.norm(self.coords[a] - self.coords[b], axis=1)
        return float(d.mean())

    def rtt_ms(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        dx = self.coords[a, 0] - self.coords[b, 0]
        dy = self.coords[a, 1] - self.coords[b, 1]
        # the same formula as ``np.linalg.norm`` in ``rtt_many``, so the
        # two paths agree to the last bit (``math.hypot`` does not)
        dist = math.sqrt(dx * dx + dy * dy)
        return (self._base + self._scale * dist) * _pair_jitter(a, b, self._jitter)

    def rtt_many(self, a: int, others: Sequence[int]) -> np.ndarray:
        idx = np.asarray(others, dtype=np.intp)
        d = np.linalg.norm(self.coords[idx] - self.coords[a], axis=1)
        rtts = self._base + self._scale * d
        out = rtts * _pair_jitter_vec(a, idx, self._jitter)
        out[idx == a] = 0.0
        return out
