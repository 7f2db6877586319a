"""Dynamic batching: arrival queue, wait policy, and request coalescing.

The batcher is deliberately clock-agnostic — callers pass ``now`` — so
property tests can drive it with a virtual clock and the asyncio front
end can drive it with ``time.monotonic``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


@dataclass(frozen=True)
class LadderOption:
    """One candidate bucket ladder and what the observed traffic would
    have paid on it — the fullness-vs-padding tradeoff made explicit.

    ``served_slots`` is the decision currency: every flushed batch
    occupies ``max_batch_size`` model slots at its bucket's width, so
    ``sum(ceil(n_b / B) * B * width_b)`` charges padding waste (wide
    buckets) and empty-slot waste (many sparse buckets) in the same
    unit.  ``padded_tokens`` alone — the old objective — always prefers
    more buckets, which shatters small workloads into batches of one.
    """

    buckets: tuple[int, ...]
    padded_tokens: int          # sum of bucket widths over requests
    batches: int                # full flushes at max_batch_size
    served_slots: int           # batches x batch size x width
    fullness: float             # requests / (batches * max_batch_size)


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs.

    ``max_batch_size``: flush as soon as this many requests are queued.
    ``max_wait``: seconds a request may sit in the queue before the
    batch is flushed anyway (the no-starvation bound).
    ``pad_to``: fixed width every coalesced batch is padded to; None
    lets the serving engine pick the model's ``max_seq_len``.  Padding
    to a width that is a function of the request alone (never of the
    batch) keeps every kernel shape independent of batch composition,
    which is what makes a coalesced request bit-identical to the same
    request served alone.
    ``buckets``: optional ascending pad-width ladder.  Each request is
    assigned the smallest bucket that fits it (falling back to
    ``pad_to``) and only coalesces with requests of the same bucket,
    so short requests stop paying the full-width padding tax without
    giving up bit-stability.
    ``bucket_batch_sizes``: optional per-bucket flush sizes, one per
    ladder entry (matched to ``buckets`` by position, kept paired when
    the ladder is sorted).  A wide bucket can then cap its batches
    small — bounding the tokens one flush pushes through the model —
    while narrow buckets still coalesce deep.  Buckets without an
    entry (and the ``pad_to`` fallback bucket) use ``max_batch_size``.
    """

    max_batch_size: int = 8
    max_wait: float = 0.002
    pad_to: int | None = None
    buckets: tuple[int, ...] | None = None
    bucket_batch_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.bucket_batch_sizes is not None and self.buckets is None:
            raise ValueError("bucket_batch_sizes needs a bucket ladder")
        if self.buckets is not None:
            if any(b < 1 for b in self.buckets):
                raise ValueError("buckets must be positive widths")
            if self.bucket_batch_sizes is None:
                object.__setattr__(self, "buckets",
                                   tuple(sorted(set(self.buckets))))
            else:
                if len(self.bucket_batch_sizes) != len(self.buckets):
                    raise ValueError(
                        "bucket_batch_sizes must pair one size per "
                        f"bucket: {len(self.bucket_batch_sizes)} sizes "
                        f"for {len(self.buckets)} buckets")
                if any(s < 1 for s in self.bucket_batch_sizes):
                    raise ValueError("bucket batch sizes must be >= 1")
                pairs = sorted(zip(self.buckets,
                                   self.bucket_batch_sizes))
                widths = tuple(w for w, _ in pairs)
                if len(set(widths)) != len(widths):
                    raise ValueError("duplicate bucket widths are "
                                     "ambiguous with per-bucket batch "
                                     "sizes")
                object.__setattr__(self, "buckets", widths)
                object.__setattr__(self, "bucket_batch_sizes",
                                   tuple(s for _, s in pairs))

    def bucket_for(self, length: int, pad_to: int) -> int:
        """The fixed pad width a request of ``length`` is served at."""
        if self.buckets is not None:
            for bucket in self.buckets:
                if length <= bucket <= pad_to:
                    return bucket
        return pad_to

    def batch_size_for(self, bucket: int) -> int:
        """The flush size of one bucket's queue: its ladder entry in
        ``bucket_batch_sizes`` when configured, else the global
        ``max_batch_size`` (which also covers the ``pad_to`` fallback
        bucket)."""
        if self.buckets is not None and self.bucket_batch_sizes is not None:
            for width, size in zip(self.buckets,
                                   self.bucket_batch_sizes):
                if width == bucket:
                    return size
        return self.max_batch_size

    @classmethod
    def ladder_options(cls, lengths, max_buckets: int = 4,
                       max_batch_size: int | None = None
                       ) -> list["LadderOption"]:
        """Score the best ladder at every bucket count 1..max_buckets.

        For each ``k`` an exact O(u² · k) dynamic program over the
        ``u`` unique observed lengths finds the ladder minimizing
        ``served_slots`` — every batch occupies ``max_batch_size``
        slots at its bucket's width, so the objective charges both the
        padding tax of wide buckets *and* the empty-slot tax of
        splitting a small workload across many sparse buckets (the
        failure mode of a padded-tokens-only objective with few
        observed lengths: every length its own bucket, every batch
        nearly empty).  The widest bucket is always ``max(lengths)``
        so every observed length is servable.  Returns one
        :class:`LadderOption` per bucket count, ascending — callers
        can inspect the fullness-vs-padding tradeoff;
        :meth:`from_observed` just takes the cheapest.
        """
        lengths = [int(n) for n in lengths]
        if not lengths or any(n < 1 for n in lengths):
            raise ValueError("from_observed needs positive lengths")
        if max_buckets < 1:
            raise ValueError("max_buckets must be >= 1")
        size = (max_batch_size if max_batch_size is not None
                else cls.max_batch_size)
        if size < 1:
            raise ValueError("max_batch_size must be >= 1")
        unique = sorted(set(lengths))
        u = len(unique)
        weight = [lengths.count(n) for n in unique]
        prefix = [0] * (u + 1)
        for i, w in enumerate(weight):
            prefix[i + 1] = prefix[i] + w

        # cost[i][j]: served slots when unique[i..j] form one bucket
        # at width unique[j] — their requests share one queue, so they
        # flush in ceil(count / size) batches of `size` slots each
        cost = [[_ceil_div(prefix[j + 1] - prefix[i], size)
                 * size * unique[j]
                 for j in range(u)] for i in range(u)]
        # best[k][j]: min served slots covering unique[0..j] with k
        # buckets, the last at unique[j]
        top = min(max_buckets, u)
        best = [[float("inf")] * u for _ in range(top + 1)]
        choice = [[-1] * u for _ in range(top + 1)]
        for j in range(u):
            best[1][j] = cost[0][j]
        for k in range(2, top + 1):
            for j in range(k - 1, u):
                for prev in range(k - 2, j):
                    total = best[k - 1][prev] + cost[prev + 1][j]
                    if total < best[k][j]:
                        best[k][j] = total
                        choice[k][j] = prev
        options = []
        for k in range(1, top + 1):
            if best[k][u - 1] == float("inf"):
                continue
            bounds = []
            kk, j = k, u - 1
            while j >= 0 and kk >= 1:
                bounds.append(j)
                j = choice[kk][j]
                kk -= 1
            bounds.reverse()
            padded = batches = 0
            start = 0
            for j in bounds:
                n = prefix[j + 1] - prefix[start]
                padded += n * unique[j]
                batches += _ceil_div(n, size)
                start = j + 1
            options.append(LadderOption(
                buckets=tuple(unique[j] for j in bounds),
                padded_tokens=padded, batches=batches,
                served_slots=int(best[k][u - 1]),
                fullness=len(lengths) / (batches * size)))
        return options

    @classmethod
    def from_observed(cls, lengths, max_buckets: int = 4,
                      max_batch_tokens: int | None = None,
                      **kwargs) -> "BatchPolicy":
        """Auto-tune the bucket ladder from an observed request-length
        distribution.

        Evaluates the best ladder at each bucket count (see
        :meth:`ladder_options`) and picks the one with the fewest
        served slots — ties broken toward fewer buckets, then fewer
        padded tokens — so a handful of observed lengths yields a
        compact ladder with full batches instead of one near-empty
        bucket per length.  Remaining ``BatchPolicy`` fields pass
        through ``kwargs`` (``max_batch_size`` also shapes the slot
        costs).

        ``max_batch_tokens`` additionally derives per-bucket flush
        sizes: each bucket's batch is capped at
        ``clamp(max_batch_tokens // width, 1, max_batch_size)``, so
        every flush pushes roughly the same padded-token volume
        through the model no matter which bucket it came from (wide
        buckets flush shallow, narrow buckets flush deep).
        """
        options = cls.ladder_options(
            lengths, max_buckets=max_buckets,
            max_batch_size=kwargs.get("max_batch_size"))
        winner = min(options, key=lambda o: (o.served_slots,
                                             len(o.buckets),
                                             o.padded_tokens))
        if max_batch_tokens is not None:
            if max_batch_tokens < 1:
                raise ValueError("max_batch_tokens must be >= 1")
            size = kwargs.get("max_batch_size", cls.max_batch_size)
            sizes = tuple(max(1, min(size, max_batch_tokens // width))
                          for width in winner.buckets)
            return cls(buckets=winner.buckets,
                       bucket_batch_sizes=sizes, **kwargs)
        return cls(buckets=winner.buckets, **kwargs)


@dataclass
class QueuedRequest:
    """One waiting single-sequence request."""

    request_id: int
    inputs: np.ndarray              # (L,) token ids or (L, D) patches
    mask: np.ndarray                # (L,) bool
    arrival: float
    deadline: float | None = None   # absolute; shed once now >= deadline

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class CoalescedBatch:
    """Several requests padded into one fixed-width model batch."""

    request_ids: list[int]
    inputs: np.ndarray              # (B, pad_to[, D])
    mask: np.ndarray                # (B, pad_to) bool
    lengths: np.ndarray             # (B,) true lengths

    def __len__(self) -> int:
        return len(self.request_ids)


class DynamicBatcher:
    """Per-bucket FIFO queues with a size-or-deadline flush policy.

    Requests queue under their own pad bucket (a single bucket unless
    the policy sets a ladder).  A queue flushes when it reaches
    ``max_batch_size`` or its oldest request has waited ``max_wait``;
    pops always take a queue's oldest requests first, so no request is
    starved by later arrivals.

    Generation streams wait in a separate FIFO admission queue that the
    scheduler drains explicitly: the step planner pops exactly as many
    streams as it has free decode slots (``pop_streams``), and
    preempted streams re-enter at the back so fresh arrivals are never
    starved by swapped-out residents.  Under a model router each model
    owns its own batcher, so every queue here — buckets and streams —
    is per-model by construction.
    """

    def __init__(self, policy: BatchPolicy, pad_to: int):
        self.policy = policy
        self.pad_to = pad_to
        self._queues: dict[int, deque[QueuedRequest]] = {}
        self._streams: deque = deque()

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    # -- stream admission queue (planner-driven) ------------------------
    def add_stream(self, stream) -> None:
        """Enqueue a stream for admission (new arrivals and preempted
        streams alike join the back — FIFO by enqueue time)."""
        self._streams.append(stream)

    def stream_count(self) -> int:
        return len(self._streams)

    def pop_streams(self, limit: int | None = None) -> list:
        """Dequeue up to ``limit`` waiting streams (all, if None)."""
        if limit is None:
            limit = len(self._streams)
        out = []
        while self._streams and len(out) < limit:
            out.append(self._streams.popleft())
        return out

    def peek_streams(self, limit: int | None = None) -> list:
        """The first ``limit`` waiting streams in FIFO order, without
        dequeuing them — the token-budget planner prices the queue head
        before deciding how many streams this step can afford."""
        if limit is None:
            limit = len(self._streams)
        return [stream for stream, _ in zip(self._streams, range(limit))]

    def discard_stream(self, stream_id: int) -> bool:
        """Drop a waiting stream (client hung up before admission)."""
        for stream in self._streams:
            if stream.stream_id == stream_id:
                self._streams.remove(stream)
                return True
        return False

    def add(self, request: QueuedRequest) -> None:
        bucket = self.policy.bucket_for(request.length, self.pad_to)
        self._queues.setdefault(bucket, deque()).append(request)

    def discard(self, request_id: int) -> QueuedRequest | None:
        """Drop one waiting classification request (cancellation)."""
        for queue in self._queues.values():
            for request in queue:
                if request.request_id == request_id:
                    queue.remove(request)
                    return request
        return None

    def shed_expired(self, now: float) -> list[QueuedRequest]:
        """Remove and return every queued request whose deadline has
        passed — expired work must never occupy a batch slot."""
        shed: list[QueuedRequest] = []
        for bucket, queue in self._queues.items():
            keep = deque(r for r in queue if not r.expired(now))
            if len(keep) != len(queue):
                shed += [r for r in queue if r.expired(now)]
                self._queues[bucket] = keep
        return shed

    def backlog_tokens(self) -> int:
        """Tokens waiting in the bucket queues plus the stream
        admission queue — the admission controller's pressure gauge.
        Streams are charged their full KV demand (prompt + budgeted new
        tokens), the work they will actually occupy the engine with."""
        queued = sum(r.length for q in self._queues.values() for r in q)
        streams = sum(s.length + s.max_new_tokens for s in self._streams)
        return queued + streams

    def next_deadline(self) -> float | None:
        """Earliest time any queue's oldest request must flush by."""
        arrivals = [q[0].arrival for q in self._queues.values() if q]
        if not arrivals:
            return None
        return min(arrivals) + self.policy.max_wait

    def ready(self, now: float) -> bool:
        return self._ready_bucket(now) is not None

    def _ready_bucket(self, now: float) -> int | None:
        """The due queue holding the oldest request, if any is due."""
        best = None
        best_arrival = None
        for bucket, queue in self._queues.items():
            if not queue:
                continue
            due = (len(queue) >= self.policy.batch_size_for(bucket)
                   or now >= queue[0].arrival + self.policy.max_wait)
            if due and (best is None or queue[0].arrival < best_arrival):
                best, best_arrival = bucket, queue[0].arrival
        return best

    def _oldest_bucket(self) -> int | None:
        best = None
        best_arrival = None
        for bucket, queue in self._queues.items():
            if queue and (best is None or queue[0].arrival < best_arrival):
                best, best_arrival = bucket, queue[0].arrival
        return best

    def pop(self, now: float | None = None
            ) -> tuple[int, list[QueuedRequest]]:
        """Dequeue up to the bucket's flush size (``batch_size_for``)
        oldest requests from the most urgent queue; returns
        (bucket width, requests)."""
        bucket = None
        if now is not None:
            bucket = self._ready_bucket(now)
        if bucket is None:
            bucket = self._oldest_bucket()
        if bucket is None:
            return self.pad_to, []
        queue = self._queues[bucket]
        size = self.policy.batch_size_for(bucket)
        out = []
        while queue and len(out) < size:
            out.append(queue.popleft())
        return bucket, out


def coalesce(requests: list[QueuedRequest], pad_to: int) -> CoalescedBatch:
    """Pad requests into one left-aligned (B, pad_to[, D]) batch."""
    lengths = np.array([r.length for r in requests], dtype=np.int64)
    over = lengths.max(initial=0)
    if over > pad_to:
        raise ValueError(f"request of length {over} exceeds pad_to={pad_to}")
    first = requests[0].inputs
    shape = (len(requests), pad_to) + first.shape[1:]
    inputs = np.zeros(shape, dtype=first.dtype)
    mask = np.zeros((len(requests), pad_to), dtype=bool)
    for i, request in enumerate(requests):
        if request.inputs.shape[1:] != first.shape[1:]:
            raise ValueError("cannot coalesce requests with mismatched "
                             "feature dimensions")
        inputs[i, :request.length] = request.inputs
        mask[i, :request.length] = request.mask
    return CoalescedBatch(
        request_ids=[r.request_id for r in requests],
        inputs=inputs, mask=mask, lengths=lengths)
