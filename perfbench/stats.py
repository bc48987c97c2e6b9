"""Statistics helpers of the benchmark: percentiles and their tails,
open-loop latencies, step capacity, span self time and coverage, and
stratified draws for the load mix.

Percentiles use the nearest-rank rule, so every reported value is a
measured sample. A failed or shed operation has no latency; it is
recorded as ``math.inf`` so it counts as a miss of any latency limit.
"""

import math

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A tail is only reported where at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = _rank(len(ordered), pct)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _rank(n, pct):
    # The tolerance keeps e.g. 99.9% of 10000 at rank 9990 despite the
    # binary rounding of 99.9 / 100.
    return math.ceil(pct * n / 100.0 - 1e-9)


def beyond(n, pct):
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return n - _rank(n, pct)


def iq_mean(values):
    """Mean of the middle half of ``values`` (a quarter dropped from each
    end). Robust to outliers like a median, but it averages over the
    coarse steps a timer-driven exit puts into short wall times."""
    if not values:
        raise ValueError("mean of no samples")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def named_tail(values, pct):
    """The tail reported under the name ``pct``: that percentile when at
    least ``TAIL_MIN_BEYOND`` samples lie beyond it, else the highest
    ladder percentile below it that has them, else the median. Returns
    ``(percentile used, value)``."""
    ok = [p for p in TAIL_LADDER if p <= pct and beyond(len(values), p) >= TAIL_MIN_BEYOND]
    used = ok[-1] if ok else 50.0
    return used, percentile(values, used)


def tail_mean(values, pct):
    """Mean of the samples at and beyond the tail ``named_tail`` reports
    under the name ``pct``; returns ``(percentile used, value)``. When
    the tail lies in a small group of much slower samples, one rank
    jumps between them from run to run; their mean does not."""
    used, cut = named_tail(values, pct)
    tail = [v for v in values if v >= cut]
    return used, sum(tail) / len(tail)


def open_loop(ops, limit_ms):
    """Latencies of open-loop operations, each timed from its due time.

    ``ops`` are dicts with ``due_ms``, ``sent_ms``, ``ack_ms``, ``settle_ms``
    (``None`` when never observed settled) and ``ok`` (admitted and
    settled done). Failed or shed operations get an infinite settle
    latency, so they miss ``limit_ms``.
    """
    ack, settle, late = [], [], []
    for op in ops:
        late.append(op["sent_ms"] - op["due_ms"])
        ack.append(op["ack_ms"] - op["due_ms"] if op["ok"] else math.inf)
        if op["ok"] and op["settle_ms"] is not None:
            settle.append(op["settle_ms"] - op["due_ms"])
        else:
            settle.append(math.inf)
    misses = sum(1 for s in settle if s > limit_ms)
    return {"ack": ack, "settle": settle, "late": late, "misses": misses}


def backlog(ops, t_ms):
    """Operations due by ``t_ms`` and not yet observed settled then."""
    return sum(
        1
        for op in ops
        if op["due_ms"] <= t_ms and (op["settle_ms"] is None or op["settle_ms"] > t_ms)
    )


def step_report(ops, start_ms, end_ms, limit_ms, growth_slack):
    """Judges one fixed-rate step of an open-loop ladder.

    The step meets the limit when its p99 settle latency is within
    ``limit_ms`` and its backlog does not grow by more than
    ``growth_slack`` over the step's second half (the first half lets the
    backlog settle after the rate change). Throughput is the settlements
    observed inside the step's window, per second between the first and
    the last of them; a count over the whole window would only take the
    values k / window.
    """
    mine = [op for op in ops if start_ms <= op["due_ms"] < end_ms]
    lat = open_loop(mine, limit_ms)
    mid = (start_ms + end_ms) / 2.0
    growth = backlog(ops, end_ms) - backlog(ops, mid)
    settled = sorted(
        op["settle_ms"] for op in ops
        if op["settle_ms"] is not None and start_ms <= op["settle_ms"] < end_ms
    )
    span_s = (settled[-1] - settled[0]) / 1000.0 if len(settled) >= 2 else 0.0
    p99 = percentile(lat["settle"], 99.0)
    return {
        "n": len(mine),
        "settle_p50_ms": percentile(lat["settle"], 50.0),
        "settle_p99_ms": p99,
        "backlog_growth": growth,
        "throughput_jps": (len(settled) - 1) / span_s if span_s > 0 else 0.0,
        "meets": p99 <= limit_ms and growth <= growth_slack,
    }


def max_rate(steps):
    """Throughput of the highest ladder step that meets its limit, with
    every lower step meeting it too; 0 when the first step fails."""
    best = 0.0
    for step in steps:
        if not step["meets"]:
            break
        best = step["throughput_jps"]
    return best


class Deck:
    """Seeded draws without replacement, reshuffled when used up. Every
    whole deck holds each card in its fixed share, so a run's mix does
    not depend on the seed; the seed only changes the order."""

    def __init__(self, rng, cards):
        self.rng, self.cards, self.left = rng, list(cards), []

    def draw(self):
        if not self.left:
            self.left = list(self.cards)
            self.rng.shuffle(self.left)
        return self.left.pop()


def union_ns(intervals):
    """Total length covered by possibly overlapping ``(start, end)``."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that
    its child spans cover. ``spans`` are dicts with ``id``, ``parent``
    (0 for none), ``start_ns`` and ``end_ns``; returns ``{id: ns}``."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        inside = [
            (max(a, s["start_ns"]), min(b, s["end_ns"]))
            for a, b in children.get(s["id"], [])
            if b > s["start_ns"] and a < s["end_ns"]
        ]
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - union_ns(inside)
    return out


def coverage(spans, start_ns, end_ns):
    """Share of ``[start_ns, end_ns)`` covered by the top-level spans."""
    if end_ns <= start_ns:
        return 0.0
    tops = [
        (max(s["start_ns"], start_ns), min(s["end_ns"], end_ns))
        for s in spans
        if s["parent"] == 0 and s["end_ns"] > start_ns and s["start_ns"] < end_ns
    ]
    return union_ns(tops) / float(end_ns - start_ns)
