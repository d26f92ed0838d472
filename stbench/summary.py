"""Latency summaries: each call's best repetition, and the tail-percentile rule.

A run repeats one fixed list of calls (a round) on the same inputs. Each
call's latency is its fastest repetition in the run. On a shared virtual
machine other tenants only ever add time, in bursts and in slow periods
that last seconds to minutes, so the fastest of several repetitions is
the steadiest estimate of what the call itself costs (the rule
``timeit`` follows). Every statistic below is taken over the one set of
per-call best latencies. The tail is the highest percentile of that set
with at least MIN_BEYOND calls beyond it, so it is chosen from the size
of the set it is evaluated on.
"""

from __future__ import annotations

import math
from statistics import median

MIN_BEYOND = 10


def tail_rank(n: int) -> int:
    """1-based rank of the tail among n sorted values: the highest rank
    that leaves MIN_BEYOND values beyond it, but never below the median."""
    return max(math.ceil(n / 2), n - MIN_BEYOND)


def tail_percentile(n: int) -> float:
    """The percentile that ``tail_rank`` picks, for the record."""
    return round(100 * tail_rank(n) / n, 2)


def best_per_call(rounds):
    """Fastest repetition of each call, from per-round latency lists."""
    return [min(reps) for reps in zip(*rounds)]


def latency_summary(rounds):
    """(ops per second, p50, tail percentile, tail value, calls in a round)
    from per-round latency lists, all from each call's best repetition.

    Throughput is the calls of one round over the sum of their best times.
    """
    best = best_per_call(rounds)
    n = len(best)
    tail = sorted(best)[tail_rank(n) - 1]
    return n / (sum(best) / 1e9), median(best), tail_percentile(n), tail, n
