"""Purchase vs non-purchase session characterization.

Every report here is a pure function of the session multiset. Fractions are
kept at full precision internally; CSV emission rounds to 2 decimals.
Session start hours and weekdays are evaluated in CET (fixed UTC+1).
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .ingest import CHANNELS, DEVICES

CET_OFFSET_MS = 3_600_000  # fixed UTC+1, no DST
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000
# 1970-01-01 was a Thursday; weekday convention is Monday=0 .. Sunday=6.
_EPOCH_WEEKDAY = 3


class KeyRate(NamedTuple):
    key: str
    purchase_sessions: int
    total_sessions: int
    conversion_rate: float
    standardized_rate: float  # NaN when degenerate


class CCDF(NamedTuple):
    support: list  # sorted observed lengths
    tail: list  # P(L >= support[i])


def standardize_rates(rates: dict) -> dict:
    """Standardize a rate per key: subtract the cross-key mean, divide by the
    cross-key population standard deviation.

    With fewer than 2 distinct rates the standard deviation is 0 and every
    standardized value is NaN (degenerate, reported as such).
    """
    values = list(rates.values())
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    if std == 0.0:
        return {k: math.nan for k in rates}
    return {k: (v - mean) / std for k, v in rates.items()}


def conversion_rates(sessions) -> list[KeyRate]:
    """Raw and standardized conversion rate per device, in DEVICES order."""
    totals: dict[str, int] = {}
    purchases: dict[str, int] = {}
    for s in sessions:
        totals[s.device] = totals.get(s.device, 0) + 1
        if s.purchase:
            purchases[s.device] = purchases.get(s.device, 0) + 1
    keys = [k for k in DEVICES if k in totals]
    rates = {k: purchases.get(k, 0) / totals[k] for k in keys}
    standardized = standardize_rates(rates) if keys else {}
    return [
        KeyRate(k, purchases.get(k, 0), totals[k], rates[k], standardized[k])
        for k in keys
    ]


def session_length_ccdf(sessions) -> dict:
    """Empirical tail P(L >= x) of session length per (device, label) group."""
    groups: dict[tuple, list[int]] = {}
    for s in sessions:
        groups.setdefault((s.device, s.purchase), []).append(s.length)
    out = {}
    for grp, lengths in groups.items():
        lengths.sort()
        n = len(lengths)
        support = sorted(set(lengths))
        tail = []
        for x in support:
            # count of lengths >= x
            tail.append((n - bisect.bisect_left(lengths, x)) / n)
        out[grp] = CCDF(support=support, tail=tail)
    return out


def session_start_cet(s) -> tuple[int, int]:
    """(weekday, hour) of the session's first event in CET; Monday=0."""
    local = s.start_time + CET_OFFSET_MS
    hour = (local // MS_PER_HOUR) % 24
    weekday = ((local // MS_PER_DAY) + _EPOCH_WEEKDAY) % 7
    return int(weekday), int(hour)


def temporal_profile(sessions, axis: str = "weekday") -> dict:
    """Per-label fraction vector over the 7 weekdays or 24 CET start hours.

    Each label's vector sums to 1 (labels with no sessions are omitted).
    """
    if axis not in ("weekday", "hour"):
        raise ValueError("axis must be 'weekday' or 'hour'")
    size = 7 if axis == "weekday" else 24
    counts = {True: [0] * size, False: [0] * size}
    for s in sessions:
        weekday, hour = session_start_cet(s)
        counts[s.purchase][weekday if axis == "weekday" else hour] += 1
    out = {}
    for label, vec in counts.items():
        total = sum(vec)
        if total:
            out[label] = [c / total for c in vec]
    return out


def channel_mix(sessions) -> dict:
    """Channel fractions per label; a label with no sessions is omitted."""
    counts = {True: {c: 0 for c in CHANNELS}, False: {c: 0 for c in CHANNELS}}
    for s in sessions:
        counts[s.purchase][s.channel] += 1
    fractions = {}
    for label, per_channel in counts.items():
        total = sum(per_channel.values())
        if total:
            fractions[label] = {c: per_channel[c] / total for c in CHANNELS}
    return fractions


def device_ownership(journeys) -> dict:
    """Distinct-device ownership histogram for purchasers vs non-purchasers.

    A purchaser is a customer with at least one purchase session among their
    identified sessions. Buckets are 1, 2, 3 and 4+ devices; multi_share is
    the fraction owning more than one. journeys is build_journeys' mapping.
    """
    groups = {"purchasers": [], "non_purchasers": []}
    for journey in journeys.values():
        n_devices = len({s.device for s in journey})
        if any(s.purchase for s in journey):
            groups["purchasers"].append(n_devices)
        else:
            groups["non_purchasers"].append(n_devices)
    out = {}
    for name, counts in groups.items():
        total = len(counts)
        hist = {"1": 0, "2": 0, "3": 0, "4+": 0}
        for c in counts:
            hist[str(c) if c < 4 else "4+"] += 1
        if total:
            fractions = {k: v / total for k, v in hist.items()}
            multi = sum(1 for c in counts if c > 1) / total
        else:
            fractions = {k: 0.0 for k in hist}
            multi = 0.0
        out[name] = {
            "customers": total,
            "fractions": fractions,
            "multi_share": multi,
        }
    return out


def pair_counts(sequences) -> Counter:
    """How often each adjacent (a, b) pair occurs across all sequences."""
    return Counter(chain.from_iterable(zip(seq, seq[1:]) for seq in sequences))


def transition_matrix(journeys) -> tuple[list, list]:
    """Empirical device-to-device transition probabilities between sessions.

    Counts consecutive session pairs of each journey in build_journeys'
    mapping whose second session is a purchase session. Returns (matrix,
    support), indexed in DEVICES order: matrix[i][k] is the share of the
    pairs leaving device i that arrive at device k, NaN in a row without
    support rather than uniform, and support[i] is the number of pairs
    leaving device i. Each share is one correctly rounded int/int division.
    """
    dev_index = {d: i for i, d in enumerate(DEVICES)}
    n = len(DEVICES)
    counts = [[0] * n for _ in range(n)]
    pairs = pair_counts([(s.device, s.purchase) for s in j] for j in journeys.values())
    for ((prev, _), (nxt, purchase)), c in pairs.items():
        if purchase:
            counts[dev_index[prev]][dev_index[nxt]] += c
    support = [sum(row) for row in counts]
    matrix = [[c / total for c in row] if total else [math.nan] * n
              for row, total in zip(counts, support)]
    return matrix, support


def query_stats(sessions) -> dict:
    """Mean queries/session and distinct query texts per (device, label).

    The "avg" entries aggregate over all devices within a label.
    """
    per_cell: dict[tuple, list] = {}
    uniques: dict[tuple, set] = {}
    for s in sessions:
        cell = (s.device, s.purchase)
        per_cell.setdefault(cell, []).append(s.n_queries)
        uniques.setdefault(cell, set()).update(
            q for a, q in zip(s.actions, s.queries) if a == "Query" and q is not None
        )
    rows = {}
    for cell, qs in per_cell.items():
        rows[cell] = {
            "sessions": len(qs),
            "queries_per_session": sum(qs) / len(qs),
            "unique_queries": len(uniques[cell]),
        }
    avg = {}
    for label in (True, False):
        cells = [(d, l) for (d, l) in per_cell if l is label]
        n_sessions = sum(len(per_cell[c]) for c in cells)
        n_queries = sum(sum(per_cell[c]) for c in cells)
        if n_sessions:
            avg[label] = n_queries / n_sessions
    return {"rows": rows, "avg": avg}


