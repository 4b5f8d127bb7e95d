"""In-memory session and customer-journey model with derived quantities."""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import NoneType
from typing import NamedTuple, Optional

from .analytics import MS_PER_DAY
from .ingest import ACTIONS, CHANNELS, DEVICES, PAGE_TYPES, MalformedLine, UnknownEnum, not_utf8

# each decoded action and page type maps to ingest's own string, so a
# file's events share one copy of it instead of one per event
_CANONICAL = {name: name for name in (*ACTIONS, *PAGE_TYPES)}


@dataclass(frozen=True, slots=True)
class Session:
    """An idle-bounded run of one client's events, as five equal-length
    columns: timestamps (non-decreasing, ms since epoch, UTC), actions and
    page_types (ingest's canonical strings), queries and prices (cents), a
    query or price None where its event has none. purchase is true iff some
    action is a Purchase.
    """

    session_id: str
    client_token: str
    customer_id: Optional[str]
    device: str
    channel: str
    timestamps: tuple
    actions: tuple
    page_types: tuple
    queries: tuple
    prices: tuple
    purchase: bool
    country: str = ""

    @property
    def length(self) -> int:
        """Session length: number of actions."""
        return len(self.timestamps)

    @property
    def start_time(self) -> int:
        """First event's timestamp, ms since epoch, UTC."""
        return self.timestamps[0]

    @property
    def end_time(self) -> int:
        return self.timestamps[-1]

    @property
    def n_page_views(self) -> int:
        return self.actions.count("PageView")

    @property
    def n_queries(self) -> int:
        return self.actions.count("Query")


class HistorySummary(NamedTuple):
    orders: int
    days_since_last_purchase: float  # -1.0 sentinel when no prior purchase
    n_sessions: int
    n_devices: int
    device_sequence: list
    switch_probability: float


def build_journeys(sessions) -> dict[str, list[Session]]:
    """Each identified customer's journey, keyed by customer_id: a list of
    the customer's sessions in (start_time, session_id) order."""
    by_customer: dict[str, list] = {}
    for s in sessions:
        if s.customer_id is not None:
            by_customer.setdefault(s.customer_id, []).append(s)
    for journey in by_customer.values():
        journey.sort(key=lambda s: (s.start_time, s.session_id))
    return by_customer


def dwell_times(s: Session) -> list[float]:
    """Dwell per page view: seconds until the next action of any kind.

    The final action of a session has no successor and is excluded, so a
    single-page-view session yields [].
    """
    ts = s.timestamps
    return [(b - a) / 1000.0 for a, b, action in zip(ts, ts[1:], s.actions) if action == "PageView"]


def _switch_probability(devices) -> float:
    """Fraction of consecutive devices that differ; 0.0 for fewer than two."""
    switches = sum(a != b for a, b in zip(devices, devices[1:]))
    return switches / (len(devices) - 1) if len(devices) > 1 else 0.0


def history_snapshot(journey: Optional[list[Session]], at: int) -> HistorySummary:
    """Summarize a journey's sessions that ended strictly before `at`.

    journey is one customer's sessions in build_journeys' order.
    days_since_last_purchase is fractional, measured from the most recent
    purchase session's end; -1.0 when the customer has no prior purchase.
    A missing journey (None) yields the empty-history summary.
    """
    prior = [s for s in journey or () if s.end_time < at]
    purchase_ends = [s.end_time for s in prior if s.purchase]
    days = -1.0 if not purchase_ends else (at - max(purchase_ends)) / MS_PER_DAY
    devices = [s.device for s in prior]
    return HistorySummary(
        orders=len(purchase_ends),
        days_since_last_purchase=days,
        n_sessions=len(prior),
        n_devices=len(set(devices)),
        device_sequence=devices,
        switch_probability=_switch_probability(devices),
    )


# --- JSON-lines interchange -------------------------------------------------

# json.dumps with these arguments builds a new encoder on every call; this
# one is built once and gives the same text
compact_json = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def session_to_json(s: Session) -> str:
    rec = {
        "session_id": s.session_id,
        "client_token": s.client_token,
        "customer_id": s.customer_id,
        "device": s.device,
        "channel": s.channel,
        "start_ms": s.start_time,
        "purchase": s.purchase,
        "country": s.country,
        "events": list(zip(s.timestamps, s.actions, s.page_types, s.queries, s.prices)),
    }
    return compact_json(rec)


def session_from_json(line: str) -> Session:
    """Decode one sessions.jsonl record, transposing its events into the
    Session's columns. Values must be the canonical ones the writer emits:
    an empty event list, a value of another JSON type, a negative start_ms,
    a start_ms other than the first event's timestamp or event timestamps
    that decrease or a purchase flag that disagrees with the events'
    Purchase actions raise MalformedLine, events that are not all rows of
    five fields ValueError or TypeError, and a device, channel, action or
    page type outside ingest's alphabets UnknownEnum."""
    rec = json.loads(line)
    if not rec["events"]:
        raise MalformedLine("session has no events")
    stamps, actions, page_types, queries, prices = zip(*rec["events"], strict=True)
    actions = tuple(map(_CANONICAL.get, actions, actions))
    page_types = tuple(map(_CANONICAL.get, page_types, page_types))
    country = rec.get("country", "")
    token, customer = rec["client_token"], rec["customer_id"]
    device, channel = rec["device"], rec["channel"]
    # the exact types session_to_json writes, so a bool is not an int
    for what, found, allowed in (
        ("session_id", {type(rec["session_id"])}, (str,)),
        ("client_token", {type(token)}, (str,)),
        ("customer_id", {type(customer)}, (str, NoneType)),
        ("start_ms", {type(rec["start_ms"])}, (int,)),
        ("purchase", {type(rec["purchase"])}, (bool,)),
        ("country", {type(country)}, (str,)),
        ("timestamp", set(map(type, stamps)), (int,)),
        ("query", set(map(type, queries)), (str, NoneType)),
        ("price", set(map(type, prices)), (int, NoneType)),
    ):
        wrong = found.difference(allowed)
        if wrong:
            names = [t.__name__ for t in allowed]
            raise MalformedLine(f"{what}: expected {' or '.join(names)}, got {wrong.pop().__name__}")
    for what, values, alphabet in (
        ("device", {device}, DEVICES),
        ("channel", {channel}, CHANNELS),
        ("action", set(actions), ACTIONS),
        ("page_type", set(page_types), PAGE_TYPES),
    ):
        unknown = values.difference(alphabet)
        if unknown:
            raise UnknownEnum(f"unknown {what} {min(unknown)!r}")
    # ingest's own invariants, so no dwell time comes out negative
    if rec["start_ms"] < 0:
        raise MalformedLine(f"negative start_ms {rec['start_ms']}")
    if rec["start_ms"] != stamps[0]:
        raise MalformedLine(f"start_ms {rec['start_ms']} is not the first event's timestamp {stamps[0]}")
    if list(stamps) != sorted(stamps):
        raise MalformedLine("event timestamps decrease")
    if rec["purchase"] != ("Purchase" in actions):
        raise MalformedLine(f"purchase is {json.dumps(rec['purchase'])} but "
                            f"{'no' if rec['purchase'] else 'an'} event is a Purchase")
    return Session(
        session_id=rec["session_id"],
        client_token=token,
        customer_id=customer,
        device=device,
        channel=channel,
        timestamps=stamps,
        actions=actions,
        page_types=page_types,
        queries=queries,
        prices=prices,
        purchase=rec["purchase"],
        country=country,
    )


def write_sessions(path, sessions) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sessions:
            fh.write(session_to_json(s))
            fh.write("\n")


def read_sessions(path) -> list[Session]:
    """Parse a sessions.jsonl file; a malformed record, or a line that is
    not UTF-8, raises MalformedLine with its 1-based line number."""
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    out.append(session_from_json(line))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise MalformedLine(f"bad session record: {type(exc).__name__}: {exc}",
                                        line_no) from None
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    return out
