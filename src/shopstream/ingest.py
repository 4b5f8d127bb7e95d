"""Event-log ingestion: TSV parsing, bot filtering, 30-minute sessionization.

The wire format is UTF-8 TSV (a leading byte-order mark is dropped), one
event per line, columns in order:

    timestamp_ms, client_token, customer_id, device, channel, action,
    page_type, query_text, price_cents, country

customer_id, query_text and price_cents may be empty. A header line is
optional: line 1 is one when its first field is the column name
``timestamp_ms`` (any case, surrounding blanks ignored). Files ending in
``.gz`` are transparently decompressed.
"""

from __future__ import annotations

import gzip
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Optional

DEVICES = ("PC", "Smartphone", "Tablet", "GameConsole", "TV")
CHANNELS = ("Direct", "Paid", "Organic", "Other")
ACTIONS = ("PageView", "Query", "AddToBasket", "RemoveFromBasket", "Purchase")
PAGE_TYPES = ("home", "search", "product", "category", "basket", "checkout", "account", "other")

IDLE_GAP_MS = 30 * 60 * 1000  # strict: a gap of exactly 30 minutes stays in-session
# session-length sanity bounds, in events: shorter or longer sessions are dropped
MIN_SESSION_EVENTS = 2
MAX_SESSION_EVENTS = 2000

N_COLUMNS = 10


def _lookup(names) -> dict:
    """Canonical name by its lower-case form and by itself."""
    return {**{n.lower(): n for n in names}, **{n: n for n in names}}


_DEVICE_LOOKUP = _lookup(DEVICES)
_CHANNEL_LOOKUP = _lookup(CHANNELS)
_ACTION_LOOKUP = _lookup(ACTIONS)
_PAGE_LOOKUP = _lookup(PAGE_TYPES)


class IngestError(ValueError):
    """Base class for ingest failures; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


class InvalidConfig(ValueError):
    """A setting that is unknown or out of range; names its key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def check_numbers(key: str, values, low, high, integral: bool = False) -> None:
    """Raise InvalidConfig naming key unless every value is a finite real
    number in [low, high], and an integer if integral is set. A bool is not
    a number here, and NaN fails every comparison."""
    kind = numbers.Integral if integral else numbers.Real
    for v in values:
        ok = isinstance(v, kind) and not isinstance(v, bool)
        if not (ok and low <= v <= high and -math.inf < v < math.inf):
            what = "an integer" if integral else "a finite number"
            raise InvalidConfig(key, f"expected {what} in [{low}, {high}], got {v!r}")


def check_known(key: str, values, known) -> None:
    """Raise InvalidConfig naming key on the first value outside known."""
    for v in values:
        if v not in known:
            raise InvalidConfig(key, f"unknown entry {v!r}; expected one of {list(known)}")


def check_kind(key: str, value, default):
    """value in the frozen form of its default's kind, else InvalidConfig
    naming key and showing repr(value). A tuple takes a non-empty list or
    tuple whose entries have the kind of the default's, a frozenset also a
    set; a str or a mapping is neither. A dict takes a mapping, stored
    read-only down to its rows, and so does None, which also takes None. A
    number passes, for check_numbers to check; any other default takes only
    its own type."""
    mapping = default is None or isinstance(default, Mapping)
    if isinstance(default, (tuple, frozenset)):
        sets = (set, frozenset) if isinstance(default, frozenset) else ()
        if isinstance(value, (list, tuple, *sets)):
            if not value:
                raise InvalidConfig(key, "expected at least one entry")
            return type(default)(check_kind(key, v, next(iter(default))) for v in value)
    elif mapping and isinstance(value, Mapping):
        return MappingProxyType({k: check_kind(key, v, {}) if isinstance(v, Mapping) else v for k, v in value.items()})
    elif isinstance(value, type(default)) or isinstance(default, numbers.Real) and not isinstance(default, bool):
        return value
    want = "list" if isinstance(default, (tuple, frozenset)) else "mapping" if mapping else type(default).__name__
    raise InvalidConfig(key, f"expected a {want}, got {value!r}")


def check_fields(config) -> None:
    """Store every field of a settings dataclass in its default's kind
    (check_kind). Each settings class calls this first in __post_init__:
    one type rule for the CLI and the Python API alike."""
    for f in fields(config):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        object.__setattr__(config, f.name, check_kind(f.name, getattr(config, f.name), default))


class TooFewSessions(ValueError):
    """Fewer sessions than the protocol needs; a usage error like
    InvalidConfig, so it lives beside it."""


class MalformedLine(IngestError):
    pass


class BadTimestamp(IngestError):
    pass


class UnknownEnum(IngestError):
    pass


class UnsortedInput(IngestError):
    pass


class RawEvent(NamedTuple):
    """One timestamped user action with device/channel context. A tuple:
    building one takes about half the time a frozen dataclass does, which
    calls object.__setattr__ once per field."""

    timestamp: int  # milliseconds since epoch, UTC
    client_token: str
    customer_id: Optional[str]
    device: str
    channel: str
    action: str
    page_type: str
    query_text: Optional[str] = None
    price: Optional[int] = None  # cents
    country: str = ""


@dataclass(frozen=True)
class BotFilterConfig:
    """Location/device bot screen; an empty set would drop every event."""

    allowed_countries: frozenset = frozenset({"NL", "DE", "BE", "FR", "LU"})
    allowed_devices: frozenset = frozenset(DEVICES)

    def __post_init__(self):
        """Non-empty frozensets of strings (check_fields); devices are known."""
        check_fields(self)
        check_known("allowed_devices", self.allowed_devices, DEVICES)


def _decode_enum(value: str, lookup: dict, what: str, line_no: int) -> str:
    # the exact spelling hits first; others are stripped and lower-cased
    canon = lookup.get(value)
    if canon is None:
        canon = lookup.get(value.strip().lower())
        if canon is None:
            raise UnknownEnum(f"unknown {what} {value!r}", line_no)
    return canon


def _is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of 0-9; int() also takes underscores, signs
    and non-ASCII digits."""
    return text.isascii() and text.isdigit()


def _parse_timestamp(text: str, line_no: int) -> int:
    raw_ts = text.strip()
    if not _is_ascii_digits(raw_ts[1:] if raw_ts.startswith("-") else raw_ts):
        raise BadTimestamp(f"non-integer timestamp {raw_ts!r}", line_no)
    ts = int(raw_ts)
    if ts < 0:
        raise BadTimestamp(f"negative timestamp {ts}", line_no)
    return ts


def parse_event_line(line: str, line_no: int = 0) -> RawEvent:
    """Decode one TSV record into a RawEvent.

    Raises MalformedLine on a wrong column count or a price that is not
    ASCII digits, BadTimestamp on a timestamp that is not an optionally
    negative run of ASCII digits or is negative, and UnknownEnum for values
    outside the closed device/channel/action/page-type alphabets. Enum
    decoding is case-insensitive. Token, customer and country strings are
    interned, so a file's events share one copy of each.
    """
    cols = line.rstrip("\r\n").split("\t")
    if len(cols) != N_COLUMNS:
        raise MalformedLine(f"expected {N_COLUMNS} columns, got {len(cols)}", line_no)
    raw_ts = cols[0]
    ts = int(raw_ts) if raw_ts.isascii() and raw_ts.isdigit() else _parse_timestamp(raw_ts, line_no)
    price: Optional[int] = None
    raw_price = cols[8].strip()
    if raw_price:
        if not _is_ascii_digits(raw_price):
            raise MalformedLine(f"bad price {cols[8]!r}", line_no)
        price = int(raw_price)
    device, channel, action, page_type = cols[3:7]
    return RawEvent(
        ts,
        sys.intern(cols[1]),
        sys.intern(cols[2]) if cols[2] else None,
        _DEVICE_LOOKUP.get(device) or _decode_enum(device, _DEVICE_LOOKUP, "device", line_no),
        _CHANNEL_LOOKUP.get(channel) or _decode_enum(channel, _CHANNEL_LOOKUP, "channel", line_no),
        _ACTION_LOOKUP.get(action) or _decode_enum(action, _ACTION_LOOKUP, "action", line_no),
        _PAGE_LOOKUP.get(page_type) or _decode_enum(page_type, _PAGE_LOOKUP, "page_type", line_no),
        cols[7] or None,
        price,
        sys.intern(cols[9].strip()),
    )


def not_utf8(path, exc: UnicodeDecodeError, opener=open) -> MalformedLine:
    """The MalformedLine for a text file that failed to decode, numbered by
    its first line that is not UTF-8. Only the error path re-reads the file;
    it splits lines as the failed text-mode read did, and surrogateescape
    marks exactly the bytes that strict UTF-8 decoding rejects."""
    message = f"not utf-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
    with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return MalformedLine(message, line_no)
    return MalformedLine(message)


def read_events(path) -> Iterator[RawEvent]:
    """Stream RawEvents from a TSV file (gzip accepted by .gz extension).

    A UTF-8 byte-order mark is dropped. Line 1 is skipped as a header when
    its first field is timestamp_ms; any other line 1 is parsed as an
    event. A file that is not UTF-8 raises MalformedLine with the first
    undecodable line's number.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                if line_no == 1 and line.split("\t", 1)[0].strip().lower() == "timestamp_ms":
                    continue
                yield parse_event_line(line, line_no)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc, opener) from None


def filter_events(events: Iterable[RawEvent], cfg: BotFilterConfig) -> tuple[list[RawEvent], int]:
    """Drop events whose country or device is outside the allowed sets.

    Order is preserved; returns (kept events, dropped count). Filtering never
    fails and is idempotent.
    """
    kept = []
    dropped = 0
    for e in events:
        if e.country in cfg.allowed_countries and e.device in cfg.allowed_devices:
            kept.append(e)
        else:
            dropped += 1
    return kept, dropped


def sessionize(events: Iterable[RawEvent]):
    """Group events into idle-bounded sessions.

    Consecutive events of one client with an inter-event gap <= IDLE_GAP_MS
    share a session; a strictly larger gap starts a new one. A session is a
    purchase session iff any of its events is a Purchase. If any event
    carries a customer_id the session is assigned to the first such
    customer (late login); otherwise it is anonymous and keyed by its
    client_token. Sessions with an event count outside
    [MIN_SESSION_EVENTS, MAX_SESSION_EVENTS] are dropped. Each session
    holds its events' columns, and a list argument is emptied once its
    events are bucketed, so no RawEvent outlives the call.

    Events may arrive interleaved across clients (e.g. globally time-sorted);
    each client's own events must be in non-decreasing timestamp order or
    UnsortedInput is raised.
    """
    from .sessions import Session  # local import to avoid a cycle

    per_client: dict[str, list[RawEvent]] = {}
    for e in events:
        bucket = per_client.get(e.client_token)
        if bucket is None:
            per_client[e.client_token] = [e]
        else:
            if e.timestamp < bucket[-1].timestamp:
                raise UnsortedInput(
                    f"timestamps decrease for client {e.client_token!r} "
                    f"({bucket[-1].timestamp} -> {e.timestamp})"
                )
            bucket.append(e)
    if isinstance(events, list):
        events.clear()

    sessions = []
    for token in list(per_client):
        evs = per_client.pop(token)  # released once its sessions are built
        cuts = [i for i in range(1, len(evs)) if evs[i].timestamp - evs[i - 1].timestamp > IDLE_GAP_MS]
        for k, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(evs)])):
            if not (MIN_SESSION_EVENTS <= hi - lo <= MAX_SESSION_EVENTS):
                continue
            timestamps, _, customers, _, _, actions, page_types, queries, prices, _ = zip(*evs[lo:hi])
            sessions.append(
                Session(
                    session_id=f"{token}-s{k}",
                    client_token=token,
                    customer_id=next(filter(None, customers), None),
                    device=evs[lo].device,
                    channel=evs[lo].channel,
                    timestamps=timestamps,
                    actions=actions,
                    page_types=page_types,
                    queries=queries,
                    prices=prices,
                    purchase="Purchase" in actions,
                    country=evs[lo].country,
                )
            )
    return sessions
