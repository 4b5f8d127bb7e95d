import codecs
import gzip
from dataclasses import fields

import numpy as np
import pytest

from helpers import (
    IDLE_MS,
    MINUTE,
    brute_force_sessionize,
    events_of,
    mk_event,
    random_event_stream,
    session_signatures,
)
from shopstream import ingest
from shopstream.ingest import (
    ACTIONS,
    CHANNELS,
    DEVICES,
    PAGE_TYPES,
    BadTimestamp,
    BotFilterConfig,
    MAX_SESSION_EVENTS,
    MIN_SESSION_EVENTS,
    MalformedLine,
    RawEvent,
    UnknownEnum,
    UnsortedInput,
    filter_events,
    parse_event_line,
    read_events,
    sessionize,
)

GOOD_LINE = "1570000000000\tC1\tu42\tPC\tDirect\tPageView\thome\t\t\tNL"
HEADER = "timestamp_ms\tclient_token\tcustomer_id\tdevice\tchannel\taction\tpage_type\tquery_text\tprice_cents\tcountry\n"


def _write(path, data: bytes):
    with (gzip.open if str(path).endswith(".gz") else open)(path, "wb") as fh:
        fh.write(data)


def test_parse_full_line():
    e = parse_event_line(GOOD_LINE, 1)
    assert e.timestamp == 1570000000000
    assert e.client_token == "C1"
    assert e.customer_id == "u42"
    assert (e.device, e.channel, e.action, e.page_type) == ("PC", "Direct", "PageView", "home")
    assert e.query_text is None and e.price is None
    assert e.country == "NL"


def test_parse_empty_customer_is_anonymous():
    line = GOOD_LINE.replace("\tu42\t", "\t\t")
    assert parse_event_line(line, 1).customer_id is None


def test_parse_bad_timestamp():
    line = GOOD_LINE.replace("1570000000000", "abc")
    with pytest.raises(BadTimestamp) as err:
        parse_event_line(line, 7)
    assert err.value.line_no == 7


def test_parse_negative_timestamp():
    with pytest.raises(BadTimestamp):
        parse_event_line(GOOD_LINE.replace("1570000000000", "-5"), 1)


@pytest.mark.parametrize("raw", ["1_570_000_000_000", "+1570000000000", "١٥٧٠",
                                 "1570000000000²", "--5", "-", "1 570"])
def test_parse_timestamp_only_ascii_digits(raw):
    with pytest.raises(BadTimestamp) as err:
        parse_event_line(GOOD_LINE.replace("1570000000000", raw, 1), 4)
    assert "non-integer" in str(err.value) and err.value.line_no == 4


def test_parse_padded_timestamp_and_price():
    line = " 1570000000000 \tC1\t\tTablet\tPaid\tQuery\tsearch\tshoes\t 1999 \tDE"
    e = parse_event_line(line, 1)
    assert e.timestamp == 1570000000000 and e.price == 1999


@pytest.mark.parametrize("raw", ["1_000", "+1000", "-1000", "١٥٧٠", "10²"])
def test_parse_price_only_ascii_digits(raw):
    line = f"1570000000000\tC1\t\tTablet\tPaid\tQuery\tsearch\tshoes\t{raw}\tDE"
    with pytest.raises(MalformedLine) as err:
        parse_event_line(line, 5)
    assert "bad price" in str(err.value) and err.value.line_no == 5


@pytest.mark.parametrize("column, raw, expected", [
    (0, " 123", 123), (0, "0123", 123), (0, "-0", 0),
    (0, "+1", (BadTimestamp, "non-integer timestamp '+1'")),
    (0, "-5", (BadTimestamp, "negative timestamp -5")),
    (0, "١٢٣", (BadTimestamp, "non-integer timestamp '١٢٣'")),
    (0, "", (BadTimestamp, "non-integer timestamp ''")),
    (8, " 5 ", 5),
    (8, "5_0", (MalformedLine, "bad price '5_0'")),
])
def test_parse_number_results_and_errors(column, raw, expected):
    """The all-digit fast path leaves every other spelling's result or error as it was."""
    cols = GOOD_LINE.split("\t")
    cols[column] = raw
    line = "\t".join(cols)
    if isinstance(expected, int):
        e = parse_event_line(line, 4)
        assert (e.timestamp if column == 0 else e.price) == expected
    else:
        error, message = expected
        with pytest.raises(error) as err:
            parse_event_line(line, 4)
        assert str(err.value) == f"line 4: {message}"


def test_raw_event_is_an_immutable_hashable_record():
    e = RawEvent(1, "c", None, "PC", "Direct", "PageView", "home")
    with pytest.raises(AttributeError):
        e.timestamp = 2
    assert repr(e) == ("RawEvent(timestamp=1, client_token='c', customer_id=None, device='PC', "
                       "channel='Direct', action='PageView', page_type='home', query_text=None, "
                       "price=None, country='')")
    assert hash(e) == hash(RawEvent(1, "c", None, "PC", "Direct", "PageView", "home"))
    (s,) = sessionize([e, RawEvent(2, "c", None, "PC", "Direct", "Purchase", "checkout")])
    assert hash(s) == hash(sessionize(list(events_of(s)))[0])


def test_read_events_share_strings(tmp_path):
    path = tmp_path / "events.tsv"
    path.write_text((GOOD_LINE + "\n") * 2)
    a, b = read_events(path)
    for field in ("client_token", "customer_id", "device", "channel", "action", "page_type", "country"):
        assert getattr(a, field) is getattr(b, field), field


@pytest.mark.parametrize("name", ["events.tsv", "events.tsv.gz"])
def test_read_events_not_utf8_names_its_line(tmp_path, name):
    # past the text reader's first chunk, so some events are parsed before it fails
    data = ((GOOD_LINE + "\n") * 500).encode() + b"\xff\n"
    path = tmp_path / name
    with (gzip.open if name.endswith(".gz") else open)(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(MalformedLine) as err:
        list(read_events(path))
    assert err.value.line_no == 501 and "utf-8" in str(err.value)


@pytest.mark.parametrize("name", ["events.tsv", "events.tsv.gz"])
def test_read_events_drops_a_byte_order_mark(tmp_path, name):
    """After a UTF-8 BOM, a header line 1 is skipped and any other line 1 is
    an event; the BOM moves no line number."""
    path = tmp_path / name
    for body, n_events in ((HEADER + GOOD_LINE + "\n", 1), ((GOOD_LINE + "\n") * 2, 2)):
        _write(path, codecs.BOM_UTF8 + body.encode())
        assert list(read_events(path)) == [parse_event_line(GOOD_LINE)] * n_events
    _write(path, codecs.BOM_UTF8 + ((GOOD_LINE + "\n") * 500).encode() + b"\xff\n")
    with pytest.raises(MalformedLine) as err:
        list(read_events(path))
    assert err.value.line_no == 501


def test_parse_wrong_column_count():
    with pytest.raises(MalformedLine):
        parse_event_line("a\tb\tc", 3)


def test_parse_unknown_enum():
    with pytest.raises(UnknownEnum):
        parse_event_line(GOOD_LINE.replace("\tPC\t", "\tFridge\t"), 2)


def test_parse_case_insensitive_enums():
    line = GOOD_LINE.replace("PC", "pc").replace("Direct", "DIRECT").replace("PageView", "pageview")
    e = parse_event_line(line, 1)
    assert (e.device, e.channel, e.action) == ("PC", "Direct", "PageView")


@pytest.mark.parametrize("what, names, lookup", [
    ("device", DEVICES, ingest._DEVICE_LOOKUP),
    ("channel", CHANNELS, ingest._CHANNEL_LOOKUP),
    ("action", ACTIONS, ingest._ACTION_LOOKUP),
    ("page_type", PAGE_TYPES, ingest._PAGE_LOOKUP),
])
def test_decode_enum_every_spelling(what, names, lookup):
    for name in names:
        for spelling in (name, name.lower(), name.upper(), f" {name} ", f"\t{name.lower()}\r"):
            assert ingest._decode_enum(spelling, lookup, what, 1) == name
    with pytest.raises(UnknownEnum):
        ingest._decode_enum(names[0] + "x", lookup, what, 1)


def test_parse_query_and_price_fields():
    line = "1570000000000\tC1\t\tTablet\tPaid\tQuery\tsearch\tshoes\t1999\tDE"
    e = parse_event_line(line, 1)
    assert e.query_text == "shoes" and e.price == 1999 and e.customer_id is None


@pytest.mark.parametrize("raw", ["+1570000000000", "1_570000000000", "abc"])
def test_read_events_line_1_is_parsed_unless_a_header(tmp_path, raw):
    path = tmp_path / "events.tsv"
    path.write_text(GOOD_LINE.replace("1570000000000", raw, 1) + "\n" + GOOD_LINE + "\n")
    with pytest.raises(BadTimestamp) as err:
        list(read_events(path))
    assert err.value.line_no == 1


def test_read_events_header_and_gzip(tmp_path):
    body = "timestamp_ms\tclient_token\tcustomer_id\tdevice\tchannel\taction\tpage_type\tquery_text\tprice_cents\tcountry\n"
    body += GOOD_LINE + "\n"
    plain = tmp_path / "events.tsv"
    plain.write_text(body)
    assert len(list(read_events(plain))) == 1

    zipped = tmp_path / "events.tsv.gz"
    with gzip.open(zipped, "wt") as fh:
        fh.write(body)
    assert len(list(read_events(zipped))) == 1


def test_filter_drops_disallowed_country():
    cfg = BotFilterConfig(allowed_countries=frozenset({"NL", "DE", "BE"}))
    kept, dropped = filter_events([mk_event(0, country="US")], cfg)
    assert kept == [] and dropped == 1


def test_filter_keeps_allowed_device():
    cfg = BotFilterConfig(allowed_devices=frozenset({"TV"}))
    kept, dropped = filter_events([mk_event(0, device="TV")], cfg)
    assert len(kept) == 1 and dropped == 0


def test_filter_mixed_stream_order_preserved():
    rng = np.random.default_rng(5)
    events = []
    for i in range(10):
        country = "US" if i in (1, 4, 7) else "NL"
        events.append(mk_event(i * 1000, token=f"T{i}", country=country))
    cfg = BotFilterConfig()
    kept, dropped = filter_events(events, cfg)
    expected = [e for e in events if e.country in cfg.allowed_countries]
    assert kept == expected and dropped == 3
    # idempotent
    again, dropped2 = filter_events(kept, cfg)
    assert again == kept and dropped2 == 0


def test_sessionize_splits_on_gap():
    events = [mk_event(0), mk_event(10 * MINUTE), mk_event(45 * MINUTE), mk_event(46 * MINUTE)]
    sessions = sessionize(events)
    assert [len(events_of(s)) for s in sessions] == [2, 2]


def test_sessionize_keeps_boundary_gap():
    # 29- and 30-minute gaps both stay in one session: "more than 30" is strict
    events = [mk_event(0), mk_event(29 * MINUTE), mk_event(58 * MINUTE)]
    assert len(sessionize(events)) == 1
    events = [mk_event(0), mk_event(IDLE_MS)]
    assert len(sessionize(events)) == 1
    # two-event runs on each side of the gap, so both clear the 2-event minimum
    events = [mk_event(0), mk_event(1000), mk_event(IDLE_MS + 1001), mk_event(IDLE_MS + 2001)]
    assert len(sessionize(events)) == 2


def test_sessionize_late_login_assigns_customer():
    events = [mk_event(i * 1000) for i in range(3)]
    events.append(mk_event(3000, customer="u7"))
    (session,) = sessionize(events)
    assert session.customer_id == "u7"
    assert len(events_of(session)) == 4


def test_sessionize_releases_its_events():
    """No RawEvent outlives sessionize: the list it is given is emptied, and
    every session holds columns of plain values, not events."""
    events = random_event_stream(np.random.default_rng(5), max_events=200)
    sessions = sessionize(events)
    assert sessions and events == []
    for s in sessions:
        for field in fields(s):
            value = getattr(s, field.name)
            assert not isinstance(value, RawEvent), field.name
            if isinstance(value, tuple):
                assert not any(isinstance(v, RawEvent) for v in value), field.name


def test_sessionize_purchase_label():
    events = [mk_event(0), mk_event(1000, action="Purchase", page="checkout")]
    (session,) = sessionize(events)
    assert session.purchase


def test_sessionize_length_filter():
    events = [mk_event(0)]
    assert sessionize(events) == []  # a single event is below MIN_SESSION_EVENTS
    longest = [mk_event(i * 1000) for i in range(2001)]
    assert len(sessionize(longest[:2000])) == 1  # the bounds are 2..2,000 events
    assert sessionize(longest) == []


def test_sessionize_unsorted_raises():
    events = [mk_event(5000), mk_event(1000)]
    with pytest.raises(UnsortedInput):
        sessionize(events)


def test_sessionize_interleaved_clients():
    events = [
        mk_event(0, token="A"),
        mk_event(500, token="B"),
        mk_event(1000, token="A"),
        mk_event(1500, token="B"),
    ]
    sessions = sessionize(events)
    assert sorted(s.client_token for s in sessions) == ["A", "B"]


def test_sessionize_matches_brute_force_on_random_streams():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        events = random_event_stream(rng, max_events=120)
        got = session_signatures(sessionize(list(events)))  # sessionize empties its list
        want = brute_force_sessionize(events)
        assert got == want


def test_sessionize_is_partition():
    """The unbounded runs partition the events, and sessionize keeps exactly
    those within the session bound."""
    rng = np.random.default_rng(99)
    events = random_event_stream(rng, max_events=300)
    runs = brute_force_sessionize(events, min_events=1, max_events=10**9)
    flat = sorted((token, ts) for token, _, stamps, _, _ in runs for ts in stamps)
    original = sorted(((e.client_token, e.timestamp) for e in events))
    assert flat == original
    bounded = {r for r in runs if MIN_SESSION_EVENTS <= len(r[2]) <= MAX_SESSION_EVENTS}
    assert bounded != runs  # the stream has runs outside the bound
    assert session_signatures(sessionize(events)) == bounded
