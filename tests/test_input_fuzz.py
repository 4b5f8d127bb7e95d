"""Seeded fuzzing of the two input formats.

Lines of a generated events.tsv and records of the sessions.jsonl that
ingest writes from it are mutated one at a time; reading the mutated file
must raise an IngestError subclass that names the mutated line, and nothing
else.
"""

import json

import numpy as np
import pytest

from shopstream.cli import main
from shopstream.ingest import IngestError, MalformedLine, read_events
from shopstream.sessions import read_sessions, session_from_json, session_to_json
from shopstream.synthgen import GenConfig, generate

N_MUTATIONS = 10  # per mutation kind and seed


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(events.tsv lines, sessions.jsonl lines) of a 40-customer corpus."""
    root = tmp_path_factory.mktemp("corpus")
    generate(GenConfig(seed=7, n_customers=40), root / "gen")
    assert main(["ingest", str(root / "gen" / "events.tsv"), "--out", str(root / "ing")]) == 0
    events = (root / "gen" / "events.tsv").read_text(encoding="utf-8").splitlines()
    sessions = (root / "ing" / "sessions.jsonl").read_text(encoding="utf-8").splitlines()
    return events, sessions


def _tsv_mutations(rng):
    """Mutations of one events.tsv line, given as its list of 10 columns."""

    def drop_column(cols):
        del cols[rng.integers(len(cols))]

    def add_column(cols):
        cols.insert(rng.integers(len(cols) + 1), "extra")

    def non_integer_timestamp(cols):
        cols[0] = str(rng.choice(["abc", "1.5", "", "12x", "1e12"]))

    def negative_timestamp(cols):
        cols[0] = "-" + cols[0]

    def unknown_enum(cols):
        cols[rng.integers(3, 7)] = "Bogus"

    def bad_price(cols):
        cols[8] = str(rng.choice(["abc", "12.5", "1e3", "--1"]))

    def not_ascii_digits(cols):
        # int() takes all of these; the timestamp or the price must not
        col = (0, 8)[rng.integers(2)]
        digits = cols[col] or "1999"
        cols[col] = [digits[:1] + "_" + digits[1:], "+" + digits,
                     digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))][rng.integers(3)]

    return [drop_column, add_column, non_integer_timestamp, negative_timestamp,
            unknown_enum, bad_price, not_ascii_digits]


def _jsonl_mutations(rng):
    """Mutations of one sessions.jsonl line, given as its text."""

    def edit(change):
        def mutate(line):
            record = json.loads(line)
            change(record, record["events"][rng.integers(len(record["events"]))])
            return json.dumps(record)

        return mutate

    def truncated(line):
        return line[: rng.integers(1, len(line))]

    def drop_key(record, event):
        keys = ["session_id", "client_token", "customer_id", "device", "channel",
                "start_ms", "purchase", "events"]
        del record[keys[rng.integers(len(keys))]]

    def drop_event_field(record, event):
        del event[rng.integers(len(event))]

    def add_event_field(record, event):
        event.append(None)

    def non_integer_timestamp(record, event):
        event[0] = [str(event[0]), event[0] + 0.5, True, None][rng.integers(4)]

    def unknown_enum(record, event):
        target = rng.integers(4)
        if target < 2:
            record[("device", "channel")[target]] = "Bogus"
        else:
            event[target - 1] = "Bogus"

    def bad_price(record, event):
        event[4] = ["12", 12.5, True, [1]][rng.integers(4)]

    def wrong_type(record, event):
        changes = [
            (record, "session_id", 5), (record, "client_token", None),
            (record, "customer_id", 5), (record, "start_ms", "x"), (record, "start_ms", 1.0),
            (record, "purchase", "yes"), (record, "purchase", 1), (record, "country", 5),
            (event, 3, 5), (event, 3, ["q"]),  # the query
        ]
        where, key, value = changes[rng.integers(len(changes))]
        where[key] = value

    def flip_purchase(record, event):
        record["purchase"] = not record["purchase"]

    def out_of_order(record, event):
        # events keep at least two entries, as ingest writes them
        events = record["events"]
        case = rng.integers(3)
        if case == 0:
            record["start_ms"] = events[0][0] = -1 - int(rng.integers(1000))
        elif case == 1:
            record["start_ms"] = events[0][0] + (-1, 1)[rng.integers(2)]
        else:
            i = int(rng.integers(1, len(events)))
            events[i][0] = events[i - 1][0] - 1 - int(rng.integers(1000))

    return [truncated] + [edit(f) for f in (drop_key, drop_event_field, add_event_field,
                                            non_integer_timestamp, unknown_enum, bad_price,
                                            wrong_type, flip_purchase, out_of_order)]


def _raises_on_line(read, path, lines, index, mutated):
    bad = lines[:index] + [mutated] + lines[index + 1:]
    path.write_text("\n".join(bad) + "\n", encoding="utf-8")
    with pytest.raises(IngestError) as err:
        read(path)
    assert err.value.line_no == index + 1, mutated


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutated_inputs_raise_only_ingest_errors(corpus, tmp_path, seed):
    events, sessions = corpus
    rng = np.random.default_rng(seed)
    tsv, jsonl = tmp_path / "events.tsv", tmp_path / "sessions.jsonl"
    for mutate in _tsv_mutations(rng):
        for _ in range(N_MUTATIONS):
            index = int(rng.integers(len(events)))
            cols = events[index].split("\t")
            mutate(cols)
            _raises_on_line(lambda p: list(read_events(p)), tsv, events, index, "\t".join(cols))
    for mutate in _jsonl_mutations(rng):
        for _ in range(N_MUTATIONS):
            index = int(rng.integers(len(sessions)))
            _raises_on_line(read_sessions, jsonl, sessions, index, mutate(sessions[index]))


# records whose events all share one wrong shape, and a ragged one that a
# transpose without a length check would truncate to five fields
_EVENT_SHAPES = {
    "four_fields": lambda events: [e[:4] for e in events],
    "six_fields": lambda events: [e + [None] for e in events],
    "one_six_fields": lambda events: [events[0] + [None], *events[1:]],
    "number_event": lambda events: [5, *events[1:]],
    "string_events": lambda events: ["abcde"] * len(events),
    "string_event": lambda events: [*events[:-1], "abcde"],
    "object_events": lambda events: [dict(zip("abcde", e)) for e in events],
}


@pytest.mark.parametrize("shape", sorted(_EVENT_SHAPES))
def test_events_of_the_wrong_shape_name_their_line(corpus, tmp_path, shape):
    _, sessions = corpus
    index = len(sessions) // 2
    record = json.loads(sessions[index])
    record["events"] = _EVENT_SHAPES[shape](record["events"])
    path = tmp_path / "sessions.jsonl"
    path.write_text("\n".join(sessions[:index] + [json.dumps(record)] + sessions[index + 1:]) + "\n")
    with pytest.raises(MalformedLine) as err:
        read_sessions(path)
    assert err.value.line_no == index + 1


def test_session_json_round_trip(corpus):
    _, sessions = corpus
    records = [json.loads(line) for line in sessions]
    # the corpus exercises both branches of every nullable field
    events = [e for r in records for e in r["events"]]
    assert {r["customer_id"] is None for r in records} == {True, False}
    assert {e[3] is None for e in events} == {True, False}
    assert {e[4] is None for e in events} == {True, False}
    for line in sessions:
        assert session_to_json(session_from_json(line)) == line
