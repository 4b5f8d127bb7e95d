"""Golden corpus path: generate -> ingest -> analyze through the CLI at 60
customers, seed 7, must reproduce these exact bytes. A speed-up of the
generator, the TSV reader, sessions.jsonl or the analytics that moves any
byte changes a digest; update them only for an intended change of
behaviour, and say so.
"""

import hashlib

from shopstream.cli import ANALYZE_OUTPUTS, main

SHA256 = {
    # also perfbench/workloads.json's smoke reference for the corpus workload
    "gen/events.tsv": "38ebcbf40fbfeebf5e96ce1402129d6c5f2d023967f668e08792e83f44885d34",
    "gen/truth.jsonl": "e5da5c3d2354ff1848a2e57d94853036e4c0f12d33cc80377b6785dbac63ff72",
    "ing/sessions.jsonl": "51dcb461c165c58d2ebaaf419be96e6926b1b0c97fc84e3b5dccb0a7a036f438",
    "an/ccdf.csv": "54b8b3aac8ffb880cf1d8a3212cf2237c03edd55a4217e2ede9a20eeb71c627e",
    "an/weekday.csv": "741f589322f7fdcaa504cbbf9c9978ca0a34b98a2fc9e8a7c3221cf9dc88c624",
    "an/hour.csv": "ba2d98b3d8691ae3d59fe7c601bd23ecae9ecbe33eb648a63534bca402b4fb56",
    "an/channels.csv": "8b5825554dcbabfd13dc17dc4348a0aac37ca56671ae2694e9308c45a7d936ea",
    "an/devices.csv": "d2a68628099d32ae9327d017d37e1baf364cf679ab1bf7484efd65e897b01c94",
    "an/ownership.csv": "5453a45485bd6ceca438ea479a6e2e1cb5804439c80d19e8a9381e326ebd1d9f",
    "an/transitions.csv": "1cc4c1dfeca98aae6bf7adad540365cb8c9d156fb9749a7bcd01d39ce59182ef",
    "an/queries.csv": "fd1b339bdecf38094838a81ea5d2cc063be847240ee39cfeac4dbd0b39d6cd6d",
    "an/report.json": "d588e779c5266b533a0a8ba265f8f5ce6426b5a893adf77ae40151825dee296f",
}


def test_corpus_outputs_are_byte_identical(tmp_path):
    assert {name for name in SHA256 if name.startswith("an/")} == {f"an/{n}" for n in ANALYZE_OUTPUTS}
    assert main(["generate", "--set", "n_customers=60", "--seed", "7", "--out", str(tmp_path / "gen")]) == 0
    assert main(["ingest", str(tmp_path / "gen" / "events.tsv"), "--out", str(tmp_path / "ing")]) == 0
    assert main(["analyze", str(tmp_path / "ing" / "sessions.jsonl"), "--out", str(tmp_path / "an")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SHA256}
    assert got == SHA256
