import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import shopstream
from shopstream.cli import main
from shopstream.evaluation import ProtocolConfig
from shopstream.ingest import BotFilterConfig
from shopstream.models import TrainConfig
from shopstream.sessions import read_sessions
from shopstream.synthgen import GenConfig


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


GEN_CONFIG = """
# compact generator setup for CLI runs
n_customers = 250
seed = 4
purchase_length_mean = 9
nonpurchase_length_mean = 7
min_session_length = 7
purchaser_share = 0.5
purchase_rate = 0.5
"""


@pytest.fixture()
def gen_dir(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CONFIG)
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_generate_writes_log_and_manifest(gen_dir):
    assert (gen_dir / "events.tsv").exists()
    assert (gen_dir / "truth.jsonl").exists()
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "generate"
    assert manifest["outputs"]["n_sessions"] > 0


def test_generate_same_seed_identical(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CONFIG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(b)]) == 0
    assert _sha(a / "events.tsv") == _sha(b / "events.tsv")


def test_generate_invalid_mix_exit_2(tmp_path, capsys):
    out = tmp_path / "x"
    code = main([
        "generate", "--set", 'purchase_channel_mix={"Direct": 0.5, "Paid": 0.4}',
        "--out", str(out),
    ])
    assert code == 2
    assert "purchase_channel_mix" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    'purchase_page_chain={"home": {"home": 1.0}}',  # a row for every page type
    'device_transitions={"PC": {"PC": 1.0}}',  # a row for every device
    "purchase_weekdays=[0.5, 0.5]",  # one entry per day, Mon..Sun
    "min_session_length=3000",  # above the ingest filter's 2,000 events
    'purchase_weekdays=["a","b","c","d","e","f","g"]',  # entries are numbers
    'purchase_channel_mix={"Direct":"x"}',
    'purchase_query_rates={"PC":"x"}',
    'purchase_query_rates={"Phablet":9}',  # rates are per known device
    "mean_sessions=-1",  # ranges
    "purchase_length_mean=-5",
    "length_dispersion=0",
    "length_dispersion=1e20",  # every session would get min_session_length events
    "dwell_sigma=-1",
    "purchase_dwell_mu=NaN",
    "seed=-1",
])
def test_generate_config_shape_exit_2(tmp_path, capsys, setting):
    out = tmp_path / "x"
    assert main(["generate", "--set", "n_customers=3", "--set", setting, "--out", str(out)]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


def test_settable_keys():
    """Every key that --config and --set accept, per subcommand. Adding a
    setting means adding it here."""
    def keys(cls, fixed=()):
        return {f.name for f in fields(cls)} - set(fixed)

    generate = keys(GenConfig)
    assert generate == {
        "seed", "n_customers", "anonymous_share", "purchaser_share", "purchase_rate",
        "mean_sessions", "purchase_length_mean", "nonpurchase_length_mean",
        "length_dispersion", "min_session_length", "purchase_channel_mix",
        "nonpurchase_channel_mix", "purchase_weekdays", "nonpurchase_weekdays",
        "device_transitions", "purchase_query_rates", "nonpurchase_query_rates",
        "purchase_page_chain", "nonpurchase_page_chain", "purchase_dwell_mu",
        "dwell_sigma", "dwell_pace_gap", "pace_rate_purchase", "pace_rate_nonpurchase",
        "history_seed_sessions",
    }
    ingest = keys(BotFilterConfig)
    assert ingest == {"allowed_countries", "allowed_devices"}
    # the protocol sets kind and seed per cell; train is set key by key
    evaluate = keys(ProtocolConfig, ["train"]) | keys(TrainConfig, ["kind", "seed"])
    assert evaluate == {
        "steps", "folds", "settings", "variants", "models", "seed",
        "n_trees", "max_depth", "min_samples_leaf", "max_bins", "gbdt_rounds",
        "knn_k", "epochs", "hidden", "mlp_epochs",
    }
    assert (len(generate), len(ingest), len(evaluate)) == (25, 2, 15)


def test_generate_unknown_key_exit_2(tmp_path, capsys):
    assert main(["generate", "--set", "warp_speed=9", "--out", str(tmp_path / "x")]) == 2
    assert "warp_speed" in capsys.readouterr().err


def test_ingest_pipeline(gen_dir, tmp_path):
    out = tmp_path / "ingest"
    assert main(["ingest", str(gen_dir / "events.tsv"), "--out", str(out)]) == 0
    sessions = read_sessions(out / "sessions.jsonl")
    truth = [json.loads(l) for l in open(gen_dir / "truth.jsonl")]
    assert len(sessions) == len(truth)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sessions"] == len(truth)
    assert manifest["anonymous_sessions"] + manifest["identified_sessions"] == len(truth)
    assert manifest["identified_sessions"] == sum(1 for t in truth if t["customer_id"] is not None)


def test_ingest_allowed_countries_override(gen_dir, tmp_path):
    out = tmp_path / "ingest"
    assert main(["ingest", str(gen_dir / "events.tsv"), "--out", str(out),
                 "--set", 'allowed_countries=["XX"]']) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["events_dropped"] == manifest["events_read"] > 0
    assert manifest["sessions"] == 0


@pytest.mark.parametrize("command,setting", [
    ("generate", "n_customerz=30"),
    ("ingest", 'allowed_countrys=["XX"]'),
    ("evaluate", "fold=3"),
    ("evaluate", "kind=bogus"),  # the protocol sets the kind per cell
    ("evaluate", "train={}"),  # training options are set by name
    ("evaluate", "steps=5"),  # values must have the type of the field's default
    ("evaluate", 'folds="3"'),
    ("evaluate", 'models="lr"'),
    ("generate", 'n_customers="30"'),
    ("generate", "n_customers=true"),
    ("ingest", "allowed_countries=NL"),
    ("evaluate", "knn_k=0"),  # training options are range-checked too
    ("evaluate", "knn_k=-3"),
    ("evaluate", "n_trees=0"),
    ("evaluate", "epochs=0"),
    ("evaluate", "gbdt_rate=0"),
    ("evaluate", "l2=-1"),
    ("generate", "late_login_share=0.1"),  # fixed generator targets and constants
    ("generate", "purchase_hours=[1]"),
    ("ingest", 'allowed_devices=["Phablet"]'),  # would drop every event
    ("ingest", "allowed_countries=[5]"),  # so would these: country codes are strings
    ("ingest", "allowed_countries=[]"),
    ("ingest", "allowed_devices=[]"),
    ("evaluate", "seed=-1"),
    ("ingest", "min_session_events=3"),  # the 2..2,000-event session bound is fixed
    ("evaluate", "l2=0.01"),  # so are the models' rates, l2, gbdt depth and split minimum
    ("evaluate", "mlp_rate=0.1"),
    ("evaluate", "buffer=3"),  # the protocol's filter, smoothing and weights are fixed
    ("evaluate", "markov_alpha=0.5"),
    ("evaluate", "class_weighting=false"),
])
def test_unknown_config_key_exit_2(tmp_path, capsys, command, setting):
    # settings are checked before any input is read: the input need not exist
    inputs = [] if command == "generate" else [str(tmp_path / "missing")]
    assert main([command, *inputs, "--set", setting, "--out", str(tmp_path / "out")]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    'steps=["a"]',  # list elements are checked, not only the list type
    "steps=[-1]",
    "steps=[true]",
    "steps=[]",
    "models=[]",
    "settings=[]",
    "variants=[]",
    'models=["lr","lr"]',  # a repeat would fit and report a model twice
    "steps=[1,1]",
    'settings=["anonymous","anonymous"]',
    'variants=["extended","extended"]',
])
def test_malformed_protocol_list_exit_2(tmp_path, capsys, setting):
    out = tmp_path / "out"
    assert main(["evaluate", str(tmp_path / "missing"), "--set", setting, "--out", str(out)]) == 2
    assert setting.split("=")[0] + ":" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_malformed_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("1000\tC1\tPC\n")  # wrong column count
    assert main(["ingest", str(bad), "--out", str(tmp_path / "out")]) == 3
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_non_utf8_input_exit_3(tmp_path, capsys, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\n")
    assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 3
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "analyze", "report"])
def test_non_utf8_input_names_its_line(tmp_path, capsys, command):
    bad = tmp_path / "step_report.csv"
    # a lone CR ends a line for the text reader, so the bad byte is on line 3
    bad.write_bytes(b"first\rsecond\r\nthird \xff\n")
    if command == "report":
        args = ["report", "--out", str(tmp_path)]
    else:
        args = [command, str(bad), "--out", str(tmp_path / "out")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "line 3: not utf-8" in err, err


def test_config_byte_order_mark_is_dropped(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes("\ufeffn_customers = 20\n".encode("utf-8"))
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"n_customers": 20, "seed": 3}


@pytest.mark.parametrize("command", ["generate", "ingest", "evaluate"])
def test_non_utf8_config_names_its_line(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes("seed = 3\n# caf\u00e9\n".encode("latin-1"))
    inputs = [] if command == "generate" else [str(tmp_path / "missing")]
    assert main([command, *inputs, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "line 2: not utf-8" in err, err


def test_ingest_missing_file_exit_3(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "out")]) == 3


@pytest.fixture()
def sessions_file(gen_dir, tmp_path):
    out = tmp_path / "ing"
    assert main(["ingest", str(gen_dir / "events.tsv"), "--out", str(out)]) == 0
    return out / "sessions.jsonl"


def test_analyze_outputs(sessions_file, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", str(sessions_file), "--out", str(out)]) == 0
    for name in ("ccdf.csv", "weekday.csv", "hour.csv", "channels.csv", "devices.csv",
                 "ownership.csv", "transitions.csv", "queries.csv", "report.json",
                 "manifest.json"):
        assert (out / name).exists(), name
    header = open(out / "channels.csv").readline().strip()
    assert header == "label,channel,percent_within_label"


def test_analyze_empty_corpus(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "an"
    assert main(["analyze", str(empty), "--out", str(out)]) == 0
    assert open(out / "ccdf.csv").read() == "device,label,length,tail\n"


def test_analyze_rerun_identical(sessions_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", str(sessions_file), "--out", str(a)]) == 0
    assert main(["analyze", str(sessions_file), "--out", str(b)]) == 0
    for name in ("ccdf.csv", "weekday.csv", "channels.csv", "queries.csv"):
        assert _sha(a / name) == _sha(b / name)


def test_evaluate_and_report(sessions_file, tmp_path, capsys):
    out = tmp_path / "ev"
    code = main([
        "evaluate", str(sessions_file), "--out", str(out), "--seed", "3", "--threads", "1",
        "--set", "steps=[0,1,2]", "--set", 'models=["rf","lr"]', "--set", "folds=3",
        "--set", "n_trees=8", "--set", "max_depth=4", "--set", "epochs=60",
    ])
    assert code == 0
    lines = open(out / "step_report.csv").read().strip().splitlines()
    # settings x variants x steps x models rows
    assert len(lines) == 1 + 2 * 2 * 3 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    # dynamic features are constant at step 0: their rows are exactly zero and
    # static importance carries everything (CSV is rounded to 6 decimals)
    dynamic = {"dwell_mean", "dwell_std", "page_sequence_score", "n_pages", "dwell_count"}
    static_share = 0.0
    for line in open(out / "importance.csv").read().strip().splitlines()[1:]:
        model, setting, step, feature, value = line.split(",")
        if (model, setting, step) != ("rf", "anonymous", "0"):
            continue
        if feature in dynamic:
            assert value == "0.000000"
        else:
            static_share += float(value)
    assert static_share == pytest.approx(1.0, abs=1e-4)
    assert main(["report", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rf" in printed and "anonymous" in printed


def test_evaluate_too_few_sessions_exit_2(tmp_path, sessions_file):
    out = tmp_path / "ev2"
    code = main([
        "evaluate", str(sessions_file), "--out", str(out),
        "--set", "steps=[0,1,2,3,4,5,6,7,8,9,10]", "--set", "folds=10",
    ])
    # corpus has min_session_length 7: nothing passes the 12-page filter
    assert code == 2


def test_evaluate_internal_value_error_exit_4(tmp_path, sessions_file, monkeypatch, capsys):
    """Exit 2 is for the typed usage errors only: a ValueError from inside
    the protocol is an internal error."""
    def broken(sessions):
        raise ValueError("boom")

    monkeypatch.setattr("shopstream.evaluation.build_journeys", broken)
    assert main(["evaluate", str(sessions_file), "--out", str(tmp_path / "ev")]) == 4
    assert "internal error: ValueError: boom" in capsys.readouterr().err


def test_report_missing_dir_exit_3(tmp_path):
    assert main(["report", "--out", str(tmp_path / "void")]) == 3


def _evaluate_small(sessions_file, out, threads):
    return main([
        "evaluate", str(sessions_file), "--out", str(out), "--seed", "3", "--threads", threads,
        "--set", "steps=[0,2]", "--set", 'models=["rf","knn"]', "--set", "folds=3",
        "--set", "n_trees=4", "--set", "max_depth=4",
    ])


def test_evaluate_threads_do_not_change_results(sessions_file, tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t2"
    assert _evaluate_small(sessions_file, a, "1") == 0
    assert _evaluate_small(sessions_file, b, "2") == 0
    for name in ("step_report.csv", "importance.csv"):
        assert _sha(a / name) == _sha(b / name), name
    assert json.loads((b / "manifest.json").read_text())["threads"] == 2


@pytest.mark.parametrize("command,setting", [
    ("generate", "dwell_sigma=-1"),
    ("ingest", 'allowed_devices=["Phablet"]'),
    ("evaluate", "folds=1"),
])
def test_bad_setting_leaves_earlier_run(gen_dir, sessions_file, tmp_path, command, setting):
    """A usage error is raised before --out is touched: the files of an
    earlier run there are byte-identical afterwards."""
    if command == "generate":
        out, inputs = gen_dir, []
    elif command == "ingest":
        out, inputs = sessions_file.parent, [str(gen_dir / "events.tsv")]
    else:
        out, inputs = tmp_path / "ev", [str(sessions_file)]
        assert _evaluate_small(sessions_file, out, "1") == 0
    before = {p.name: _sha(p) for p in out.iterdir()}
    assert "manifest.json" in before
    assert main([command, *inputs, "--set", setting, "--out", str(out)]) == 2
    assert {p.name: _sha(p) for p in out.iterdir()} == before


# a record field set to a value of another JSON type than the writer's
_WRONG_TYPES = {
    "string_start": ("start_ms", "x"),
    "string_purchase": ("purchase", "yes"),
    "int_customer": ("customer_id", 5),
}


def _bad_sessions(sessions_file, tmp_path, case):
    first, second = open(sessions_file).read().splitlines()[:2]
    if case == "truncated":
        second = second[: len(second) // 2]
    elif case == "not_an_object":
        second = "[1, 2]"
    elif case == "missing_events":
        record = json.loads(second)
        del record["events"]
        second = json.dumps(record)
    elif case == "empty_events":
        record = json.loads(second)
        record["events"] = []
        second = json.dumps(record)
    elif case == "unknown_device":
        second = second.replace(f'"device":"{json.loads(second)["device"]}"', '"device":"Fridge"')
    elif case == "unknown_action":
        second = second.replace('"PageView"', '"Teleport"', 1)
    elif case == "string_timestamp":
        record = json.loads(second)
        record["events"][0][0] = str(record["events"][0][0])
        second = json.dumps(record)
    elif case in ("negative_start", "start_not_first_event", "decreasing_timestamps"):
        record = json.loads(second)
        stamps = [e[0] for e in record["events"]]
        if case == "negative_start":
            record["start_ms"] = record["events"][0][0] = -5
        elif case == "start_not_first_event":
            record["start_ms"] = stamps[0] - 1
        else:
            record["events"][-1][0] = stamps[-2] - 1
        second = json.dumps(record)
    elif case in ("purchase_without_event", "event_without_purchase"):
        record = json.loads(second)
        for event in record["events"]:
            if event[1] == "Purchase":
                event[1] = "AddToBasket"
        if case == "event_without_purchase":
            record["events"][-1][1] = "Purchase"
        record["purchase"] = case == "purchase_without_event"
        second = json.dumps(record)
    elif case in _WRONG_TYPES:
        record = json.loads(second)
        key, value = _WRONG_TYPES[case]
        record[key] = value
        second = json.dumps(record)
    bad = tmp_path / f"{case}.jsonl"
    bad.write_text(first + "\n" + second + "\n")
    return bad


@pytest.mark.parametrize("case", ["truncated", "missing_events", "not_an_object",
                                  "empty_events", "unknown_device", "unknown_action",
                                  "string_timestamp", "negative_start", "start_not_first_event",
                                  "decreasing_timestamps", "purchase_without_event",
                                  "event_without_purchase", *_WRONG_TYPES])
@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_bad_sessions_record_exit_3_with_line(sessions_file, tmp_path, capsys, command, case):
    bad = _bad_sessions(sessions_file, tmp_path, case)
    assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_failed_rerun_leaves_no_stale_manifest(sessions_file, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", str(sessions_file), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    bad = _bad_sessions(sessions_file, tmp_path, "truncated")
    assert main(["analyze", str(bad), "--out", str(out)]) == 3
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.csv")) and not (out / "report.json").exists()


@pytest.mark.parametrize("row", [
    "lr,anonymous,baseline,1,abc,0.010000,0.200000,0.300000",  # f1_mean does not parse
    "lr,anonymous,baseline,1",  # short row
])
def test_report_malformed_row_exit_3_with_line(tmp_path, capsys, row):
    out = tmp_path / "ev"
    out.mkdir()
    (out / "step_report.csv").write_text(
        "model,setting,variant,step,f1_mean,f1_std,precision,recall\n"
        "lr,anonymous,baseline,0,0.250000,0.010000,0.200000,0.300000\n"
        f"{row}\n"
    )
    assert main(["report", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "line 3" in captured.err
    assert captured.out == ""


def test_report_best_step_skips_failed_steps(tmp_path, capsys):
    out = tmp_path / "ev"
    out.mkdir()
    (out / "step_report.csv").write_text(
        "model,setting,variant,step,f1_mean,f1_std,precision,recall\n"
        "lr,anonymous,baseline,0,nan,nan,nan,nan\n"
        "lr,anonymous,baseline,1,0.250000,0.010000,0.200000,0.300000\n"
        "lr,anonymous,baseline,2,0.500000,0.010000,0.400000,0.600000\n"
    )
    assert main(["report", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "0.3750" in printed  # mean over the finite steps only
    assert "0.5000 @ step 2" in printed
    assert "nan" not in printed


NUMPY_BACKED = ("numpy", "shopstream.synthgen", "shopstream.evaluation", "shopstream.features",
                "shopstream.markov", "shopstream.models")
# the names a caller may wrap on shopstream.cli; the commands call through them
CLI_CALL_SITES = (
    "generate", "read_events", "filter_events", "sessionize", "write_sessions", "read_sessions",
    "build_journeys", "transition_matrix", "run_protocol", "session_length_ccdf",
    "temporal_profile", "channel_mix", "conversion_rates", "device_ownership", "query_stats",
    "cmd_generate", "cmd_ingest", "cmd_analyze", "cmd_evaluate", "cmd_report",
)
IMPORT_PROBE = """
import json, sys
from shopstream import cli
backed, names, runs = json.loads(sys.argv[1])
loaded = {"import": [m for m in backed if m in sys.modules]}
for argv in runs:
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = [m for m in backed if m in sys.modules]
missing = [n for n in names if not callable(getattr(cli, n, None))]
print(json.dumps({"loaded": loaded, "missing": missing}))
"""


def test_ingest_and_analyze_never_load_numpy(tmp_path):
    """The CLI starts on the standard library and the pure-Python modules;
    ingest and analyze run without numpy or the model stack."""
    rows = [(0, "PC", "PageView", "home"), (1000, "PC", "PageView", "search"),
            (10**8, "Smartphone", "PageView", "product"), (10**8 + 1000, "Smartphone", "Purchase", "checkout")]
    (tmp_path / "events.tsv").write_text("".join(
        f"{ts}\tC1\tu1\t{device}\tDirect\t{action}\t{page}\t\t\tNL\n" for ts, device, action, page in rows))
    runs = [["ingest", str(tmp_path / "events.tsv"), "--out", str(tmp_path / "ingest")],
            ["analyze", str(tmp_path / "ingest" / "sessions.jsonl"), "--out", str(tmp_path / "analytics")]]
    src = str(Path(shopstream.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps([NUMPY_BACKED, CLI_CALL_SITES, runs])],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"loaded": {"import": [], "ingest": [], "analyze": []}, "missing": []}
    transitions = (tmp_path / "analytics" / "transitions.csv").read_text().splitlines()
    assert "PC,Smartphone,1.0000,1" in transitions
