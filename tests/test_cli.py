import hashlib
import json
import struct
import time
from dataclasses import fields

import numpy as np
import pytest

from siamsketch import experiment
from siamsketch.cli import HYPER_TABLE_MAX, build_parser, main
from siamsketch.traffic import MAX_ATTACK_PACKETS, Trace, plan_attack, read_trace, write_trace

def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.sktr"
    b = tmp_path / "b.sktr"
    args = ["generate", "--zipf", "1.0", "--flows", "5000",
            "--packets", "200000", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _sha256(a) == _sha256(b)
    trace = read_trace(a)
    assert len(trace) == 200_000


def test_generate_golden_digest(tmp_path):
    # frozen on first run; byte-identical streams for a fixed seed
    out = tmp_path / "g.sktr"
    assert main(["generate", "--zipf", "1.0", "--flows", "1000",
                 "--packets", "50000", "--seed", "7", "--out", str(out)]) == 0
    assert _sha256(out) == (
        "6d56db131db9cde26a660b2230761cae56bd5f16d2de0fedc3fd886afe9e4cd0"
    )


def test_generate_zero_skew(tmp_path):
    out = tmp_path / "u.sktr"
    assert main(["generate", "--zipf", "0", "--flows", "64",
                 "--packets", "6400", "--seed", "1", "--out", str(out)]) == 0
    keys = read_trace(out).as_u64()
    _, counts = np.unique(keys, return_counts=True)
    assert len(counts) == 64
    assert counts.std() < 3 * np.sqrt(100)


def test_generate_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--zipf", "1.0", "--flows", "10", "--packets", "10"])
    assert err.value.code == 2


def test_generate_negative_seed_names_the_field(tmp_path, capsys):
    # refused by ZipfConfig, not by numpy's "expected non-negative integer"
    out = tmp_path / "n.sktr"
    assert main(["generate", "--zipf", "1.0", "--flows", "10", "--packets", "10",
                 "--seed", "-1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments" and "seed" in err["detail"]
    assert not out.exists()


def test_attack_negative_seed_names_the_field(tmp_path, capsys):
    # refused by gen_attack, not by numpy's "expected non-negative integer"
    out = tmp_path / "a.sktr"
    assert main(["attack", "--width", "4096", "--fraction", "0.5",
                 "--seed", "-1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments" and "seed" in err["detail"]
    assert not out.exists()


def test_attack_sizing(tmp_path, capsys):
    out = tmp_path / "atk.sktr"
    assert main(["attack", "--width", "1024", "--fraction", "1.0",
                 "--seed", "3", "--out", str(out)]) == 0
    trace = read_trace(out)
    flows = len(np.unique(trace.as_u64()))
    # full coverage costs about w * H(w) flows
    from siamsketch import coupon_expect
    assert flows == int(np.ceil(coupon_expect(1024, 1024)))
    assert len(trace) == flows * 256


def test_attack_fraction_zero_is_empty(tmp_path):
    out = tmp_path / "none.sktr"
    assert main(["attack", "--width", "512", "--fraction", "0",
                 "--out", str(out)]) == 0
    assert len(read_trace(out)) == 0


def test_theory_coupon(capsys):
    assert main(["theory", "coupon", "--width", "155000", "--fraction", "0.5"]) == 0
    out = capsys.readouterr().out
    expected = float(out.split("expected_flows=")[1])
    assert 1.07e5 <= expected <= 1.09e5
    assert main(["theory", "coupon", "--width", "1", "--fraction", "1"]) == 0
    assert float(capsys.readouterr().out.split("expected_flows=")[1]) == 1.0


def test_theory_hyper(capsys):
    assert main(["theory", "hyper", "--s1", "2", "--s2", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "P(X1=0) = 0.166666666667" in out
    assert "P(X1=1) = 0.666666666667" in out
    assert "mean = 1" in out


def test_theory_hyper_omits_a_wide_table(capsys):
    # a support of 3,000,001 values prints its ends and the moments, at once;
    # one of HYPER_TABLE_MAX values still prints its table, line by line
    start = time.perf_counter()
    assert main(["theory", "hyper", "--s1", "3000000", "--s2", "3000000", "--n", "3000000"]) == 0
    assert time.perf_counter() - start < 0.25
    assert capsys.readouterr().out.splitlines() == [
        "wrap-split pmf for sides (3000000, 3000000), draws 3000000:",
        f"  support X1 in [0, 3000000]: 3000001 values, table omitted above {HYPER_TABLE_MAX}",
        "mean = 1500000",
        "var  = 375000.0625",
    ]
    side = HYPER_TABLE_MAX - 1
    assert main(["theory", "hyper", "--s1", str(side), "--s2", str(side), "--n", str(side)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == HYPER_TABLE_MAX + 3
    assert lines[1].startswith("  P(X1=0) = ") and lines[-3].startswith(f"  P(X1={side}) = ")


def test_attack_refuses_a_stream_beyond_the_bound(tmp_path, capsys):
    # a fully targeted row of 2**32 - 1 slots plans about 9.8e10 flows, whose
    # ids alone would take 728 GiB: refused naming fraction before anything
    # is allocated, while plan_attack and theory coupon still answer for it
    out = tmp_path / "a.sktr"
    assert main(["attack", "--width", "4294967295", "--fraction", "1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments" and "fraction" in err["detail"]
    assert f"exceeds {MAX_ATTACK_PACKETS} packets" in err["detail"]
    assert not out.exists()
    plan = plan_attack(2**32 - 1, 1.0)
    assert plan.flows > MAX_ATTACK_PACKETS
    assert main(["theory", "coupon", "--width", "4294967295", "--fraction", "1"]) == 0
    assert f"expected_flows={plan.expected_flows:.6g}" in capsys.readouterr().out
    # few flows, each too long: refused naming packets_per_flow and the most
    # it may be
    most = MAX_ATTACK_PACKETS // plan_attack(4096, 0.5).flows
    args = ["attack", "--width", "4096", "--fraction", "0.5", "--out", str(out)]
    assert main([*args, "--packets-per-flow", str(most + 1)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments"
    assert f"packets_per_flow must be at most {most}" in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize("s1, s2, n", [(1, 1, 5), (-1, 3, 1), (3, -1, 1), (2, 2, -1)])
def test_theory_hyper_rejects_impossible_inputs(capsys, s1, s2, n):
    # more draws than the population, a negative side or negative draws
    assert main(["theory", "hyper", "--s1", str(s1), "--s2", str(s2), "--n", str(n)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "bad-arguments"


def test_run_end_to_end(tmp_path):
    benign = tmp_path / "b.sktr"
    main(["generate", "--zipf", "1.0", "--flows", "300", "--packets", "20000",
          "--seed", "5", "--out", str(benign)])
    out = tmp_path / "report"
    assert main(["run", "--benign", str(benign), "--width", "256",
                 "--snapshot-interval", "5000", "--seed", "5",
                 "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("experiment_id,")
    assert len(lines) > 10
    assert (out / "counters.csv").exists()
    assert (out / "metrics.json").exists()


def test_run_over_13_byte_keys(tmp_path):
    # a trace of 5-tuple-sized keys runs, its keys folded to flow ids
    keys = [bytes([i % 7, i % 11]) + bytes(range(11)) for i in range(3000)]
    benign = tmp_path / "wide.sktr"
    benign.write_bytes(struct.pack("<4sHH", b"SKTR", 1, 13) + b"".join(keys))
    reports = []
    for name in ("r1", "r2"):
        assert main(["run", "--benign", str(benign), "--width", "64",
                     "--snapshot-interval", "1000", "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "metrics.csv").read_text())
    assert reports[0] == reports[1] and len(reports[0].splitlines()) > 10


def test_run_missing_trace_reports_json_error(tmp_path, capsys):
    rc = main(["run", "--benign", str(tmp_path / "missing.sktr"),
               "--width", "256", "--out", str(tmp_path / "r")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io-error"


def test_run_bad_scheme_reports_json_error(tmp_path, capsys):
    # an unknown scheme, and a repeated one, which would count every packet
    # into one sketch twice
    for schemes in ("nope", "sc-lsb,sc-lsb"):
        rc = main(["run", "--schemes", schemes, "--width", "256",
                   "--benign", "x", "--out", str(tmp_path / "r")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad-arguments"


def test_run_threshold_not_positive_reports_json_error(tmp_path, capsys):
    for flag in (["--threshold", "0"], ["--threshold-fraction", "-0.5"]):
        rc = main(["run", "--width", "256", "--benign", "x", *flag, "--out", str(tmp_path / "r")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad-arguments"


@pytest.mark.parametrize("flag", [["--rows", "0"], ["--counter-bits", "-1"]])
def test_run_memory_budget_bad_shape_reports_json_error(tmp_path, capsys, flag):
    # the budget is split per row and per counter bit before any sketch
    # checks its shape
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    rc = main(["run", "--memory-bytes", "4096", "--benign", str(benign), *flag,
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "bad-arguments"


def test_run_memory_budget_too_small_names_the_field(tmp_path, capsys):
    # 3 rows of 8-bit counters need at least ceil(3 * 9 / 2) = 14 bytes
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    rc = main(["run", "--memory-bytes", "10", "--benign", str(benign),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments"
    assert "memory_bytes" in err["detail"] and "at least 14" in err["detail"]
    assert not (tmp_path / "r").exists()


def test_run_width_refused_by_one_scheme_allocates_nothing(tmp_path, capsys, monkeypatch):
    # the sketch constructors are replaced, so that were the error to come
    # late no row would be allocated here either
    built = []
    for scheme in experiment.SCHEMES:
        monkeypatch.setitem(
            experiment.SCHEME_CLASSES, scheme, lambda config, scheme=scheme: built.append(scheme)
        )
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    # a float width from a JSON config was taken whole by the configs, and
    # 256.0 failed only inside a sketch constructor
    for width in (4294967296.0, 256.0):
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"width": width, "schemes": ["count-min", "sc-lsb"]}))
        rc = main(["run", "--config", str(config), "--benign", str(benign),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bad-arguments" and "width" in err["detail"]
    for width in ("4294967300", "4294967296"):
        rc = main(["run", "--schemes", "count-min,sc-lsb", "--width", width,
                   "--benign", str(benign), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "bad-arguments"
    assert built == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_fraction_reports_json_error(tmp_path, capsys, value):
    # rejected before round() can raise OverflowError or fail on NaN
    runs = (
        ["run", "--width", "256", "--benign", "x", f"--threshold-fraction={value}",
         "--out", str(tmp_path / "r")],
        ["theory", "coupon", "--width", "100", f"--fraction={value}"],
    )
    for argv in runs:
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bad-arguments"
        assert "positive" in err["detail"] or "finite" in err["detail"]


@pytest.mark.parametrize("flag", ["merge_mode", "interleave"])
def test_run_bad_enum_flag_reports_json_error(tmp_path, capsys, flag):
    # the spec checks the value, as it checks the same value from a --config
    # file, even where no scheme reads it (Count-Min has no merge mode)
    rc = main(["run", "--" + flag.replace("_", "-"), "bogus", "--schemes", "count-min",
               "--width", "256", "--benign", "x", "--out", str(tmp_path / "r")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments" and flag in err["detail"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
def test_theory_coupon_fraction_prints_the_attack_plan(capsys, fraction):
    # the targets and expected flows are the ones `attack` would size
    assert main(["theory", "coupon", "--width", "4096", "--fraction", str(fraction)]) == 0
    plan = plan_attack(4096, fraction)
    assert capsys.readouterr().out == (
        f"width=4096 targets={plan.targets} expected_flows={plan.expected_flows:.6g}\n"
    )


def test_run_config_file_with_flag_override(tmp_path):
    benign = tmp_path / "b.sktr"
    main(["generate", "--zipf", "0.8", "--flows", "100", "--packets", "5000",
          "--seed", "2", "--out", str(benign)])
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "schemes": ["count-min"],
        "width": 128,
        "benign": str(benign),
        "snapshot_interval": 2500,
        "apps": ["size"],
        "seed": 2,
    }))
    out1 = tmp_path / "r1"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    rows = (out1 / "metrics.csv").read_text().splitlines()
    assert all(",count-min," in r for r in rows[1:])
    out2 = tmp_path / "r2"
    assert main(["run", "--config", str(cfg), "--schemes", "instant",
                 "--out", str(out2)]) == 0
    rows2 = (out2 / "metrics.csv").read_text().splitlines()
    assert all(",instant," in r for r in rows2[1:])


def test_every_spec_field_has_a_run_flag():
    # the run command reads each field from the flag of the same name, parsed
    # as the field's annotation says
    args = build_parser().parse_args(["run", "--out", "r"])
    for f in fields(experiment.ExperimentSpec):
        assert getattr(args, f.name, "missing") is None, f.name
    given = {
        "schemes": ("a,b", ["a", "b"]), "rows": ("3", 3), "width": ("64", 64),
        "memory_bytes": ("4096", 4096), "counter_bits": ("8", 8), "shared_bits": ("4", 4),
        "merge_mode": ("max", "max"), "benign": ("b.sktr", "b.sktr"),
        "attack": ("a.sktr", "a.sktr"), "attack_fraction": ("0.5", 0.5),
        "interleave": ("append", "append"), "snapshot_interval": ("100", 100),
        "apps": ("size", ["size"]), "threshold": ("7", 7),
        "threshold_fraction": ("0.25", 0.25), "seed": ("9", 9), "experiment_id": ("x", "x"),
    }
    assert set(given) == {f.name for f in fields(experiment.ExperimentSpec)}
    flags = [("--" + name.replace("_", "-"), text) for name, (text, _) in given.items()]
    args = build_parser().parse_args(["run", *sum(flags, ()), "--out", "r"])
    for name, (_, value) in given.items():
        assert getattr(args, name) == value and type(getattr(args, name)) is type(value), name


@pytest.mark.parametrize(
    "spec, field",
    [({"memory_bytes": 4096.0}, "memory_bytes"),
     ({"width": 256, "snapshot_interval": 2500.5}, "snapshot_interval"),
     ({"width": 256, "rows": 3.0}, "rows"),
     ({"width": 256, "seed": True}, "seed"),
     ({"width": 256, "attack_fraction": "half"}, "attack_fraction"),
     ({"width": 256, "threshold_fraction": "0.1"}, "threshold_fraction"),
     ({"width": 256, "rows": 2**70}, "rows"),
     ({"width": 256, "schemes": "half"}, "schemes"),
     ({"width": 256, "experiment_id": 5}, "experiment_id")],
)
def test_run_config_field_of_wrong_type_reports_json_error(tmp_path, capsys, spec, field):
    # a float or a bool where a count belongs, a string where a fraction, a
    # list or an id belongs, or a count out of range is refused, naming the
    # field; 2**70 rows are refused before they are counted out one by one
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps(spec))
    rc = main(["run", "--config", str(config), "--benign", str(benign),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments" and field in err["detail"]
    assert not (tmp_path / "r").exists()


def test_run_memory_bytes_flag_overrides_config_file(tmp_path):
    # --width drops only the file's memory_bytes: a --memory-bytes flag
    # still applies, so the run matches the same flags without a file
    benign = tmp_path / "b.sktr"
    main(["generate", "--zipf", "1.0", "--flows", "300", "--packets", "20000",
          "--seed", "5", "--out", str(benign)])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"memory_bytes": 4096}))
    flags = ["run", "--benign", str(benign), "--width", "256", "--memory-bytes", "8192",
             "--snapshot-interval", "5000"]
    assert main(flags + ["--out", str(tmp_path / "plain")]) == 0
    assert main(flags + ["--config", str(config), "--out", str(tmp_path / "file")]) == 0
    plain = (tmp_path / "plain" / "metrics.json").read_bytes()
    assert plain == (tmp_path / "file" / "metrics.json").read_bytes()
    assert {row["memory_bytes"] for row in json.loads(plain)} == {8181, 8184}
    # a --width alone still drops the file's budget
    assert main(["run", "--benign", str(benign), "--width", "256", "--config", str(config),
                 "--snapshot-interval", "5000", "--out", str(tmp_path / "width")]) == 0
    assert main(["run", "--benign", str(benign), "--width", "256",
                 "--snapshot-interval", "5000", "--out", str(tmp_path / "nofile")]) == 0
    assert (tmp_path / "width" / "metrics.json").read_bytes() == (
        tmp_path / "nofile" / "metrics.json").read_bytes()


@pytest.mark.parametrize(
    "text, flags, field",
    [("[1, 2]", [], "config"),
     ("[1, 2]", ["--width", "64"], "config"),
     ("{bad", [], "config"),
     ('{"foo": 1}', [], "foo")],
)
def test_run_config_that_is_no_object_of_spec_fields_names_it(tmp_path, capsys, text, flags,
                                                               field):
    # a list, text that is not JSON, or a key that is no spec field
    config = tmp_path / "c.json"
    config.write_text(text)
    rc = main(["run", "--config", str(config), *flags, "--benign", "x",
               "--out", str(tmp_path / "r")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad-arguments" and field in err["detail"]
    assert not (tmp_path / "r").exists()


def test_run_empty_apps_flag_takes_the_census(tmp_path, capsys):
    # '' is the empty list: no metric rows, every counter row
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    out = tmp_path / "r"
    assert main(["run", "--apps", "", "--benign", str(benign), "--width", "64",
                 "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text().splitlines() == [",".join(experiment.METRIC_COLUMNS)]
    assert len((out / "counters.csv").read_text().splitlines()) == 1 + 3 * 3
    capsys.readouterr()
    assert main(["run", "--schemes", "", "--benign", str(benign), "--width", "64",
                 "--out", str(tmp_path / "none")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "bad-arguments", "detail": "schemes must name at least one scheme"}


def test_a_bug_in_a_run_is_not_a_bad_argument(tmp_path, monkeypatch):
    # only a refused input is reported as bad-arguments; any other error
    # escapes main as the bug it is
    def broken(*args):
        raise ValueError("a bug")

    monkeypatch.setattr(experiment, "metric_are", broken)
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    with pytest.raises(ValueError, match="a bug"):
        main(["run", "--benign", str(benign), "--width", "64", "--out", str(tmp_path / "r")])
