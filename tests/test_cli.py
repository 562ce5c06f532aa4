import hashlib
import json
import struct

import numpy as np
import pytest

from siamsketch import experiment
from siamsketch.cli import main
from siamsketch.traffic import Trace, read_trace, write_trace

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
    rc = main(["run", "--schemes", "nope", "--width", "256",
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


def test_run_width_refused_by_one_scheme_allocates_nothing(tmp_path, capsys, monkeypatch):
    # the sketch constructors are replaced, so that were the error to come
    # late no row would be allocated here either
    built = []
    for name in ("SiameseSketch", "InstantMergeSketch", "CountMinSketch"):
        monkeypatch.setattr(experiment, name, lambda config, name=name: built.append(name))
    benign = tmp_path / "b.sktr"
    write_trace(benign, Trace(np.arange(100, dtype=np.uint64)))
    rc = main(["run", "--schemes", "count-min,sc-lsb", "--width", "4294967300",
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
