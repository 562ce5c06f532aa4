"""Every input through ``cli.main``: a run, or a typed refusal naming its field.

hypothesis draws ``run --config`` files field by field, small valid values
mixed with values of the wrong type or out of range, and the flags of
``generate``, ``attack`` and ``theory``. Each example must end in one of two
ways, within the deadline: exit 0 with every report column of its declared
type, or exit 1 with a typed error code whose detail names the field (or,
for a file that cannot be read, the file). Any other exception fails the
test as it escapes ``main``.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from siamsketch import CountMinConfig, SketchConfig, ZipfConfig, coupon_expect, plan_attack
from siamsketch.cli import main
from siamsketch.experiment import ALL_APPS, COUNTER_COLUMNS, SCHEMES, ExperimentSpec
from siamsketch.rules import SpecError, SpecTypeError
from siamsketch.traffic import Trace, write_trace

# the type of each report column in metrics.json
METRIC_TYPES = {
    "experiment_id": str, "scheme": str, "memory_bytes": int, "packets": int,
    "attack_fraction": str, "interleave": str, "metric": str, "value": str, "seed": int,
    "config_hash": str,
}

# the typed codes a refused input exits with, beside bad-arguments
FILE_CODES = {"io-error", "bad-header", "bad-magic", "bad-version", "truncated-record"}

# values of the wrong type or out of range for every field
BOUNDARY = st.sampled_from(
    [None, True, False, 1.5, -1, 0, 2**64, 2**70, math.nan, math.inf, "x", "", [], {}, ["x"]]
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    paths = {name: root / f"{name}.sktr" for name in ("benign", "attack", "empty")}
    rng = np.random.default_rng(1)
    write_trace(paths["benign"], Trace(rng.zipf(1.3, 500).astype(np.uint64)))
    write_trace(paths["attack"], Trace(np.repeat(np.arange(40, dtype=np.uint64), 5)))
    write_trace(paths["empty"], Trace([]))
    paths["not-a-trace"] = root / "not-a-trace.json"
    paths["not-a-trace"].write_text("{}")
    paths["missing"] = root / "missing.sktr"
    paths["directory"] = root
    return {name: str(path) for name, path in paths.items()}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _check_refusal(rc, err, names, paths=()):
    """Exit 1 and one JSON error on stderr, naming a field or a file."""
    assert rc == 1
    error = json.loads(err)
    event(f"refused: {error['error']}")
    if error["error"] == "bad-arguments":
        assert any(name in error["detail"] for name in names), error
    else:
        assert error["error"] in FILE_CODES, error
        assert any(path in error["detail"] for path in paths), error


def _spec_fields(files):
    traces = st.sampled_from(sorted(files)).map(files.get)

    def names(options):
        return st.lists(st.sampled_from(options), unique=True)

    valid = {
        "schemes": names(SCHEMES),
        "rows": st.integers(1, 4),
        "width": st.one_of(st.none(), st.integers(1, 64).map(lambda n: 4 * n)),
        "memory_bytes": st.one_of(st.none(), st.integers(1, 4096)),
        "counter_bits": st.integers(2, 16),
        "shared_bits": st.integers(0, 16),
        "merge_mode": st.sampled_from(["sum", "max"]),
        "benign": st.one_of(st.just(files["benign"]), traces),
        "attack": st.one_of(st.none(), traces),
        "attack_fraction": st.one_of(st.none(), st.floats(0, 1)),
        "interleave": st.sampled_from(["shuffle", "append"]),
        "snapshot_interval": st.integers(50, 600),
        "apps": names(ALL_APPS),
        "threshold": st.one_of(st.none(), st.integers(1, 100)),
        "threshold_fraction": st.one_of(st.none(), st.floats(0, 1)),
        "seed": st.integers(0, 2**64 - 1),
        "experiment_id": st.one_of(st.text(max_size=8), st.sampled_from(["\0", "\ud800"])),
    }
    assert set(valid) == set(ExperimentSpec.RULES)
    # every config names a trace, so that a run has something to count
    required = {"benign": valid.pop("benign")}
    return st.fixed_dictionaries(required, optional=valid)


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(data=st.data())
def test_every_config_runs_or_is_refused_naming_its_field(files, data):
    # valid values, and at most two fields given a wrong or boundary one, so
    # that runs and refusals both come often
    spec = data.draw(_spec_fields(files), label="valid")
    bad = data.draw(st.sets(st.sampled_from(sorted(ExperimentSpec.RULES)), max_size=2))
    spec.update({name: data.draw(BOUNDARY, label=name) for name in sorted(bad)})
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "spec.json"
        config.write_text(json.dumps(spec))
        out = Path(tmp) / "report"
        rc, err = _run_cli(["run", "--config", str(config), "--out", str(out)])
        event(f"exit {rc}")
        if rc:
            paths = [v for v in (spec.get("benign"), spec.get("attack")) if isinstance(v, str)]
            _check_refusal(rc, err, list(spec), paths)
            return
        rows = json.loads((out / "metrics.json").read_text())
        for row in rows:
            assert {name: type(value) for name, value in row.items()} == METRIC_TYPES
            float(row["value"])
            assert row["attack_fraction"] == "" or float(row["attack_fraction"]) >= 0
        with open(out / "counters.csv", newline="") as fp:
            counters = list(csv.DictReader(fp))
        assert counters and list(counters[0]) == list(COUNTER_COLUMNS)
        for row in counters:
            assert int(row["packets"]) > 0 and int(row["row"]) >= 0 and int(row["counters"]) > 0


# Flag values: small valid ones, and boundaries. A flag's text always parses
# as its type, so that each example reaches the program. A huge side, width
# or count is drawn only as the boundary, with every other flag valid: a
# huge population of huge draws, or a huge number of targets, is valid and
# costs a line or a term each.
INT_BOUNDARY = st.sampled_from([-1, 0, 2**64, 2**70])
REAL_BOUNDARY = st.sampled_from([-0.5, 0.0, 1.0, 1.5, math.nan, math.inf, -math.inf])
SEED = st.integers(0, 2**70)
COMMANDS = [
    ("generate", {"zipf": st.floats(0, 3), "flows": st.integers(1, 300),
                  "packets": st.integers(0, 300), "seed": SEED}),
    ("attack", {"width": st.integers(1, 300), "fraction": st.floats(0, 1),
                "packets-per-flow": st.integers(1, 8), "seed": SEED}),
    ("theory coupon", {"width": st.integers(1, 300), "fraction": st.floats(0, 1)}),
    ("theory coupon", {"width": st.integers(1, 300), "m": st.integers(0, 300)}),
    ("theory hyper", {"s1": st.integers(0, 60), "s2": st.integers(0, 60),
                      "n": st.integers(0, 60)}),
]
# the field or argument each flag gives, where its name differs
FIELD_OF = {"zipf": "skew", "packets-per-flow": "packets_per_flow", "m": "targets",
            "s1": "side1", "s2": "side2", "n": "draws"}


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_every_flag_runs_or_is_refused_naming_its_field(command, data):
    command, flags = command
    values = {flag: data.draw(valid, label=flag) for flag, valid in flags.items()}
    bad = data.draw(st.sampled_from([None, *values]), label="boundary")
    if bad is not None:
        boundary = REAL_BOUNDARY if bad in ("zipf", "fraction") else INT_BOUNDARY
        values[bad] = data.draw(boundary, label=bad)
    # "--flag=value": argparse reads "-inf" after a space as a flag
    argv = [*command.split(), *(f"--{flag}={value!r}" for flag, value in values.items())]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.sktr"
        writes = command in ("generate", "attack")
        rc, err = _run_cli(argv + ["--out", str(out)] if writes else argv)
        event(f"{command}: exit {rc}")
        if rc:
            _check_refusal(rc, err, [FIELD_OF.get(flag, flag) for flag in values])
            assert not out.exists()
        elif writes:
            assert out.stat().st_size % 8 == 0


@pytest.mark.parametrize("config", [ExperimentSpec, SketchConfig, CountMinConfig, ZipfConfig])
def test_every_config_field_has_one_rule(config):
    assert list(config.RULES) == [f.name for f in fields(config)]


def test_a_refusal_is_typed_and_names_its_field():
    for make, field, error in [
        (lambda: ExperimentSpec(rows=3.0), "rows", SpecTypeError),
        (lambda: ExperimentSpec(rows=0), "rows", SpecError),
        (lambda: ExperimentSpec(width=None), "width", SpecError),
        (lambda: ExperimentSpec(width=None, memory_bytes=10), "memory_bytes", SpecError),
        (lambda: SketchConfig(shared_bits=8), "shared_bits", SpecError),
        (lambda: SketchConfig(rows=2, seeds=(1,)), "seeds", SpecError),
        (lambda: CountMinConfig(seeds=(1, 2, -3)), "seeds", SpecError),
        (lambda: ZipfConfig(skew=math.nan, flows=1, packets=1, seed=0), "skew", SpecError),
        (lambda: plan_attack(64, 0.5, interleave="x"), "interleave", SpecError),
        (lambda: coupon_expect(4, 5), "targets", SpecError),
    ]:
        with pytest.raises(error) as err:
            make()
        assert err.value.field == field and field in str(err.value)
        assert isinstance(err.value, ValueError)
        assert isinstance(err.value, TypeError) == (error is SpecTypeError)
