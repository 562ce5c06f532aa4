"""Frequency sketches with joint low-bit sub-counters and deferred fusing,
plus instant-merge and Count-Min baselines, traffic/attack generation, and an
evaluation harness."""

from .analysis import coupon_expect, hyper_mean, hyper_pmf, hyper_var
from .baselines import (
    CountMinConfig,
    CountMinSketch,
    InstantMergeSketch,
    count_min_width_for,
    equal_memory_widths,
)
from .experiment import (
    ExperimentSpec,
    ExperimentResult,
    run_experiment,
)
from .hashing import (
    derive_seeds,
    hash_batch,
    hash_u64,
    index_batch,
    mix64,
)
from .metrics import (
    FlowSizeDistribution,
    detect_changes,
    estimate_entropy,
    estimate_fsd,
    metric_are,
    metric_f1,
    metric_re,
    metric_rmse,
    metric_wmre,
    threshold_from_fraction,
    true_fsd,
    true_heavy_hitters,
)
from .oracle import ExactCounter
from .rules import SpecError, SpecTypeError
from .sketch import (
    GROUP_MERGED_WIDE,
    GROUP_SHARED_WIDE,
    MERGE_MAX,
    MERGE_SUM,
    PAIR_INDEPENDENT,
    PAIR_MERGED,
    PAIR_SHARED,
    SiameseSketch,
    SketchConfig,
    group_code,
    pair_states,
)
from .snapshot import dump_bytes, load_bytes
from .traffic import (
    AttackPlan,
    Trace,
    TraceError,
    ZipfConfig,
    concat_traces,
    flow_id,
    gen_attack,
    gen_zipf,
    interleave_traces,
    plan_attack,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
