import numpy as np

from siamsketch import ExactCounter


def test_conservation_over_random_stream():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1000, size=1_000_000, dtype=np.uint64)
    o = ExactCounter()
    o.observe_stream(keys[:400_000])
    o.observe_stream(keys[400_000:])
    flows = dict(o.flows())
    assert sum(flows.values()) == 1_000_000
    uniq, counts = np.unique(keys, return_counts=True)
    assert flows == dict(zip(uniq.tolist(), counts.tolist()))
