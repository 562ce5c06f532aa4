"""Straight-line reference implementations of every metric formula, of
the instant-merge counter lifecycle and of one shared pair.

Deliberately naive: plain loops, no shared code with the package, so the
package implementations are checked against an independent reading of each
formula, of the lifecycle and of the pair's winner-take-all wraps.
"""

from __future__ import annotations

import math

import numpy as np


def ref_are(truths, estimates):
    total = 0.0
    for t, e in zip(truths, estimates):
        total += abs(t - e) / t
    return total / len(truths)


def ref_rmse(truths, estimates):
    total = 0.0
    for t, e in zip(truths, estimates):
        total += (t - e) ** 2
    return math.sqrt(total / len(truths))


def ref_f1(detected, truth):
    tp = len(detected & truth)
    pr = tp / len(detected) if detected else 0.0
    re = tp / len(truth) if truth else 0.0
    if pr + re == 0:
        return 0.0
    return 2 * pr * re / (pr + re)


def ref_wmre(est_counts: dict[int, int], act_counts: dict[int, int]) -> float:
    sizes = set(est_counts) | set(act_counts)
    num = 0.0
    den = 0.0
    for i in sizes:
        n = act_counts.get(i, 0)
        nh = est_counts.get(i, 0)
        num += abs(n - nh)
        den += (n + nh) / 2
    return num / den


def ref_entropy(counts: dict[int, int]) -> float:
    n_flows = sum(counts.values())
    total = 0.0
    for i, n_i in counts.items():
        if n_i:
            total += -i * (n_i / n_flows) * math.log(n_i / n_flows)
    return total


def ref_re(est: float, actual: float) -> float:
    if actual == 0:
        return abs(est - actual)
    return abs(1 - est / actual)


class RefInstantMerge:
    """Straight-line model of the instant-merge lifecycle on given slots.

    Each group of four slots is either two pairs or one quad-width counter.
    A pair is either two independent ``bits``-wide counters or one fused
    ``2*bits``-wide counter. A full counter fuses with its neighbour at the
    first increment it cannot absorb (sum or max of the two), and the
    increment then lands on the fused counter; when a fused pair is full,
    the sibling pair is fused too and the group becomes one ``4*bits``-wide
    counter, which saturates. Values are logical, never bit-packed.
    """

    def __init__(self, rows: int, width: int, bits: int, merge: str) -> None:
        self.bits = bits
        self.merge = merge
        # groups[r][g] is a list of two pairs, or an int once fully fused;
        # a pair is a list of two ints while independent, an int once fused
        self.groups = [[[[0, 0], [0, 0]] for _ in range(width // 4)] for _ in range(rows)]

    def _fuse(self, a: int, b: int) -> int:
        return a + b if self.merge == "sum" else max(a, b)

    def add(self, row: int, slot: int) -> None:
        g, p, m = slot // 4, (slot // 2) % 2, slot % 2
        group = self.groups[row][g]
        if isinstance(group, list):
            pair = group[p]
            if isinstance(pair, list):
                if pair[m] < 2**self.bits - 1:
                    pair[m] += 1
                    return
                pair = group[p] = self._fuse(pair[0], pair[1])
            if pair < 2 ** (2 * self.bits) - 1:
                group[p] = pair + 1
                return
            sibling = group[1 - p]
            if isinstance(sibling, list):
                sibling = self._fuse(sibling[0], sibling[1])
            group = self._fuse(pair, sibling)
        self.groups[row][g] = min(group + 1, 2 ** (4 * self.bits) - 1)

    def value(self, row: int, slot: int) -> int:
        group = self.groups[row][slot // 4]
        if not isinstance(group, list):
            return group
        pair = group[(slot // 2) % 2]
        return pair[slot % 2] if isinstance(pair, list) else pair

    def group_state(self, row: int, g: int) -> int:
        """The sketch's state code: ``3*a + b`` (0 independent, 2 fused), 10 quad."""
        group = self.groups[row][g]
        if not isinstance(group, list):
            return 10
        a, b = (0 if isinstance(pair, list) else 2 for pair in group)
        return 3 * a + b

    def query(self, slots: list[int]) -> int:
        """Minimum over rows, given the key's slot in each row."""
        return min(self.value(r, s) for r, s in enumerate(slots))

    def row_total(self, row: int) -> int:
        total = 0
        for group in self.groups[row]:
            if not isinstance(group, list):
                total += group
                continue
            for pair in group:
                total += sum(pair) if isinstance(pair, list) else pair
        return total

    def counter_count(self) -> list[int]:
        counts = []
        for groups in self.groups:
            n = 0
            for group in groups:
                if not isinstance(group, list):
                    n += 1
                    continue
                n += sum(2 if isinstance(pair, list) else 1 for pair in group)
            counts.append(n)
        return counts


def ref_order(side0: int, side1: int, seed: int) -> np.ndarray:
    """A uniformly random interleaving of ``side0`` packets labelled 0 and
    ``side1`` packets labelled 1, as an int8 array."""
    order = np.zeros(side0 + side1, dtype=np.int8)
    order[side0:] = 1
    np.random.default_rng(seed).shuffle(order)
    return order


def ref_pair(order, shared_bits: int) -> tuple[int, int, int]:
    """Replay ``order`` (0 or 1 per packet: the pair member it counts for)
    through a fresh shared pair: every packet advances the joint
    ``shared_bits``-wide sub-counter, and each wrap credits the member whose
    packet caused it. Returns (member 0's wraps, member 1's wraps, joint).

    Member ``m`` then decodes to ``wraps[m] * 2**shared_bits + joint``, and
    the fused (sum) counter would hold ``len(order)``.
    """
    cap = 1 << shared_bits
    joint = 0
    wraps = [0, 0]
    for side in np.asarray(order).tolist():
        joint += 1
        if joint == cap:
            joint = 0
            wraps[side] += 1
    return wraps[0], wraps[1], joint
