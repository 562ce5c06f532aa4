/* The kernel library: batched hashing, batched row placement, batched
 * encode, batched query and the shuffled interleave of two traces.
 *
 * ``hash_keys`` hashes a chunk of keys under one seed, as ``hashing.hash_u64``
 * does key by key. ``place`` maps a chunk of keys to their slots in one row,
 * as ``hashing.place_u64`` does key by key. Both share one ``mix64``.
 *
 * ``decode_row`` writes ``DynamicSketch._decode`` of every slot of one row
 * into a uint64 table, through the same ``unit_of`` and ``read_span`` as the
 * encode. ``query_rows`` answers a batch of keys from the tables of every
 * row, ``RowSketch.query_u64`` of each: per key it places the key in each row
 * as ``place`` does, reads the row's table there and keeps the minimum, in
 * one pass that writes only the answers.
 *
 * ``interleave`` mixes two traces as ``traffic.interleave_traces`` does: it
 * labels the packets, shuffles the labels with numpy's own draws, calling
 * the bit generator's ``next_uint32`` on its state, and fills the mix in
 * label order, in one pass.
 *
 * ``encode_row`` counts one chunk of slot indices into one row of the
 * dynamic-counter engine, in stream order. It ports
 * ``DynamicSketch._encode`` and its two transitions, ``_share`` and
 * ``_fuse``, in ``sketch.py``, which stay the specification; keep the two in
 * step. The port splits ``_encode`` in two. ``bump`` holds its first steps,
 * the increments nearly every packet ends in: +1 to the lowest slot of an
 * unshared counter below the slot maximum, or to a shared pair's joint, with
 * its carry into the high half. ``transition`` holds the rest: the prefix
 * carry on a joint wrap, the carry across the slots of a fused counter, quad
 * saturation, and share and fuse, after which ``settle`` retries the bump
 * where ``_encode`` calls itself again. The row and its group codes are the
 * sketch's own ``array.array`` buffers, updated in place. The caller
 * guarantees that every index is in ``[0, width)``.
 *
 * ``encode_row`` has two count loops, which leave the row bit-identical:
 *
 * - ``count`` calls ``bump``, which branches on the slot's unit. It is
 *   compiled once per slot type, so the bump runs on a constant width and
 *   on locals, not on ``machine`` fields that every slot store could
 *   overwrite.
 * - ``count_pairs``, for uint8 slots only, handles units 0-2 without
 *   branching on the unit. It reads the packet's pair as one 16-bit word,
 *   first slot high, and adds ``inc``: 1 at the counter's lowest slot, or
 *   at the joint's low half, in the second slot. For a shared pair the gap
 *   bits (``0xFF & ~hmask``, the second member's prefix) are set to ones for
 *   the add and restored after it, so the joint's carry crosses into the
 *   first slot. One test, ``(word & field) == field``, replaces the slot
 *   maximum check and the two joint checks: ``field`` is the slot maximum
 *   at the counter's lowest slot, or both joint halves. It is exact because
 *   no slot holds more than the slot maximum (``load_bytes`` rejects such a
 *   row). A packet that fails the test, and every packet to units 3-4
 *   (``field`` 0), takes the ``bump`` and ``settle`` of ``count``.
 *
 * On predictable streams, where most packets of a run hit one unit kind,
 * ``count`` is faster. When the units of a row's packets are mixed, as in a
 * row under a slot-saturation attack, ``count_pairs`` is faster, because
 * ``count`` mispredicts its unit branch on about half of the packets. Once
 * per call ``encode_row`` counts the row's groups that hold a shared pair,
 * and runs ``count_pairs`` for a uint8 row with ``shared_bits > 0`` where
 * at least 1/8 of them do (``PAIR_SHARE``), else ``count``.
 *
 * Built by ``_kernel.py`` with the system C compiler and loaded with ctypes.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Unit of a slot, 2 * level + shared, indexed by 2 * group code + pair bit
 * (``_UNIT`` in sketch.py). */
static const uint8_t UNIT[22] = {0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2,
                                 2, 0, 2, 1, 2, 2, 3, 3, 4, 4};

typedef struct {
    void *slots;
    int wide; /* slots are uint16 (counter_bits > 8), else uint8 */
    uint8_t *states;
    int s, k, hk, mode_sum;
    uint64_t max[3]; /* largest value of a counter at each level */
    uint64_t kmask, hmask;
    uint64_t discarded;
} machine;

static uint64_t ones(int bits)
{
    /* 1 << 64 is undefined in C; a 16-bit quad counter holds 64 bits. */
    return bits >= 64 ? UINT64_MAX : (UINT64_C(1) << bits) - 1;
}

static inline uint64_t get(const void *slots, int wide, size_t i)
{
    return wide ? ((const uint16_t *)slots)[i] : ((const uint8_t *)slots)[i];
}

static inline void set(void *slots, int wide, size_t i, uint64_t v)
{
    if (wide)
        ((uint16_t *)slots)[i] = (uint16_t)v;
    else
        ((uint8_t *)slots)[i] = (uint8_t)v;
}

static inline unsigned unit_of(const uint8_t *states, size_t slot)
{
    return UNIT[(states[slot >> 2] << 1) | ((slot >> 1) & 1)];
}

/* ``_read`` and ``_write``: the counter held in ``span`` slots from ``base``,
 * lowest slot first. */
static uint64_t read_span(const machine *m, size_t base, size_t span)
{
    uint64_t value = get(m->slots, m->wide, base);
    for (size_t i = 1; i < span; i++)
        value |= get(m->slots, m->wide, base + i) << (i * m->s);
    return value;
}

static void write_span(machine *m, size_t base, size_t span, uint64_t value)
{
    for (size_t i = base; i < base + span; i++) {
        set(m->slots, m->wide, i, value & m->max[0]);
        value >>= m->s;
    }
}

static void set_unit(machine *m, size_t first, unsigned level, unsigned unit)
{
    size_t g = first >> 2;
    unsigned pair = (first >> 1) & 1;
    unsigned a = level || pair == 0 ? unit : UNIT[2 * m->states[g]];
    unsigned b = level || pair == 1 ? unit : UNIT[2 * m->states[g] + 1];
    unsigned code = 0;
    while (UNIT[2 * code] != a || UNIT[2 * code + 1] != b)
        code++;
    m->states[g] = (uint8_t)code;
}

static void share(machine *m, size_t slot, unsigned level)
{
    size_t span = (size_t)1 << level;
    size_t first = slot & ~(2 * span - 1);
    uint64_t a = read_span(m, first, span);
    uint64_t b = read_span(m, first + span, span);
    uint64_t la = a & m->kmask;
    uint64_t lb = b & m->kmask;
    uint64_t joint = la >= lb ? la : lb;
    /* The smaller low part is dropped by the max initialization. */
    m->discarded += la + lb - joint;
    int k = m->k, hk = m->hk;
    write_span(m, first, span, ((a >> k) << hk) | (joint >> hk));
    write_span(m, first + span, span, ((b >> k) << hk) | (joint & m->hmask));
    set_unit(m, first, level, 2 * level + 1);
}

static void fuse(machine *m, size_t slot, unsigned level, int shared)
{
    size_t span = (size_t)1 << level;
    size_t first = slot & ~(2 * span - 1);
    uint64_t a = read_span(m, first, span);
    uint64_t b = read_span(m, first + span, span);
    int h = shared ? m->hk : 0;
    uint64_t pa = a >> h;
    uint64_t pb = b >> h;
    uint64_t top = m->mode_sum ? pa + pb : (pa >= pb ? pa : pb);
    uint64_t mask = ones(h);
    uint64_t joint = ((a & mask) << h) | (b & mask);
    write_span(m, first, 2 * span, (top << (2 * h)) | joint);
    set_unit(m, first, level, 2 * level + 2);
}

/* One packet to one slot, if the increment is absorbable: the first steps of
 * ``_encode``. Returns 0, having written nothing, where ``_encode`` goes on
 * to a transition. ``count`` passes ``wide`` as a constant. */
static inline int bump(void *slots, int wide, const uint8_t *states, size_t slot,
                       uint64_t max0, uint64_t hmask)
{
    unsigned unit = unit_of(states, slot);
    size_t span = (size_t)1 << (unit >> 1);
    if (unit & 1) {
        size_t first = slot & ~(2 * span - 1);
        size_t second = first + span;
        uint64_t low = get(slots, wide, second);
        if ((low & hmask) != hmask) {
            /* the joint's low half has room: single-slot bump */
            set(slots, wide, second, low + 1);
            return 1;
        }
        uint64_t high = get(slots, wide, first);
        if ((high & hmask) == hmask)
            return 0;
        /* carry into the high half, clear the low half */
        set(slots, wide, first, high + 1);
        set(slots, wide, second, low & ~hmask);
        return 1;
    }
    size_t base = slot & ~(span - 1);
    uint64_t low = get(slots, wide, base);
    if (low >= max0)
        return 0;
    set(slots, wide, base, low + 1);
    return 1;
}

/* The rest of ``_encode``, for a packet ``bump`` could not absorb. Returns 1
 * when the packet was counted here (or dropped by a saturated quad-width
 * counter), 0 after a share or fuse, where ``_encode`` calls itself again. */
static int transition(machine *m, size_t slot)
{
    unsigned unit = unit_of(m->states, slot);
    unsigned level = unit >> 1;
    size_t span = (size_t)1 << level;
    if (unit & 1) {
        /* the joint wraps: the receiving member's prefix takes the carry */
        size_t first = slot & ~(2 * span - 1);
        size_t second = first + span;
        size_t own = slot & ~(span - 1);
        uint64_t prefix = read_span(m, own, span) >> m->hk;
        if (prefix < m->max[level] >> m->hk) {
            set(m->slots, m->wide, first, get(m->slots, m->wide, first) & ~m->hmask);
            set(m->slots, m->wide, second, get(m->slots, m->wide, second) & ~m->hmask);
            write_span(m, own, span, (prefix + 1) << m->hk);
            return 1;
        }
        fuse(m, slot, level, 1);
        return 0;
    }
    size_t base = slot & ~(span - 1);
    uint64_t value = read_span(m, base, span);
    if (value < m->max[level]) {
        write_span(m, base, span, value + 1);
        return 1;
    }
    if (level == 2)
        return 1; /* the quad-width counter saturates */
    size_t sibling = base ^ span;
    unsigned sib_unit = unit_of(m->states, sibling);
    /* fuse the sibling up to this level first */
    if (sib_unit >> 1 < level)
        fuse(m, sibling, sib_unit >> 1, sib_unit & 1);
    if (m->k)
        share(m, slot, level);
    else
        fuse(m, slot, level, 0);
    return 0;
}

/* A packet ``bump`` could not absorb: transitions, and after each one that
 * did not count the packet a retried bump, until the packet is counted. */
static void settle(machine *m, size_t slot)
{
    while (!transition(m, slot))
        if (bump(m->slots, m->wide, m->states, slot, m->max[0], m->hmask))
            return;
}

/* The loop of ``encode_row`` for one slot type, ``wide`` a constant. */
static inline void count(machine *m, const int64_t *idx, size_t n, int wide)
{
    void *slots = m->slots;
    const uint8_t *states = m->states;
    uint64_t max0 = m->max[0], hmask = m->hmask;
    for (size_t i = 0; i < n; i++)
        if (!bump(slots, wide, states, (size_t)idx[i], max0, hmask))
            settle(m, (size_t)idx[i]);
}

/* ``count_pairs`` runs when at least 1 / PAIR_SHARE of a row's groups hold
 * a shared pair. One 4096-slot row, 65,536 uniform packets, a share of
 * groups in code 4, best of 21, ``count`` against ``count_pairs`` (2-core
 * x86-64 host, gcc 12 -O2): 225 against 298 us at 0, 334 against 310 us at
 * 8 %, 390 against 316 us at 12.5 %, 933 against 377 us at 50 %. The
 * crossover lies between 4 and 8 % there; 1/8 errs towards ``count``, the
 * loop of every other row. On the benchmark's ``attack`` stream an sc-lsb
 * row passes 1/8 by its second chunk; on ``many-flows`` it stays below 1 %. */
#define PAIR_SHARE 8

/* The pair-word bump of a slot, indexed by 4 * group code + (slot & 3): the
 * slot's pair read as one word, first slot high, takes ``(word | gap) +
 * inc`` with the gap restored, unless ``(word & field) == field``. */
typedef struct {
    uint16_t inc, field, gap;
} pair_step;

static void pair_steps(pair_step step[44], unsigned max0, unsigned hmask)
{
    for (unsigned i = 0; i < 44; i++) {
        unsigned unit = UNIT[(i >> 2 << 1) | ((i >> 1) & 1)];
        /* an odd independent slot is the second slot; a fused pair's
         * lowest slot is the first */
        unsigned shift = unit == 0 && (i & 1) ? 0 : 8;
        pair_step single = {(uint16_t)(1u << shift), (uint16_t)(max0 << shift), 0};
        pair_step shared = {1, (uint16_t)(hmask << 8 | hmask), (uint16_t)(0xFF & ~hmask)};
        pair_step none = {0, 0, 0}; /* field 0: every packet goes to ``bump`` */
        step[i] = unit == 1 ? shared : unit > 2 ? none : single;
    }
}

/* The loop of ``encode_row`` for uint8 rows where shared pairs are common. */
static void count_pairs(machine *m, const int64_t *idx, size_t n)
{
    uint8_t *slots = m->slots;
    const uint8_t *states = m->states;
    uint64_t max0 = m->max[0], hmask = m->hmask;
    pair_step step[44];
    pair_steps(step, (unsigned)max0, (unsigned)hmask);
    for (size_t i = 0; i < n; i++) {
        size_t slot = (size_t)idx[i];
        pair_step p = step[(states[slot >> 2] << 2) | (slot & 3)];
        uint8_t *pair = slots + (slot & ~(size_t)1);
        unsigned word = (unsigned)pair[0] << 8 | pair[1];
        unsigned field = p.field, gap = p.gap;
        if ((word & field) == field) {
            if (!bump(slots, 0, states, slot, max0, hmask))
                settle(m, slot);
            continue;
        }
        word = (((word | gap) + p.inc) & ~gap) | (word & gap);
        pair[0] = (uint8_t)(word >> 8);
        pair[1] = (uint8_t)word;
    }
}

/* Count ``n`` packets, given by slot, into one row of ``groups`` groups;
 * returns the content the share initializations among them dropped (the
 * row's ``lsb_discard``). */
uint64_t encode_row(void *row, int wide, uint8_t *states, size_t groups, const int64_t *idx,
                    size_t n, int counter_bits, int shared_bits, int sum_mode)
{
    machine m;
    m.slots = row;
    m.wide = wide;
    m.states = states;
    m.s = counter_bits;
    m.k = shared_bits;
    m.hk = shared_bits >> 1;
    m.mode_sum = sum_mode;
    for (int level = 0; level < 3; level++)
        m.max[level] = ones(counter_bits << level);
    /* With sharing disabled these are all 0 and no shared state occurs. */
    m.kmask = ones(shared_bits);
    m.hmask = ones(m.hk);
    m.discarded = 0;
    size_t shared = 0;
    if (shared_bits && !wide)
        for (size_t g = 0; g < groups; g++)
            shared += UNIT[2 * states[g]] == 1 || UNIT[2 * states[g] + 1] == 1;
    if (wide)
        count(&m, idx, n, 1);
    else if (shared * PAIR_SHARE >= groups)
        count_pairs(&m, idx, n);
    else
        count(&m, idx, n, 0);
    return m.discarded;
}

/* ``hashing.mix64``: the finalising avalanche over 64 bits. */
static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* ``n`` keys to their 64-bit hashes, ``mix64(key ^ seed_state)``. */
void hash_keys(const uint64_t *keys, size_t n, uint64_t seed_state, uint64_t *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = mix64(keys[i] ^ seed_state);
}

/* A key's slot in ``[0, width)``: ``mix64(key ^ seed_state)``, then the high
 * 64 bits of ``hash * width``, taken in 32-bit halves so that no product
 * overflows; exact for ``width <= 2**32``. */
static inline size_t slot_in(uint64_t key, uint64_t seed_state, uint64_t width)
{
    uint64_t z = mix64(key ^ seed_state);
    return (size_t)(((z >> 32) * width + (((z & 0xFFFFFFFF) * width) >> 32)) >> 32);
}

/* ``n`` keys to their slots in one row. */
void place(const uint64_t *keys, size_t n, uint64_t seed_state, uint64_t width, int64_t *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = (int64_t)slot_in(keys[i], seed_state, width);
}

/* ``_decode`` of every slot of one row of ``width`` slots: the counter the
 * slot belongs to, and for a shared counter its prefix above the joint. */
void decode_row(const void *row, int wide, const uint8_t *states, size_t width,
                int counter_bits, int shared_bits, uint64_t *out)
{
    machine m;
    m.slots = (void *)row; /* read only: ``read_span`` writes nothing */
    m.wide = wide;
    m.s = counter_bits;
    int hk = shared_bits >> 1;
    uint64_t hmask = ones(hk);
    for (size_t slot = 0; slot < width; slot++) {
        unsigned unit = unit_of(states, slot);
        size_t span = (size_t)1 << (unit >> 1);
        uint64_t value = read_span(&m, slot & ~(span - 1), span);
        if (unit & 1) {
            size_t first = slot & ~(2 * span - 1);
            uint64_t joint = ((get(row, wide, first) & hmask) << hk)
                             | (get(row, wide, first + span) & hmask);
            value = ((value >> hk) << shared_bits) | joint;
        }
        out[slot] = value;
    }
}

/* ``n`` keys to their answers: per key, the minimum over ``rows`` rows of
 * the key's slot in the row's decoded table. ``tables`` holds the rows one
 * after another, ``width`` uint64 values each, and row ``r`` is placed as
 * ``place`` places it under ``seed_states[r]``. */
void query_rows(const uint64_t *keys, size_t n, const uint64_t *seed_states,
                const uint64_t *tables, size_t rows, uint64_t width, uint64_t *out)
{
    for (size_t i = 0; i < n; i++) {
        uint64_t best = UINT64_MAX;
        for (size_t r = 0; r < rows; r++) {
            uint64_t v = tables[r * width + slot_in(keys[i], seed_states[r], width)];
            best = v < best ? v : best;
        }
        out[i] = best;
    }
}

/* numpy's ``random_interval(state, max)`` for ``1 <= max <= 2**32 - 1``: a
 * draw in ``[0, max]``, masked to the smallest all-ones value at or above
 * ``max`` and redrawn while above it. Every draw is a ``next_uint32`` there. */
static inline uint32_t draw_at_most(uint32_t max, void *state, uint32_t (*next_uint32)(void *))
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = next_uint32(state) & mask) > max)
        ;
    return value;
}

/* ``traffic.interleave_traces``: ``na`` labels 0 then ``nb`` labels 1,
 * shuffled as numpy's ``Generator.shuffle`` shuffles a 1-d array, and the
 * mix ``out``, which takes the keys of ``a`` in order at the labels 0 and
 * those of ``b`` at the labels 1. The shuffle is numpy's Fisher-Yates walk:
 * for ``i`` from ``n - 1`` down to 1, swap labels ``i`` and
 * ``draw_at_most(i)``. No later step touches a label above its own ``i``,
 * so label ``i`` is final after its step, and the same pass writes
 * ``out[i]``: the last key not yet placed of the side the label names.
 * ``end[label]`` selects that side without a branch; only that side's
 * pointer moves, and each side is read exactly once per key it holds, so
 * every read lies inside ``a`` or ``b``. ``state`` and ``next_uint32`` are
 * the bit generator's (``BitGenerator.ctypes``), left where ``shuffle``
 * leaves them. The caller guarantees ``na + nb <= 2**32``. */
void interleave(const uint64_t *a, size_t na, const uint64_t *b, size_t nb, void *state,
                uint32_t (*next_uint32)(void *), uint8_t *labels, uint64_t *out)
{
    size_t n = na + nb;
    const uint64_t *end[2] = {a + na, b + nb};
    memset(labels, 0, na);
    memset(labels + na, 1, nb);
    for (size_t i = n; i-- > 1;) {
        size_t j = draw_at_most((uint32_t)i, state, next_uint32);
        uint8_t label = labels[j];
        labels[j] = labels[i];
        labels[i] = label;
        out[i] = *--end[label];
    }
    if (n)
        out[0] = *--end[labels[0]];
}
