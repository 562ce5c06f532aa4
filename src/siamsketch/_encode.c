/* The kernel library: batched hashing, batched row placement, batched
 * encode, batched query, the shuffled interleave of two traces, the rank
 * search of a Zipf stream, an exact sum of float64 terms and Count-Min's
 * count: nine entry points.
 *
 * An entry point is a function defined at the start of a line and not
 * ``static``; ``_kernel.load`` reads its ctypes signature from that
 * definition. Its parameters and result are therefore pointers, ``size_t``,
 * ``uint64_t``, ``int`` or ``void``, and every helper is ``static``.
 *
 * ``hash_keys`` hashes a chunk of keys under one seed, as ``hashing.hash_u64``
 * does key by key. ``place`` maps a chunk of keys to their slots in one row,
 * as ``hashing.place_u64`` does key by key. Both share one ``mix64``.
 *
 * On x86-64 CPUs with AVX-512F and AVX-512DQ, ``hash_keys``, ``place`` and
 * ``query_rows`` take their keys in blocks of 8 through 8-lane bodies, which
 * share ``mix8`` and ``slot8`` as the scalar loops share ``mix64`` and
 * ``slot_in``, and write the same values. Only a GNU-compatible compiler for
 * x86-64 builds them, each function for those two extensions alone, so the
 * library needs no ``-march`` and loads on any x86-64 CPU; ``lanes`` asks
 * the CPU at run time. The scalar loops take the rest: a tail of fewer than
 * 8 keys, a row of 2**32 slots, which ``slot8``'s 32-bit multiplies cannot
 * reduce, and every key on other CPUs and under other compilers.
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
 * ``guide_search`` finds the rank of each draw of a Zipf stream as
 * ``traffic.guide_search`` defines it: it builds a guide table of the rank
 * CDF in one pass over the CDF, then bisects each draw's bracket of ranks
 * in one pass over the draws, which also checks that each draw lies in
 * ``[0, 1)``.
 *
 * ``sum_buckets`` adds float64 terms exactly, for ``metrics._exact_sum``: in
 * one pass it adds each term's significand into the integer bucket of its
 * exponent, from which Python forms the exact sum and rounds it once.
 *
 * ``count_min_row`` counts one chunk of slot indices into one row of
 * ``CountMinSketch``, whose ``_encode`` is a saturating +1. One saturating
 * +1 after another is slow where a skewed stream sends packet after packet
 * to the same few slots: each increment waits for the store of the one
 * before it. So, given lanes, it counts packet ``i`` into lane histogram
 * ``i % 4`` and then adds each slot's four lane counts to the row in one
 * saturating add. That is exact: increments commute, and one saturating
 * add of a sum equals that many saturating +1s. The lanes are merged at
 * least every ``LANE_BLOCK`` packets, so that no lane count wraps. The
 * caller passes the lanes or NULL, for one saturating +1 at a time, and
 * ``baselines.py`` records its rule. The lanes are the caller's, so the
 * library calls no allocator, and the other entry points keep their
 * addresses: imports of ``calloc`` and ``free`` moved every function by 32
 * bytes, and the ``many-flows`` instant ``encode_row`` took 1.044 ms against
 * 0.876 ms (best of 30, alternating in one process). For the same reason
 * ``count_min_row`` is the last function of this file.
 *
 * One full stream of each benchmark workload, pre-placed into 3 Count-Min
 * rows of 1152 slots in chunks of 65,536 packets, seed 7, best of 21
 * (2-core x86-64 host with AVX-512, gcc 12 -O2; ``np.bincount`` is the
 * fallback without the library):
 *
 *   workload     np.bincount  1 lane   4 lanes  8 lanes
 *   attack       8.92 ms      6.12 ms  1.99 ms  2.05 ms
 *   many-flows   1.13 ms      0.71 ms  0.47 ms  0.49 ms
 *
 * Eight lanes gain nothing over four and have twice the lanes to clear and
 * merge.
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
 * ``encode_row`` counts in one of three regimes, which leave the row
 * bit-identical:
 *
 * - ``count`` calls ``bump``, which branches on the slot's unit. It is
 *   compiled once per slot type, so the bump runs on a constant width and
 *   on locals, not on ``machine`` fields that every slot store could
 *   overwrite.
 * - ``count`` with ``fresh``, for either slot type, first tries the bump of
 *   an independent slot in a group still in code 0. It loads the packet's
 *   slot at its own address while it loads the group code, where ``bump``
 *   waits on the code, then on ``UNIT``, for the address of the counter's
 *   lowest slot. If the code is 0 and the slot is below the slot maximum it
 *   adds 1; any other packet takes the ``bump`` and ``settle`` of ``count``.
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
 * Once per call ``encode_row`` counts the row's groups that have left code
 * 0 and those that hold a shared pair. Where fewer than 1/10 of the groups
 * have left code 0 (``MOVED_SHARE``), as in a row under skewed traffic that
 * few counters outgrow, it runs ``count`` with ``fresh``: nearly every
 * packet then takes the fast path, which is about twice as fast as
 * ``count``. Above that share the packets to moved groups, which pay the
 * fast path's test before ``bump``, cost more than the fast path saves.
 * There, on predictable streams, where most packets of a run hit one unit
 * kind, ``count`` is faster. When the units of a row's packets are mixed,
 * as in a row under a slot-saturation attack, ``count_pairs`` is faster,
 * because ``count`` mispredicts its unit branch on about half of the
 * packets. So a uint8 row with at least 1/8 of its groups holding a shared
 * pair (``PAIR_SHARE``) runs ``count_pairs``, and every other row
 * ``count``. The comments above the two constants hold the measured
 * crossovers.
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

/* The loop of ``encode_row`` for one slot type, ``wide`` a constant; with
 * ``fresh``, also a constant, each packet first tries the code-0 fast path,
 * whose slot load does not wait on the group code. */
static inline void count(machine *m, const int64_t *idx, size_t n, int wide, int fresh)
{
    void *slots = m->slots;
    const uint8_t *states = m->states;
    uint64_t max0 = m->max[0], hmask = m->hmask;
    for (size_t i = 0; i < n; i++) {
        size_t slot = (size_t)idx[i];
        if (fresh) {
            uint64_t value = get(slots, wide, slot);
            if (states[slot >> 2] == 0 && value < max0) {
                set(slots, wide, slot, value + 1);
                continue;
            }
        }
        if (!bump(slots, wide, states, slot, max0, hmask))
            settle(m, slot);
    }
}

/* ``count_pairs`` runs when at least 1 / PAIR_SHARE of a row's groups hold
 * a shared pair. One 4096-slot row, 65,536 uniform packets, a share of
 * groups in code 4, best of 21, ``count`` against ``count_pairs`` (2-core
 * x86-64 host, gcc 12 -O2): 225 against 298 us at 0, 334 against 310 us at
 * 8 %, 390 against 316 us at 12.5 %, 933 against 377 us at 50 %. The
 * crossover lies between 4 and 8 % there; 1/8 errs towards ``count``, the
 * loop of every other row. On the benchmark's ``attack`` stream an sc-lsb
 * row passes 1/8 by its second chunk; on ``many-flows`` it stays below 1 %.
 * A group with a shared pair has left code 0, and 1/8 lies above the fast
 * path's 1/10 (``MOVED_SHARE``), so the fast path takes no row of this
 * loop's. */
#define PAIR_SHARE 8

/* ``count`` with ``fresh`` runs when fewer than 1 / MOVED_SHARE of a row's
 * groups have left code 0. One 4096-slot row, 65,536 uniform packets, a
 * share of groups planted in codes 1-10 (code 8, both pairs fused, for
 * instant), best of 63, ``count`` against ``count`` with ``fresh``, in us
 * (2-core x86-64 host, gcc 12 -O2):
 *
 *   moved     8-bit 8/4     8-bit 8/0     16-bit 16/8
 *   0 %       257 / 135     268 / 141     253 / 131
 *   3 %       275 / 196     276 / 184     265 / 177
 *   6.25 %    277 / 250     263 / 214     275 / 223
 *   9.4 %     294 / 301     261 / 251     293 / 268
 *   10.9 %    299 / 342     267 / 271     297 / 295
 *   12.5 %    330 / 363     260 / 282     310 / 321
 *   25 %      369 / 574     262 / 434     372 / 523
 *
 * A packet to a moved group pays the fast path's test before ``bump``'s own
 * branch. The crossover lies between 9 and 11 % in repeated sweeps, so
 * 1/10. On the benchmark's ``many-flows`` stream fewer than 1 % of a row's
 * groups leave code 0; on ``attack`` a row passes 1/10 by its second chunk,
 * so only the first chunk runs the fast path. */
#define MOVED_SHARE 10

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
    size_t moved = 0, shared = 0;
    for (size_t g = 0; g < groups; g++) {
        moved += states[g] != 0;
        shared += UNIT[2 * states[g]] == 1 || UNIT[2 * states[g] + 1] == 1;
    }
    if (moved * MOVED_SHARE < groups) {
        if (wide)
            count(&m, idx, n, 1, 1);
        else
            count(&m, idx, n, 0, 1);
    } else if (wide)
        count(&m, idx, n, 1, 0);
    else if (shared * PAIR_SHARE >= groups)
        count_pairs(&m, idx, n);
    else
        count(&m, idx, n, 0, 0);
    return m.discarded;
}

/* ``hashing.mix64``: the finalising avalanche over 64 bits. */
static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* A key's slot in ``[0, width)``: ``mix64(key ^ seed_state)``, then the high
 * 64 bits of ``hash * width``, taken in 32-bit halves so that no product
 * overflows; exact for ``width <= 2**32``. */
static inline size_t slot_in(uint64_t key, uint64_t seed_state, uint64_t width)
{
    uint64_t z = mix64(key ^ seed_state);
    return (size_t)(((z >> 32) * width + (((z & 0xFFFFFFFF) * width) >> 32)) >> 32);
}

/* The widths ``slot8`` takes: its multiplies read 32 bits of ``width``. */
#define LANE_WIDTH (UINT64_C(1) << 32)

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>

/* A function built for AVX-512F and AVX-512DQ alone, whatever the flags of
 * the library; only a caller that ``lanes`` allowed may call it. */
#define LANES __attribute__((target("avx512f,avx512dq")))

/* Whether this CPU, and the OS's saved vector state, run the 8-lane bodies. */
static int lanes(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}

/* ``mix64`` of 8 keys: ``_mm512_mullo_epi64`` keeps the low 64 bits of each
 * product, as the scalar multiply does. */
static inline LANES __m512i mix8(__m512i z)
{
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 30));
    z = _mm512_mullo_epi64(z, _mm512_set1_epi64((long long)UINT64_C(0xBF58476D1CE4E5B9)));
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 27));
    z = _mm512_mullo_epi64(z, _mm512_set1_epi64((long long)UINT64_C(0x94D049BB133111EB)));
    return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/* ``slot_in`` of 8 hashes, given ``width < LANE_WIDTH`` in every lane:
 * ``_mm512_mul_epu32`` multiplies the low 32 bits of two lanes into 64. */
static inline LANES __m512i slot8(__m512i z, __m512i width)
{
    __m512i high = _mm512_mul_epu32(_mm512_srli_epi64(z, 32), width);
    __m512i low = _mm512_srli_epi64(_mm512_mul_epu32(z, width), 32);
    return _mm512_srli_epi64(_mm512_add_epi64(high, low), 32);
}

/* The 8-lane bodies of ``hash_keys``, ``place`` and ``query_rows``: each
 * handles the whole blocks of 8 keys and returns how many keys that is. */
static LANES size_t hash_blocks(const uint64_t *keys, size_t n, uint64_t seed_state,
                                uint64_t *out)
{
    __m512i seed = _mm512_set1_epi64((long long)seed_state);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm512_storeu_si512(out + i, mix8(_mm512_xor_si512(_mm512_loadu_si512(keys + i), seed)));
    return i;
}

static LANES size_t place_blocks(const uint64_t *keys, size_t n, uint64_t seed_state,
                                 uint64_t width, int64_t *out)
{
    __m512i seed = _mm512_set1_epi64((long long)seed_state);
    __m512i w = _mm512_set1_epi64((long long)width);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i z = mix8(_mm512_xor_si512(_mm512_loadu_si512(keys + i), seed));
        _mm512_storeu_si512(out + i, slot8(z, w));
    }
    return i;
}

static LANES size_t query_blocks(const uint64_t *keys, size_t n, const uint64_t *seed_states,
                                 const uint64_t *tables, size_t rows, uint64_t width,
                                 uint64_t *out)
{
    __m512i w = _mm512_set1_epi64((long long)width);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i key = _mm512_loadu_si512(keys + i);
        __m512i best = _mm512_set1_epi64(-1);
        for (size_t r = 0; r < rows; r++) {
            __m512i seed = _mm512_set1_epi64((long long)seed_states[r]);
            __m512i slot = slot8(mix8(_mm512_xor_si512(key, seed)), w);
            __m512i v = _mm512_i64gather_epi64(slot, tables + r * width, 8);
            best = _mm512_min_epu64(best, v);
        }
        _mm512_storeu_si512(out + i, best);
    }
    return i;
}
#else
/* No 8-lane bodies: the scalar loops take every key. */
#define lanes() 0
#define hash_blocks(keys, n, seed_state, out) 0
#define place_blocks(keys, n, seed_state, width, out) 0
#define query_blocks(keys, n, seed_states, tables, rows, width, out) 0
#endif

/* ``n`` keys to their 64-bit hashes, ``mix64(key ^ seed_state)``. */
void hash_keys(const uint64_t *keys, size_t n, uint64_t seed_state, uint64_t *out)
{
    size_t i = lanes() ? hash_blocks(keys, n, seed_state, out) : 0;
    for (; i < n; i++)
        out[i] = mix64(keys[i] ^ seed_state);
}

/* ``n`` keys to their slots in one row. */
void place(const uint64_t *keys, size_t n, uint64_t seed_state, uint64_t width, int64_t *out)
{
    size_t i = width < LANE_WIDTH && lanes() ? place_blocks(keys, n, seed_state, width, out) : 0;
    for (; i < n; i++)
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
    size_t i = width < LANE_WIDTH && lanes()
                   ? query_blocks(keys, n, seed_states, tables, rows, width, out)
                   : 0;
    for (; i < n; i++) {
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

/* ``traffic.guide_search``: for each of ``nd`` draws ``u``, the first ``i``
 * with ``cdf[i] > u``, as ``np.searchsorted(cdf, draws, side="right")``
 * finds it in a sorted ``cdf`` of ``n`` values. One pass over ``cdf`` builds
 * the guide table, ``m + 1`` edges: ``edges[k]`` counts the ``i`` with
 * ``cdf[i] * m < k``. ``m`` is a power of two, so the product is exact, and
 * the table compares doubles; no CDF value is cast to an integer. A draw in
 * bucket ``b``, ``u * m`` truncated, has its rank in
 * ``[edges[b], edges[b + 1]]`` (``guide_search``'s docstring gives the
 * proof), and the same pass bisects that bracket. The edges are counts, so
 * every bracket lies in ``[0, n]`` and every ``cdf`` read lies in the array,
 * even for an unsorted ``cdf``, whose ranks are then wrong. A draw outside
 * ``[0, 1)``, NaN included, would index outside ``edges``: the search stops
 * there and returns its index. Returns ``nd`` when every draw is in range. */
size_t guide_search(const double *cdf, size_t n, const double *draws, size_t nd, size_t m,
                    int64_t *edges, int64_t *out)
{
    double scale = (double)m;
    size_t i = 0;
    for (size_t k = 0; k <= m; k++) {
        while (i < n && cdf[i] * scale < (double)k)
            i++;
        edges[k] = (int64_t)i;
    }
    for (size_t j = 0; j < nd; j++) {
        double u = draws[j];
        if (!(u >= 0.0 && u < 1.0))
            return j;
        size_t b = (size_t)(u * scale);
        size_t lo = (size_t)edges[b], hi = (size_t)edges[b + 1];
        while (lo < hi) {
            size_t mid = (lo + hi) >> 1;
            if (cdf[mid] > u)
                hi = mid;
            else
                lo = mid + 1;
        }
        out[j] = (int64_t)lo;
    }
    return nd;
}

/* ``metrics._exact_sum``: the exact sum of ``n`` doubles, none negative, -0.0
 * or not finite, as 2047 two-word buckets, one per biased exponent (bucket 0
 * unused). A double of biased exponent ``e >= 1`` is its 53-bit significand
 * times ``2**(e - 1075)``; a subnormal is its significand times
 * ``2**-1074``, the scale of bucket 1. So bucket ``e`` adds up the
 * significands of its exponent in ``buckets[2 * e]`` (low word) and
 * ``buckets[2 * e + 1]`` (high word), and the sum is
 * ``((hi << 64) | lo) << (e - 1)`` over the buckets, divided by
 * ``2**1074``. A significand is below ``2**53``, so the high word cannot
 * wrap before ``2**75`` terms. The carry into the high word is done by hand:
 * strict C99 has no 128-bit integer. Writes every bucket. Returns the index
 * of the first term whose sign bit is set or whose exponent is all ones
 * (infinite or NaN), its top 12 bits at least ``0x7FF``, and ``n`` when
 * there is none; the buckets then hold the terms before it. */
size_t sum_buckets(const double *values, size_t n, uint64_t *buckets)
{
    const uint64_t frac = (UINT64_C(1) << 52) - 1;
    memset(buckets, 0, 2 * 2047 * sizeof *buckets);
    for (size_t i = 0; i < n; i++) {
        uint64_t bits;
        memcpy(&bits, &values[i], sizeof bits);
        uint64_t e = bits >> 52;
        if (e >= 0x7FF)
            return i;
        uint64_t sig = (bits & frac) | ((uint64_t)(e != 0) << 52);
        uint64_t *b = buckets + 2 * (e + (e == 0));
        b[0] += sig;
        b[1] += b[0] < sig;
    }
    return n;
}

/* The most packets the lanes take before they are merged: each lane then
 * holds at most 2**32 - 1 of them, so no lane count wraps. */
#define LANE_BLOCK (4 * (uint64_t)UINT32_MAX)

/* ``CountMinSketch._encode``, of ``n`` packets given by slot, into one row of
 * ``width`` saturating uint32 counters. ``lanes`` is NULL, and each increment
 * saturates in turn, or it has room for ``4 * width`` uint32 lane counts,
 * which this overwrites: packet ``i`` is counted into lane ``i % 4``, and
 * each block of at most ``LANE_BLOCK`` packets ends in one merge, ``min(row
 * + sum of lanes, 2**32 - 1)`` per slot. The caller guarantees that every
 * index is in ``[0, width)``. */
void count_min_row(uint32_t *row, size_t width, const int64_t *idx, size_t n, uint32_t *lanes)
{
    if (lanes == NULL) {
        for (size_t i = 0; i < n; i++)
            row[idx[i]] += row[idx[i]] != UINT32_MAX;
        return;
    }
    uint32_t *l0 = lanes, *l1 = l0 + width, *l2 = l1 + width, *l3 = l2 + width;
    for (size_t start = 0; start < n;) {
        size_t end = n - start > LANE_BLOCK ? start + (size_t)LANE_BLOCK : n;
        size_t i = start;
        memset(lanes, 0, 4 * width * sizeof *lanes);
        for (; i + 4 <= end; i += 4) {
            l0[idx[i]]++;
            l1[idx[i + 1]]++;
            l2[idx[i + 2]]++;
            l3[idx[i + 3]]++;
        }
        for (; i < end; i++)
            lanes[(i - start) % 4 * width + (size_t)idx[i]]++;
        for (size_t s = 0; s < width; s++) {
            uint64_t v = (uint64_t)row[s] + l0[s] + l1[s] + l2[s] + l3[s];
            row[s] = v < UINT32_MAX ? (uint32_t)v : UINT32_MAX;
        }
        start = end;
    }
}
