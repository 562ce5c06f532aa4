/* Batched encode of the dynamic-counter engine: one row, one chunk of slot
 * indices, in stream order.
 *
 * This is a line-for-line port of ``DynamicSketch._encode`` and its
 * transitions (``_share_pair``, ``_fuse_pair``, ``_share_group``,
 * ``_fuse_group``) in ``sketch.py``, which stay the specification; keep the
 * two in step. The row and its group codes are the sketch's own
 * ``array.array`` buffers, updated in place. The caller guarantees that every
 * index is in ``[0, width)``.
 *
 * Built by ``_kernel.py`` with the system C compiler and loaded with ctypes.
 */

#include <stddef.h>
#include <stdint.h>

enum { PAIR_INDEPENDENT = 0, PAIR_SHARED = 1, PAIR_MERGED = 2 };
enum { GROUP_SHARED_WIDE = 9, GROUP_MERGED_WIDE = 10 };

typedef struct {
    void *slots;
    int wide; /* slots are uint16 (counter_bits > 8), else uint8 */
    uint8_t *states;
    int s, k, hk, mode_sum;
    uint64_t max_base, max_wide, max_quad;
    uint64_t kmask, hmask, clr_base, clr_wide, pmax_base, pmax_wide;
    uint64_t discarded;
} machine;

static inline uint64_t get(const machine *m, size_t i)
{
    return m->wide ? ((const uint16_t *)m->slots)[i] : ((const uint8_t *)m->slots)[i];
}

static inline void set(machine *m, size_t i, uint64_t v)
{
    if (m->wide)
        ((uint16_t *)m->slots)[i] = (uint16_t)v;
    else
        ((uint8_t *)m->slots)[i] = (uint8_t)v;
}

static inline int pair_state(unsigned code, unsigned pair)
{
    return pair == 0 ? code / 3 : code % 3;
}

static void write_wide(machine *m, size_t base, uint64_t value)
{
    set(m, base, value & m->max_base);
    set(m, base + 1, value >> m->s);
}

static void write_quad(machine *m, size_t base, uint64_t value)
{
    int s = m->s;
    set(m, base, value & m->max_base);
    set(m, base + 1, (value >> s) & m->max_base);
    set(m, base + 2, (value >> (2 * s)) & m->max_base);
    set(m, base + 3, value >> (3 * s));
}

static void set_pair_state(machine *m, size_t group, unsigned pair, unsigned state)
{
    unsigned code = m->states[group];
    if (pair == 0)
        code = 3 * state + code % 3;
    else
        code = 3 * (code / 3) + state;
    m->states[group] = (uint8_t)code;
}

static void share_pair(machine *m, size_t group, unsigned pair)
{
    size_t base = (group << 2) | (pair << 1);
    size_t lo = base + 1;
    uint64_t ve = get(m, base), vo = get(m, lo);
    uint64_t le = ve & m->kmask;
    uint64_t lr = vo & m->kmask;
    uint64_t joint = le >= lr ? le : lr;
    /* The smaller low part is dropped by the max initialization. */
    m->discarded += le + lr - joint;
    set(m, base, ((ve >> m->k) << m->hk) | (joint >> m->hk));
    set(m, lo, ((vo >> m->k) << m->hk) | (joint & m->hmask));
    set_pair_state(m, group, pair, PAIR_SHARED);
}

static void fuse_pair(machine *m, size_t group, unsigned pair)
{
    size_t base = (group << 2) | (pair << 1);
    size_t lo = base + 1;
    uint64_t value;
    if (pair_state(m->states[group], pair) == PAIR_INDEPENDENT) {
        uint64_t a = get(m, base), b = get(m, lo);
        value = m->mode_sum ? a + b : (a >= b ? a : b);
    } else {
        uint64_t pa = get(m, base) >> m->hk;
        uint64_t pb = get(m, lo) >> m->hk;
        uint64_t joint = ((get(m, base) & m->hmask) << m->hk) | (get(m, lo) & m->hmask);
        if (m->mode_sum)
            value = ((pa + pb) << m->k) | joint;
        else
            value = ((pa >= pb ? pa : pb) << m->k) | joint;
    }
    write_wide(m, base, value);
    set_pair_state(m, group, pair, PAIR_MERGED);
}

static void share_group(machine *m, size_t group)
{
    size_t base = group << 2;
    uint64_t qa = get(m, base) | (get(m, base + 1) << m->s);
    uint64_t qb = get(m, base + 2) | (get(m, base + 3) << m->s);
    uint64_t la = qa & m->kmask;
    uint64_t lb = qb & m->kmask;
    uint64_t joint = la >= lb ? la : lb;
    m->discarded += la + lb - joint;
    qa = ((qa >> m->k) << m->hk) | (joint >> m->hk);
    qb = ((qb >> m->k) << m->hk) | (joint & m->hmask);
    write_wide(m, base, qa);
    write_wide(m, base + 2, qb);
    m->states[group] = GROUP_SHARED_WIDE;
}

static void fuse_group(machine *m, size_t group)
{
    size_t base = group << 2;
    uint64_t qa = get(m, base) | (get(m, base + 1) << m->s);
    uint64_t qb = get(m, base + 2) | (get(m, base + 3) << m->s);
    uint64_t value;
    if (m->states[group] == GROUP_SHARED_WIDE) {
        uint64_t pa = qa >> m->hk;
        uint64_t pb = qb >> m->hk;
        uint64_t joint = ((qa & m->hmask) << m->hk) | (qb & m->hmask);
        if (m->mode_sum)
            value = ((pa + pb) << m->k) | joint;
        else
            value = ((pa >= pb ? pa : pb) << m->k) | joint;
    } else {
        value = m->mode_sum ? qa + qb : (qa >= qb ? qa : qb);
    }
    write_quad(m, base, value);
    m->states[group] = GROUP_MERGED_WIDE;
}

/* One packet to one slot. Where ``_encode`` applies a transition and calls
 * itself again, this loops. */
static void encode(machine *m, size_t slot)
{
    for (;;) {
        size_t g = slot >> 2;
        unsigned code = m->states[g];
        if (code < GROUP_SHARED_WIDE) {
            unsigned pair = (slot >> 1) & 1;
            int ps = pair_state(code, pair);
            if (ps == PAIR_INDEPENDENT) {
                uint64_t v = get(m, slot);
                if (v < m->max_base) {
                    set(m, slot, v + 1);
                    return;
                }
                if (m->k)
                    share_pair(m, g, pair);
                else
                    fuse_pair(m, g, pair);
                continue;
            }
            if (ps == PAIR_SHARED) {
                size_t base = (g << 2) | (pair << 1);
                size_t lo = base + 1;
                uint64_t hmask = m->hmask;
                uint64_t low = get(m, lo);
                if ((low & hmask) != hmask) {
                    /* joint sub-counter's low half has room: single-slot bump */
                    set(m, lo, low + 1);
                    return;
                }
                int hk = m->hk;
                uint64_t joint = ((get(m, base) & hmask) << hk) | hmask;
                if (joint < m->kmask) {
                    /* carry into the high half, clear the low half */
                    set(m, base, get(m, base) + 1);
                    set(m, lo, low & m->clr_base);
                    return;
                }
                uint64_t prefix = get(m, slot) >> hk;
                if (prefix < m->pmax_base) {
                    set(m, base, get(m, base) & m->clr_base);
                    set(m, lo, get(m, lo) & m->clr_base);
                    set(m, slot, (prefix + 1) << hk);
                    return;
                }
                fuse_pair(m, g, pair);
                continue;
            }
            size_t base = (g << 2) | (pair << 1);
            uint64_t low = get(m, base);
            if (low < m->max_base) {
                set(m, base, low + 1);
                return;
            }
            uint64_t v = low | (get(m, base + 1) << m->s);
            if (v < m->max_wide) {
                v += 1;
                set(m, base, v & m->max_base);
                set(m, base + 1, v >> m->s);
                return;
            }
            unsigned sibling = pair ^ 1;
            if (pair_state(code, sibling) != PAIR_MERGED)
                fuse_pair(m, g, sibling);
            if (m->k)
                share_group(m, g);
            else
                fuse_group(m, g);
            continue;
        }
        size_t base = g << 2;
        int s_bits = m->s;
        if (code == GROUP_SHARED_WIDE) {
            uint64_t hmask = m->hmask;
            uint64_t low = get(m, base + 2);
            if ((low & hmask) != hmask) {
                /* low half of the joint sub-counter lives in pair B's low slot */
                set(m, base + 2, low + 1);
                return;
            }
            int hk = m->hk;
            uint64_t qa = get(m, base) | (get(m, base + 1) << s_bits);
            uint64_t qb = low | (get(m, base + 3) << s_bits);
            uint64_t joint = ((qa & hmask) << hk) | hmask;
            unsigned pair = (slot >> 1) & 1;
            if (joint < m->kmask) {
                write_wide(m, base, qa + 1);
                set(m, base + 2, low & m->clr_base);
                return;
            }
            uint64_t prefix = (pair == 0 ? qa : qb) >> hk;
            if (prefix < m->pmax_wide) {
                qa &= m->clr_wide;
                qb &= m->clr_wide;
                if (pair == 0)
                    qa = (prefix + 1) << hk;
                else
                    qb = (prefix + 1) << hk;
                write_wide(m, base, qa);
                write_wide(m, base + 2, qb);
                return;
            }
            fuse_group(m, g);
            continue;
        }
        uint64_t low = get(m, base);
        if (low < m->max_base) {
            set(m, base, low + 1);
            return;
        }
        uint64_t v = low | (get(m, base + 1) << s_bits) | (get(m, base + 2) << (2 * s_bits))
                     | (get(m, base + 3) << (3 * s_bits));
        if (v < m->max_quad)
            write_quad(m, base, v + 1);
        return;
    }
}

static uint64_t ones(int bits)
{
    /* 1 << 64 is undefined in C; a 16-bit quad counter holds 64 bits. */
    return bits >= 64 ? UINT64_MAX : (UINT64_C(1) << bits) - 1;
}

/* Count ``n`` packets, given by slot, into one row; returns the content the
 * share initializations among them dropped (the row's ``lsb_discard``). */
uint64_t encode_row(void *row, int wide, uint8_t *states, const int64_t *idx, size_t n,
                    int counter_bits, int shared_bits, int sum_mode)
{
    machine m;
    m.slots = row;
    m.wide = wide;
    m.states = states;
    m.s = counter_bits;
    m.k = shared_bits;
    m.hk = shared_bits >> 1;
    m.mode_sum = sum_mode;
    m.max_base = ones(counter_bits);
    m.max_wide = ones(2 * counter_bits);
    m.max_quad = ones(4 * counter_bits);
    /* With sharing disabled these are all 0 and no shared state occurs. */
    m.kmask = ones(shared_bits);
    m.hmask = ones(m.hk);
    m.clr_base = m.max_base ^ m.hmask;
    m.clr_wide = m.max_wide ^ m.hmask;
    m.pmax_base = ones(counter_bits - m.hk);
    m.pmax_wide = ones(2 * counter_bits - m.hk);
    m.discarded = 0;
    for (size_t i = 0; i < n; i++)
        encode(&m, (size_t)idx[i]);
    return m.discarded;
}
