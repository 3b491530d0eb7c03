/* The native kernel behind ehcsim._kernels, a CPython extension module with
 * multi-phase initialization (PEP 489): one cache loop (ehcsim_simulate)
 * for every built-in policy and for the offline Belady MIN oracle, the
 * next-use scan MIN and victim ranking read (ehcsim_next_use), the
 * hit-count prediction-error histogram over MIN's residencies
 * (ehcsim_prediction_error), and a trace record reader
 * (ehcsim_read_records), so that a run, a compare or an analyze skips numpy.
 * Each takes its arrays as objects with the buffer protocol (a bytearray,
 * a memoryview over anonymous mmap, a numpy array) and checks per call the
 * item size and signedness, C order, room and, for an output, writability
 * of each one, raising TypeError or ValueError before anything runs.
 *
 * ehcsim_simulate runs one loop over the trace, dispatched on policy_id, and
 * reproduces the reference engine (ehcsim.engine.simulate) bit for bit, for
 * the seven built-in policies as for MIN (ehcsim.minoracle.MinPolicy).
 * The six RRPV policies share one victim scan: the first line at RRPV_MAX,
 * else the first with the largest rrpv - efh (efh is 0 but for EHC), which
 * is a no-averse replacement for Hawkeye and EHC.
 * ehcsim._kernels prepends a generated #define block before compiling: every
 * integer constant of ehcsim.params (those of 2^63 or more with a ULL
 * suffix), READ_STATE_WORDS, the POLICY_* ids, COUNTERS and the OUT_*
 * counter slots, the widths and fields of the two row layouts below, and from
 * ehcsim.traceformat the record size RECORD_BYTES, the RECORD_* field
 * offsets, KIND_WRITE and the CHECK_* record check numbers. So this file
 * defines no policy or format constant of its own.
 *
 * An event row is EVENT_FIELDS + assoc int64_t values: the EVENT_* fields
 * (the trace position of the replacing miss, the victim way, no_averse),
 * then, for every way, the trace position of its resident's latest access.
 * Sets, addresses and next uses are gathers from the trace by position.
 * A residency row, MIN's record of one fill, is the ROW_FIELDS int64_t
 * values ROW_* (the fill position, the position of the miss that evicted
 * the block, or n when it stayed to the end, and its hits). Each output a
 * caller does not want is passed as NULL, and the kernel then leaves it off.
 *
 * The lines of the cache and the slots of the sampled sets hold block
 * numbers, addr >> block_bits, not tags: within one set a block and its
 * tag determine each other. A set's valid lines are its first filled[set]
 * ways: a fill takes the first free way, a bypass fills none and nothing
 * invalidates a line, so one count per set stands for a valid bit per line.
 * A line, set * assoc + way, has an entry in five tables: tagv, its block;
 * stamp, its block's latest access (LRU's and MIN's victims, the event rows,
 * and Hawkeye's and EHC's PC, pc[stamp], that of the latest hit or fill);
 * rrpv (the six RRPV policies); efh (EHC's victims; 0 for the others); and
 * stay, its fill and hits (MIN's rows; SHiP's signature, the filling PC's
 * xor_fold(pc[fill], SHCT_BITS), and outcome, a hit since: stamp != fill).
 * Sampled set s keeps its OPTgen window in cap Slots, position j in slot
 * j % cap, as ehcsim.sampler.SampledSetHistory keeps it in two lists;
 * seen[s], the accesses s recorded, puts the window at positions
 * seen[s] - cap to seen[s] - 1, so slot seen[s] % cap takes the next one.
 * A slot is live while its block's latest access is recorded there; a slot
 * never used is not live. A reuse walks the slots from the block's live
 * slot up to the one the new position takes, wrapping at cap (all cap of
 * them when the two are one), and a live slot about to be overwritten
 * completes its block's stay.
 *
 * Addresses, PCs and block numbers are uint64_t; counters and positions are
 * int64_t; flags and 3-bit fields are uint8_t.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REGION_NONE UINT64_MAX /* no region id reaches it: ids are addr >> REGION_SHIFT */

/* The last REGION_RING_SLOTS hit counts of one key: a region of EHC's
 * table (RegionHitTable), or a key of the prediction-error histograms. */
typedef struct {
    uint64_t key;
    int64_t ring[REGION_RING_SLOTS];
    int64_t pushes; /* push k wrote slot k % REGION_RING_SLOTS */
} Ring;

static inline void ring_push(Ring *r, int64_t hits)
{
    r->ring[r->pushes++ % REGION_RING_SLOTS] = hits;
}

/* The round-half-up mean of the ring's counts, for pushes > 0. */
static inline int64_t ring_mean(const Ring *r)
{
    const int64_t count = r->pushes < REGION_RING_SLOTS ? r->pushes : REGION_RING_SLOTS;
    int64_t total = 0;
    for (int64_t k = 0; k < count; k++)
        total += r->ring[k];
    return (2 * total + count) / (2 * count);
}

/* Whether a * b overflows int64_t, for a, b >= 0. */
static inline int mul_overflows(int64_t a, int64_t b)
{
    return b != 0 && a > INT64_MAX / b;
}

/* x >> n as Python computes it: C leaves shifts by 64 or more undefined. */
static inline uint64_t shr(uint64_t x, int64_t n)
{
    return n < 64 ? x >> n : 0;
}

/* x << n as Python computes it, modulo 2^64. */
static inline uint64_t shl(uint64_t x, int64_t n)
{
    return n < 64 ? x << n : 0;
}

/* The home slot of key in an open-addressed table of 2^bits slots, for
 * 1 <= bits <= 63: Fibonacci hashing, the top bits of key * 2^64 / phi. */
static inline uint64_t home_slot(uint64_t key, int bits)
{
    return (key * SM_GAMMA) >> (64 - bits);
}

/* ehcsim.hashing.xor_fold */
static inline uint64_t xor_fold(uint64_t value, int bits)
{
    uint64_t mask = ((uint64_t)1 << bits) - 1, out = 0;
    while (value) {
        out ^= value & mask;
        value >>= bits;
    }
    return out;
}

/* ehcsim.policies.brrip_long_insert: whether bimodal insertion n of the
 * run uses the long RRPV. Counter-mode splitmix64 keyed by (seed, n), with
 * seed already reduced modulo 2^64; unsigned arithmetic wraps as the
 * Python version's masks do. */
static inline int brrip_long_insert(uint64_t seed, uint64_t n)
{
    uint64_t z = seed + (n + 1) * SM_GAMMA;
    z = (z ^ (z >> 30)) * SM_MIX1;
    z = (z ^ (z >> 27)) * SM_MIX2;
    z ^= z >> 31;
    return (z & (BRRIP_LONG_ODDS - 1)) == 0;
}

/* RegionHitTable.record_eviction, on a table of REGION_TABLE_SIZE rings */
static void region_push(Ring *regions, uint64_t addr, int64_t hits)
{
    const uint64_t rid = addr >> REGION_SHIFT;
    Ring *r = regions + xor_fold(rid, REGION_TABLE_BITS);
    if (r->key != rid)
        *r = (Ring){.key = rid};
    ring_push(r, hits);
}

/* RegionHitTable.expected_hits */
static int64_t region_expected(const Ring *regions, uint64_t addr)
{
    const uint64_t rid = addr >> REGION_SHIFT;
    const Ring *r = regions + xor_fold(rid, REGION_TABLE_BITS);
    if (r->key != rid || r->pushes == 0)
        return DEFAULT_EXPECTED_HITS;
    const int64_t avg = ring_mean(r);
    return avg > EFH_MAX ? EFH_MAX : avg;
}

/* Zeroed tables, all released by free_tables. */
#define MAX_TABLES 24
typedef struct {
    void *ptr[MAX_TABLES];
    int n;
    int failed;
} Tables;

static void *table(Tables *t, int64_t count, size_t size)
{
    void *p = calloc(count > 0 ? (size_t)count : 1, size);
    if (!p)
        t->failed = 1;
    t->ptr[t->n++] = p;
    return p;
}

static void free_tables(Tables *t)
{
    for (int k = 0; k < t->n; k++)
        free(t->ptr[k]);
}

/* One position of a sampled set's OPTgen window: its occupancy
 * (SampledSetHistory.occ) and the access recorded there
 * (SampledSetHistory.records), a block, the PC of that access and the fill
 * address and hits so far of the block's stay, and whether it is still the
 * block's latest (SampledSetHistory.live). */
typedef struct {
    uint64_t block, pc, addr;
    int64_t hits, occ;
    uint8_t live;
} Slot;

/* The stay of a block in one line: its fill position and its hits. */
typedef struct {
    int64_t fill, hits;
} Stay;

/* Residency row k. */
static inline void write_row(int64_t *rows, int64_t k, int64_t fill, int64_t end, int64_t hits)
{
    int64_t *row = rows + k * ROW_FIELDS;
    row[ROW_FILL] = fill;
    row[ROW_END] = end;
    row[ROW_HITS] = hits;
}

static int by_fill(const void *a, const void *b)
{
    const int64_t x = ((const Stay *)a)->fill, y = ((const Stay *)b)->fill;
    return (x > y) - (x < y);
}

/* Simulate n accesses. hit_flags[i] is set for every hit and out[OUT_*]
 * receives the counters; events, rows and ranks may each be NULL, which
 * leaves that output off. With events, the k-th miss in a full set fills
 * event row k, events[k * (EVENT_FIELDS + assoc) ...], from stamp.
 * seed keys the bimodal insertion draws (BRRIP, DRRIP).
 * next_use[i] is the position of the next access to the block of access i
 * (ehcsim_next_use). MIN evicts the first way whose next use,
 * next_use[stamp], is farthest. With bypass, MIN leaves the incoming block
 * out when its own next use is strictly farther, and logs the miss with
 * BYPASS as its victim way. With rows, MIN writes one residency row per
 * fill: each eviction as it happens, then the lines still resident, by
 * fill, so the rows are in completion order; a bypass writes none.
 * out[OUT_ROWS] and out[OUT_ROW_HITS] receive how many rows it wrote and
 * the sum of their hits, and out[OUT_SAMPLED] the accesses the sampled
 * sets recorded, the sum of seen; ehcsim._kernels.run checks both. With
 * ranks, assoc + 1 zeroed entries, every replacement adds one at the rank
 * of its victim: how many of the residents and the incoming block are next
 * used strictly later (ehcsim.minoracle.victim_quality). Only MIN, which
 * is never ranked, reads bypass and writes rows; the other policies read
 * next_use only for ranks, so without ranks it may be NULL for them.
 * Returns 0, or -1 when the tables cannot be allocated, which includes a
 * geometry whose table sizes overflow int64_t: a wrapped size would
 * allocate too little and the loop would index past it. */
static int ehcsim_simulate(
    int64_t n, const uint64_t *addr, const uint64_t *pc,
    int64_t num_sets, int64_t assoc, int64_t block_bits,
    int64_t policy_id, uint64_t seed,
    const int64_t *next_use, int64_t bypass, int64_t *rows, int64_t *ranks,
    int64_t *events, uint8_t *hit_flags, int64_t *out)
{
    if (mul_overflows(num_sets, assoc) || mul_overflows(WINDOW_SLOTS_PER_WAY, assoc)
        || mul_overflows(num_sets / SAMPLE_PERIOD + 1, WINDOW_SLOTS_PER_WAY * assoc))
        return -1;
    const int64_t lines = num_sets * assoc;
    const int64_t nsamp = (num_sets + SAMPLE_PERIOD - 1) / SAMPLE_PERIOD;
    const int64_t cap = WINDOW_SLOTS_PER_WAY * assoc;
    const int64_t ev_width = EVENT_FIELDS + assoc;
    const uint64_t set_mask = (uint64_t)num_sets - 1;
    const int rrip = policy_id == POLICY_SRRIP || policy_id == POLICY_BRRIP
        || policy_id == POLICY_DRRIP || policy_id == POLICY_SHIP;
    const int sampled = policy_id == POLICY_HAWKEYE || policy_id == POLICY_EHC;
    Tables t = {{0}, 0, 0};

    int64_t *filled = table(&t, num_sets, sizeof *filled);
    uint64_t *tagv = table(&t, lines, sizeof *tagv);
    uint8_t *rrpv = table(&t, lines, sizeof *rrpv);
    uint8_t *efh = table(&t, lines, sizeof *efh);
    int64_t *stamp = table(&t, lines, sizeof *stamp);
    Stay *stay = table(&t, lines, sizeof *stay);
    uint8_t *shct = table(&t, SHCT_SIZE, sizeof *shct);
    uint8_t *pc_tbl = table(&t, PC_TABLE_SIZE, sizeof *pc_tbl);
    Ring *regions = table(&t, REGION_TABLE_SIZE, sizeof *regions);
    int64_t *seen = table(&t, nsamp, sizeof *seen);
    Slot *slots = table(&t, nsamp * cap, sizeof *slots);
    if (t.failed) {
        free_tables(&t);
        return -1;
    }
    for (int64_t k = 0; k < PC_TABLE_SIZE; k++)
        pc_tbl[k] = PC_COUNTER_INIT;
    for (int64_t k = 0; k < REGION_TABLE_SIZE; k++)
        regions[k].key = REGION_NONE;

    int64_t hits = 0, replacements = 0, bypasses = 0, no_averse_count = 0, long_inserts = 0;
    int64_t optgen_cold = 0, optgen_hit = 0, optgen_miss = 0;
    int64_t psel = PSEL_INIT, written = 0;
    uint64_t ins = 0;

    for (int64_t i = 0; i < n; i++) {
        const uint64_t a = addr[i], p = pc[i];
        const uint64_t block = shr(a, block_bits);
        const int64_t si = (int64_t)(block & set_mask);

        /* Sampled-set MIN emulation feeding the hawkeye/ehc predictors. */
        if (sampled && si % SAMPLE_PERIOD == 0) {
            const int64_t s = si / SAMPLE_PERIOD, at = seen[s] % cap;
            Slot *srow = slots + s * cap, *hit = NULL;
            int64_t carried_hits = 0;
            uint64_t ent_addr = a;
            /* A block has at most one live slot, and a reuse is most often
             * recent: look from the newest slot back, at - 1 down to 0 and
             * then cap - 1 down to at. A slot never used is zeroed, not live. */
            for (int64_t k = at - 1; k >= 0 && !hit; k--)
                if (srow[k].block == block && srow[k].live)
                    hit = srow + k;
            for (int64_t k = cap - 1; k >= at && !hit; k--)
                if (srow[k].block == block && srow[k].live)
                    hit = srow + k;
            if (!hit) {
                optgen_cold++;
            } else {
                const uint64_t fi = xor_fold(hit->pc, PC_TABLE_BITS);
                /* The hit's position to seen[s] - 1: its slot up to at. */
                const int64_t from = hit - srow;
                int64_t k = from;
                int ok;
                do {
                    ok = srow[k].occ < assoc;
                    k = k + 1 == cap ? 0 : k + 1;
                } while (ok && k != at);
                if (ok) {
                    optgen_hit++;
                    k = from;
                    do {
                        srow[k].occ++;
                        k = k + 1 == cap ? 0 : k + 1;
                    } while (k != at);
                    carried_hits = hit->hits + 1;
                    if (pc_tbl[fi] < PC_COUNTER_MAX)
                        pc_tbl[fi]++;
                } else {
                    optgen_miss++;
                    if (pc_tbl[fi] > 0)
                        pc_tbl[fi]--;
                    region_push(regions, hit->addr, hit->hits);
                }
                ent_addr = hit->addr;
                hit->live = 0;
            }
            /* Position seen[s] - cap leaves the window, completing a live stay. */
            Slot *entry = srow + at;
            if (entry->live)
                region_push(regions, entry->addr, entry->hits);
            *entry = (Slot){.block = block, .pc = p, .addr = ent_addr, .hits = carried_hits,
                            .live = 1};
            seen[s]++;
        }

        const int64_t row = si * assoc;
        uint64_t *trow = tagv + row;
        uint8_t *rrow = rrpv + row;
        uint8_t *erow = efh + row;
        int64_t way = -1;
        for (int64_t w = 0; w < filled[si]; w++) {
            if (trow[w] == block) {
                way = w;
                break;
            }
        }

        if (way >= 0) {
            hits++;
            hit_flags[i] = 1;
            stamp[row + way] = i;
            if (rrip) {
                rrow[way] = 0;
            } else if (sampled) {
                if (policy_id == POLICY_EHC && erow[way] > 0)
                    erow[way]--;
                rrow[way] = pc_tbl[xor_fold(p, PC_TABLE_BITS)] >= PC_FRIENDLY_THRESHOLD
                    ? 0 : RRPV_MAX;
            } else if (policy_id == POLICY_MIN) {
                stay[row + way].hits++;
            }
            continue;
        }

        if (filled[si] < assoc) {
            way = filled[si]++;
        } else {
            int64_t no_averse = 0;
            if (policy_id == POLICY_LRU) {
                const int64_t *srow = stamp + row;
                way = 0;
                for (int64_t w = 1; w < assoc; w++)
                    if (srow[w] < srow[way])
                        way = w;
            } else if (policy_id == POLICY_MIN) {
                const int64_t *srow = stamp + row;
                way = 0;
                for (int64_t w = 1; w < assoc; w++)
                    if (next_use[srow[w]] > next_use[srow[way]])
                        way = w;
                if (bypass && next_use[i] > next_use[srow[way]]) {
                    way = BYPASS;
                } else if (rows) {
                    write_row(rows, written++, stay[row + way].fill, i, stay[row + way].hits);
                }
            } else {
                /* The first line at RRPV_MAX (for Hawkeye and EHC, an averse
                 * one), else the first with the largest rrpv - efh; efh stays
                 * 0 but for EHC. Selects, not branches, carry that lead,
                 * which moves erratically. */
                way = 0;
                while (way < assoc && rrow[way] < RRPV_MAX)
                    way++;
                if (way == assoc) {
                    int lead = rrow[0] - erow[0];
                    way = 0;
                    for (int64_t w = 1; w < assoc; w++) {
                        const int key = rrow[w] - erow[w], up = key > lead;
                        lead = up ? key : lead;
                        way = up ? w : way;
                    }
                    if (rrip) {
                        /* where the hardware's increment-and-rescan loop stops */
                        for (int64_t w = 0; w < assoc; w++)
                            rrow[w] += RRPV_MAX - lead;
                    } else {
                        const uint64_t fi = xor_fold(pc[stamp[row + way]], PC_TABLE_BITS);
                        no_averse = 1;
                        no_averse_count++;
                        if (pc_tbl[fi] > 0)
                            pc_tbl[fi]--;
                    }
                }
                if (policy_id == POLICY_SHIP) {
                    const int64_t fill = stay[row + way].fill;
                    const uint64_t sg = xor_fold(pc[fill], SHCT_BITS);
                    if (stamp[row + way] != fill) {
                        if (shct[sg] < SHCT_MAX)
                            shct[sg]++;
                    } else if (shct[sg] > 0) {
                        shct[sg]--;
                    }
                }
            }
            if (events) {
                int64_t *ev = events + (replacements + bypasses) * ev_width;
                ev[EVENT_INDEX] = i;
                ev[EVENT_VICTIM_WAY] = way;
                ev[EVENT_NO_AVERSE] = no_averse;
                for (int64_t w = 0; w < assoc; w++)
                    ev[EVENT_FIELDS + w] = stamp[row + w];
            }
            if (ranks) {
                const int64_t *srow = stamp + row, victim = next_use[srow[way]];
                int64_t rank = next_use[i] > victim;
                for (int64_t w = 0; w < assoc; w++)
                    rank += next_use[srow[w]] > victim;
                ranks[rank]++;
            }
            if (way == BYPASS) {
                bypasses++;
                continue;
            }
            replacements++;
        }

        trow[way] = block;
        stamp[row + way] = i;
        if (policy_id == POLICY_SRRIP) {
            rrow[way] = RRPV_MAX - 1;
        } else if (policy_id == POLICY_BRRIP) {
            if (brrip_long_insert(seed, ins++)) {
                long_inserts++;
                rrow[way] = RRPV_MAX - 1;
            } else {
                rrow[way] = RRPV_MAX;
            }
        } else if (policy_id == POLICY_DRRIP) {
            const int64_t off = si % LEADER_PERIOD;
            if (off == SRRIP_LEADER_OFFSET) {
                if (psel < PSEL_MAX)
                    psel++;
            } else if (off == BRRIP_LEADER_OFFSET) {
                if (psel > 0)
                    psel--;
            }
            if (off == BRRIP_LEADER_OFFSET
                || (off != SRRIP_LEADER_OFFSET && psel >= PSEL_INIT))
                rrow[way] = brrip_long_insert(seed, ins++) ? RRPV_MAX - 1 : RRPV_MAX;
            else
                rrow[way] = RRPV_MAX - 1;
        } else if (policy_id == POLICY_SHIP) {
            stay[row + way].fill = i;
            rrow[way] = shct[xor_fold(p, SHCT_BITS)] == 0 ? RRPV_MAX : RRPV_MAX - 1;
        } else if (sampled) {
            if (pc_tbl[xor_fold(p, PC_TABLE_BITS)] >= PC_FRIENDLY_THRESHOLD) {
                for (int64_t w = 0; w < assoc; w++)
                    if (w != way && w < filled[si] && rrow[w] < RRPV_MAX - 1)
                        rrow[w]++;
                rrow[way] = 0;
            } else {
                rrow[way] = RRPV_MAX;
            }
            if (policy_id == POLICY_EHC)
                erow[way] = region_expected(regions, a);
        } else if (policy_id == POLICY_MIN) {
            stay[row + way] = (Stay){.fill = i};
        }
    }

    if (rows && policy_id == POLICY_MIN) {
        /* The resident stays, moved to the front of stay, by fill. */
        int64_t stays = 0;
        for (int64_t s = 0; s < num_sets; s++)
            for (int64_t w = 0; w < filled[s]; w++)
                stay[stays++] = stay[s * assoc + w];
        qsort(stay, (size_t)stays, sizeof *stay, by_fill);
        for (int64_t k = 0; k < stays; k++)
            write_row(rows, written++, stay[k].fill, n, stay[k].hits);
    }
    int64_t row_hits = 0, recorded = 0;
    for (int64_t k = 0; k < written; k++)
        row_hits += rows[k * ROW_FIELDS + ROW_HITS];
    for (int64_t s = 0; s < nsamp; s++)
        recorded += seen[s];

    out[OUT_ACCESSES] = n;
    out[OUT_HITS] = hits;
    out[OUT_MISSES] = n - hits;
    out[OUT_REPLACEMENTS_TOTAL] = replacements;
    out[OUT_REPLACEMENTS_NO_AVERSE] = no_averse_count;
    out[OUT_LONG_INSERTS] = long_inserts;
    out[OUT_PSEL] = psel;
    out[OUT_OPTGEN_COLD] = optgen_cold;
    out[OUT_OPTGEN_HIT] = optgen_hit;
    out[OUT_OPTGEN_MISS] = optgen_miss;
    out[OUT_BYPASSES] = bypasses;
    out[OUT_ROWS] = written;
    out[OUT_ROW_HITS] = row_hits;
    out[OUT_SAMPLED] = recorded;
    free_tables(&t);
    return 0;
}

/* Set next_use[i] to the position of the next access to the block of
 * access i, addr[i] >> block_bits, or NO_NEXT_USE when there is none, as
 * ehcsim.minoracle.compute_next_use does. One forward scan over an
 * open-addressed table that holds, per block, one plus the position of its
 * latest access (0 marks a free slot); the table doubles whenever it would
 * become more than half full. Returns 0, or -1 when the table cannot be
 * allocated. */
static int ehcsim_next_use(int64_t n, const uint64_t *addr, int64_t block_bits, int64_t *next_use)
{
    int bits = 10;
    uint64_t mask = ((uint64_t)1 << bits) - 1, used = 0;
    int64_t *latest = calloc(mask + 1, sizeof *latest);
    if (!latest)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t block = shr(addr[i], block_bits);
        uint64_t h = home_slot(block, bits);
        next_use[i] = NO_NEXT_USE;
        while (latest[h] && shr(addr[latest[h] - 1], block_bits) != block)
            h = (h + 1) & mask;
        if (latest[h]) {
            next_use[latest[h] - 1] = i;
        } else if (2 * ++used > mask + 1) {
            int64_t *old = latest;
            const uint64_t old_size = mask + 1;
            bits++;
            mask = mask << 1 | 1;
            latest = calloc(mask + 1, sizeof *latest);
            if (!latest) {
                free(old);
                return -1;
            }
            for (uint64_t k = 0; k < old_size; k++) {
                if (old[k]) {
                    uint64_t g = home_slot(shr(addr[old[k] - 1], block_bits), bits);
                    while (latest[g])
                        g = (g + 1) & mask;
                    latest[g] = old[k];
                }
            }
            free(old);
            h = home_slot(block, bits);
            while (latest[h])
                h = (h + 1) & mask;
        }
        latest[h] = i + 1;
    }
    free(latest);
    return 0;
}

/* Bucket the hit-count prediction error of count residency rows in
 * completion order, ehcsim_simulate's MIN rows, into hist[ERROR_BUCKETS],
 * zeroed, as ehcsim.minoracle's per_block_prediction_error does, or with
 * by_region per_region_prediction_error: key each row by the block-aligned
 * address of its fill, or that >> REGION_SHIFT; predict its hits as the
 * round-half-up mean of its key's last REGION_RING_SLOTS counts, and count
 * |hits - prediction| in bucket min(that, ERROR_BUCKETS - 1). A key's first
 * row has nothing to predict from and is not counted. Returns 0; -1 when
 * the key table cannot be allocated; or 1 + k when row k fills at a
 * position outside the n accesses of addr, which it does not read. */
static int64_t ehcsim_prediction_error(
    int64_t count, const int64_t *rows, int64_t n, const uint64_t *addr, int64_t block_bits,
    int64_t by_region, int64_t *hist)
{
    int bits = 1;
    while (bits < 56 && ((int64_t)1 << bits) < 2 * count)
        bits++;
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    int64_t *slot = calloc(mask + 1, sizeof *slot); /* 1 + a ring's index; 0: free */
    Ring *past = malloc((count > 0 ? (size_t)count : 1) * sizeof *past);
    int64_t keys = 0;
    if (!slot || !past) {
        free(slot);
        free(past);
        return -1;
    }
    for (int64_t k = 0; k < count; k++) {
        const int64_t fill = rows[k * ROW_FIELDS + ROW_FILL];
        const int64_t hits = rows[k * ROW_FIELDS + ROW_HITS];
        if (fill < 0 || fill >= n) {
            free(slot);
            free(past);
            return k + 1;
        }
        uint64_t key = shl(shr(addr[fill], block_bits), block_bits);
        if (by_region)
            key >>= REGION_SHIFT;
        uint64_t h = home_slot(key, bits);
        while (slot[h] && past[slot[h] - 1].key != key)
            h = (h + 1) & mask;
        if (!slot[h]) {
            slot[h] = ++keys;
            past[keys - 1] = (Ring){.key = key};
        }
        Ring *p = past + slot[h] - 1;
        if (p->pushes > 0) {
            const int64_t predicted = ring_mean(p);
            const int64_t diff = hits > predicted ? hits - predicted : predicted - hits;
            hist[diff < ERROR_BUCKETS - 1 ? diff : ERROR_BUCKETS - 1]++;
        }
        ring_push(p, hits);
    }
    free(slot);
    free(past);
    return 0;
}

/* The little-endian uint64_t at p, which need not be aligned. Spelt out
 * byte by byte, which compilers turn into one load on a little-endian host
 * (a loop over the bytes took ten times as long at -O2). */
static inline uint64_t le64(const uint8_t *p)
{
    return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16
        | (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40
        | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
}

/* What ehcsim_read_records carries from one chunk of a trace's records to
 * the next, in a buffer of READ_STATE_WORDS uint64_t values that the
 * caller zeroes before the first chunk. */
typedef struct {
    uint64_t max_seq, max_kind;
    uint64_t fell;                      /* 1 + the lowest core whose seq fell, or 0 */
    uint64_t last_seq[UINT8_MAX + 1];   /* per core */
} ReadState;

_Static_assert(sizeof(ReadState) == READ_STATE_WORDS * sizeof(uint64_t),
               "READ_STATE_WORDS must match ReadState");

/* Copy the pc and addr fields of the next n packed trace records into pc[]
 * and addr[], and check all records so far, those of earlier calls on the
 * same state included, as ehcsim.trace.Trace.validate does, in its
 * order. Returns 0 when every record passes; else CHECK_SEQ_COUNT when a
 * seq exceeds instruction_count, CHECK_KIND when a kind exceeds KIND_WRITE,
 * or CHECK_SEQ_ORDER when the seqs of one core decrease, with the lowest
 * such core in *bad_core. Only the last call's result covers the trace. */
static int ehcsim_read_records(
    int64_t n, const uint8_t *records, uint64_t instruction_count,
    uint64_t *pc, uint64_t *addr, uint64_t *state, int64_t *bad_core)
{
    ReadState *st = (ReadState *)state;
    uint64_t max_seq = st->max_seq, max_kind = st->max_kind;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *r = records + i * RECORD_BYTES;
        const uint64_t seq = le64(r + RECORD_SEQ);
        const uint8_t core = r[RECORD_CORE], kind = r[RECORD_KIND];
        pc[i] = le64(r + RECORD_PC);
        addr[i] = le64(r + RECORD_ADDR);
        if (seq > max_seq)
            max_seq = seq;
        if (kind > max_kind)
            max_kind = kind;
        if (seq < st->last_seq[core] && (st->fell == 0 || core < st->fell - 1))
            st->fell = core + 1;
        st->last_seq[core] = seq;
    }
    st->max_seq = max_seq;
    st->max_kind = max_kind;
    if (max_seq > instruction_count)
        return CHECK_SEQ_COUNT;
    if (max_kind > KIND_WRITE)
        return CHECK_KIND;
    if (st->fell) {
        *bad_core = (int64_t)st->fell - 1;
        return CHECK_SEQ_ORDER;
    }
    return 0;
}

/* The Python interface. Each function of the module takes the arguments of
 * the C function of its name, an array as an object with the buffer
 * protocol, or None for an output left off, and returns what it returns:
 * ehcsim_read_records its check and the core as a tuple. */

/* What a call needs of one array argument: its element type ('Q' for
 * uint64_t, 'q' for int64_t, 'B' for uint8_t), whether it may be None,
 * whether the kernel writes it, and how many elements it must hold. */
typedef struct {
    PyObject *obj;
    char type;
    int optional, output;
    Py_ssize_t need;
} Arg;

/* count * width + extra elements, or PY_SSIZE_T_MAX, which no buffer
 * holds, when one of them is negative or the sum overflows. */
static Py_ssize_t room(int64_t count, int64_t width, int64_t extra)
{
    if (count < 0 || width < 0 || extra < 0 || mul_overflows(count, width)
        || count * width > PY_SSIZE_T_MAX - extra)
        return PY_SSIZE_T_MAX;
    return (Py_ssize_t)(count * width + extra);
}

/* The element type of a buffer as Arg.type spells it, or 0 for another:
 * a native-order unsigned integer of 1 byte, or an integer of 8. */
static char element_type(const Py_buffer *view)
{
    const char *f = view->format ? view->format : "B";
    if (*f == '@' || *f == '=' || (*f == '<' && PY_LITTLE_ENDIAN))
        f++;
    if (f[0] == '\0' || f[1] != '\0')
        return 0;
    const int is_unsigned = strchr("BHILQN", f[0]) != NULL;
    if (view->itemsize == 1)
        return is_unsigned ? 'B' : 0;
    if (view->itemsize == 8)
        return is_unsigned ? 'Q' : strchr("bhilqn", f[0]) ? 'q' : 0;
    return 0;
}

static void release_arrays(Py_buffer *views, int count)
{
    for (int k = 0; k < count; k++)
        PyBuffer_Release(views + k);
}

/* The buffer of each argument in views, with buf NULL for a None that may
 * be None. Returns 0, or -1 with TypeError (the element type, C order or
 * writability) or ValueError (too few elements) set and no buffer held. */
static int get_arrays(const Arg *args, Py_buffer *views, int count)
{
    for (int k = 0; k < count; k++) {
        const Arg *a = args + k;
        Py_buffer *v = views + k;
        const char *name = a->type == 'Q' ? "uint64" : a->type == 'q' ? "int64" : "uint8";
        v->buf = NULL;
        v->obj = NULL;
        if (a->obj == Py_None && a->optional)
            continue;
        if (PyObject_GetBuffer(a->obj, v, PyBUF_STRIDES | PyBUF_FORMAT) < 0) {
            if (PyErr_ExceptionMatches(PyExc_TypeError)) {
                PyErr_Clear();
                PyErr_Format(PyExc_TypeError, "array must have data type %s", name);
            }
        } else if (element_type(v) != a->type) {
            PyErr_Format(PyExc_TypeError, "array must have data type %s", name);
        } else if (!PyBuffer_IsContiguous(v, 'C')) {
            PyErr_SetString(PyExc_TypeError, "array must have flags ['C_CONTIGUOUS']");
        } else if (a->output && v->readonly) {
            PyErr_SetString(PyExc_TypeError, "array must have flags ['WRITEABLE']");
        } else if (v->len / v->itemsize < a->need) {
            PyErr_Format(PyExc_ValueError, "array must hold %zd elements, not %zd",
                         a->need, v->len / v->itemsize);
        } else {
            continue;
        }
        release_arrays(views, k + 1);
        return -1;
    }
    return 0;
}

static PyObject *py_simulate(PyObject *self, PyObject *args)
{
    long long n, num_sets, assoc, block_bits, policy_id, bypass;
    unsigned long long seed;
    /* addr, pc, next_use, rows, ranks, events, hit_flags, out */
    Arg a[8] = {{.type = 'Q'}, {.type = 'Q'}, {.type = 'q', .optional = 1},
                {.type = 'q', .optional = 1, .output = 1},
                {.type = 'q', .optional = 1, .output = 1},
                {.type = 'q', .optional = 1, .output = 1},
                {.type = 'B', .output = 1}, {.type = 'q', .output = 1}};
    Py_buffer v[8];
    (void)self;
    if (!PyArg_ParseTuple(args, "LOOLLLLKOLOOOOO:ehcsim_simulate", &n, &a[0].obj, &a[1].obj,
                          &num_sets, &assoc, &block_bits, &policy_id, &seed, &a[2].obj,
                          &bypass, &a[3].obj, &a[4].obj, &a[5].obj, &a[6].obj, &a[7].obj))
        return NULL;
    a[0].need = a[1].need = a[2].need = a[6].need = room(n, 1, 0);
    a[3].need = room(n, ROW_FIELDS, 0);
    a[4].need = room(1, assoc, 1);
    a[5].need = room(n, room(1, assoc, EVENT_FIELDS), 0);
    a[7].need = COUNTERS;
    if (get_arrays(a, v, 8) < 0)
        return NULL;
    const int status = ehcsim_simulate(n, v[0].buf, v[1].buf, num_sets, assoc, block_bits,
                                       policy_id, seed, v[2].buf, bypass, v[3].buf, v[4].buf,
                                       v[5].buf, v[6].buf, v[7].buf);
    release_arrays(v, 8);
    return PyLong_FromLong(status);
}

static PyObject *py_next_use(PyObject *self, PyObject *args)
{
    long long n, block_bits;
    Arg a[2] = {{.type = 'Q'}, {.type = 'q', .output = 1}}; /* addr, next_use */
    Py_buffer v[2];
    (void)self;
    if (!PyArg_ParseTuple(args, "LOLO:ehcsim_next_use", &n, &a[0].obj, &block_bits, &a[1].obj))
        return NULL;
    a[0].need = a[1].need = room(n, 1, 0);
    if (get_arrays(a, v, 2) < 0)
        return NULL;
    const int status = ehcsim_next_use(n, v[0].buf, block_bits, v[1].buf);
    release_arrays(v, 2);
    return PyLong_FromLong(status);
}

static PyObject *py_prediction_error(PyObject *self, PyObject *args)
{
    long long count, n, block_bits, by_region;
    Arg a[3] = {{.type = 'q'}, {.type = 'Q'}, {.type = 'q', .output = 1}}; /* rows, addr, hist */
    Py_buffer v[3];
    (void)self;
    if (!PyArg_ParseTuple(args, "LLOOLLO:ehcsim_prediction_error", &count, &n, &a[0].obj,
                          &a[1].obj, &block_bits, &by_region, &a[2].obj))
        return NULL;
    a[0].need = room(count, ROW_FIELDS, 0);
    a[1].need = room(n, 1, 0);
    a[2].need = ERROR_BUCKETS;
    if (get_arrays(a, v, 3) < 0)
        return NULL;
    const int64_t status = ehcsim_prediction_error(count, v[0].buf, n, v[1].buf, block_bits,
                                                   by_region, v[2].buf);
    release_arrays(v, 3);
    return PyLong_FromLongLong(status);
}

static PyObject *py_read_records(PyObject *self, PyObject *args)
{
    long long n;
    unsigned long long instruction_count;
    /* state, records, pc, addr */
    Arg a[4] = {{.type = 'Q', .output = 1, .need = READ_STATE_WORDS}, {.type = 'B'},
                {.type = 'Q', .output = 1}, {.type = 'Q', .output = 1}};
    Py_buffer v[4];
    int64_t bad_core = 0;
    (void)self;
    if (!PyArg_ParseTuple(args, "LOKOOO:ehcsim_read_records", &n, &a[1].obj, &instruction_count,
                          &a[2].obj, &a[3].obj, &a[0].obj))
        return NULL;
    a[1].need = room(n, RECORD_BYTES, 0);
    a[2].need = a[3].need = room(n, 1, 0);
    if (get_arrays(a, v, 4) < 0)
        return NULL;
    const int check = ehcsim_read_records(n, v[1].buf, instruction_count, v[2].buf, v[3].buf,
                                          v[0].buf, &bad_core);
    release_arrays(v, 4);
    return Py_BuildValue("(iL)", check, (long long)bad_core);
}

static PyMethodDef methods[] = {
    {"ehcsim_simulate", py_simulate, METH_VARARGS, NULL},
    {"ehcsim_next_use", py_next_use, METH_VARARGS, NULL},
    {"ehcsim_prediction_error", py_prediction_error, METH_VARARGS, NULL},
    {"ehcsim_read_records", py_read_records, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL},
};

/* Multi-phase initialization, with no slots and no state: each load makes
 * a new module. CPython keeps the first single-phase module of a path for
 * the rest of the process, so a library rebuilt there would not load. */
static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef kernel_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "ehcsim._kernel",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    return PyModuleDef_Init(&kernel_module);
}
