/*
 * Compiled per-instruction simulation core.
 *
 * A whole-machine C port of the per-cycle engine (commit -> writeback ->
 * issue -> rename -> fetch, reverse pipeline order), operated through a
 * deliberately tiny ABI: Python builds a Machine from a flat config
 * vector and a vector of rates, binds the trace's own read-only arrays
 * (sim_bind), loads the PCG64 states of the wrong-path and exception
 * streams (sim_seed), fills a warmed machine's predictor/BTB/cache
 * arrays through typed pointer accessors, and calls sim_run() once.
 * That call runs the whole point, drawing every random word itself, and
 * returns finished, deadlocked, or an internal inconsistency that
 * triggers the bit-exact Python fallback.
 *
 * Everything observable in SimStats is accumulated in the STATS array;
 * the semantics mirror the Python engine statement for statement — any
 * divergence is a bug caught by the equivalence suite, never a tolerated
 * approximation.
 *
 * The declarations between CDEF_START and CDEF_END are extracted
 * verbatim by the loader and handed to cffi; keep them ABI-stable.
 */

/* CDEF_START */
typedef struct Machine Machine;
Machine *sim_new(const long long *cfg, int ncfg, const double *rates,
                 int nrates);
void sim_free(Machine *m);
void sim_bind(Machine *m, int which, const void *data);
void sim_seed(Machine *m, int stream, unsigned long long state_hi,
              unsigned long long state_lo, unsigned long long inc_hi,
              unsigned long long inc_lo);
unsigned long long sim_draw(Machine *m, int stream, unsigned long long span);
long long *sim_i64(Machine *m, int which);
signed char *sim_i8(Machine *m, int which);
long long sim_get(Machine *m, int which);
int sim_run(Machine *m);
/* CDEF_END */

#include <pthread.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef signed char i8;
typedef unsigned long long u64;

/* ------------------------------------------------------------------ */
/* Config vector layout (mirrored in loader.py): the machine's         */
/* geometry, then the run's limits and its starting gshare history    */
/* and wrong-path cascade state.                                      */
/* ------------------------------------------------------------------ */
enum {
    CFG_TRACE_LEN = 0, CFG_FETCH_W, CFG_RENAME_W, CFG_ISSUE_W, CFG_COMMIT_W,
    CFG_MAX_TAKEN, CFG_FRONTEND, CFG_ROS, CFG_LSQ, CFG_CK_CAP,
    CFG_NPHYS_INT, CFG_NPHYS_FP, CFG_NLOG_INT, CFG_NLOG_FP,
    CFG_GSHARE_BITS, CFG_BTB_SETS, CFG_BTB_ASSOC,
    CFG_POLICY, CFG_REUSE, CFG_WP_ENABLED, CFG_EXC_ENABLED,
    CFG_L1I_SETS, CFG_L1I_ASSOC, CFG_L1I_SHIFT, CFG_L1I_LAT,
    CFG_L1D_SETS, CFG_L1D_ASSOC, CFG_L1D_SHIFT, CFG_L1D_LAT,
    CFG_L2_SETS, CFG_L2_ASSOC, CFG_L2_SHIFT, CFG_L2_LAT,
    CFG_MEM_LAT,
    CFG_FU = 34,          /* 6 x [count, unpipelined]  -> 34..45 */
    CFG_OP_LAT = 46,      /* 11 op latencies           -> 46..56 */
    CFG_WARM_LEN = 57, CFG_TRACE_ROWS = 58, CFG_WARM_ROWS = 59,
    CFG_COMMIT_LIMIT = 60, CFG_MAX_CYCLES, CFG_DEADLOCK, CFG_GS_HISTORY,
    CFG_WP_HALF, CFG_WP_DATA_BASE, CFG_WP_INT_BASE, CFG_WP_INT_N,
    CFG_WP_INT_CURSOR, CFG_WP_FP_BASE, CFG_WP_FP_N, CFG_WP_FP_CURSOR,
    NCFG = 72,
};

/* Rates vector layout: the exception rate and the wrong-path mix. */
enum {
    F_EXC_RATE = 0, F_WP_BRANCH, F_WP_LOAD, F_WP_STORE, F_WP_FP,
    F_WP_FP_SHARE,
    NF = 6,
};

/* Scalar ids for sim_get. */
enum { SC_STATUS = 0, SC_ERROR, SC_CYCLE, SC_ABI_MAGIC };

#define ABI_MAGIC 0x52503804LL

/* Array ids.  sim_bind takes the trace's: A_T_OP..A_T_TARGET its row
 * table (CFG_TRACE_ROWS int64 entries, MAX_SRCS per row for the source
 * columns), A_T_ROWS (int32) and A_T_ADDR (int64) one entry per
 * instruction; the A_WU_* arrays are the same for the warm-up trace
 * (CFG_WARM_ROWS, CFG_WARM_LEN).  sim_i64 returns the machine's own:
 * the BTB, the caches and STATS. */
enum {
    A_T_OP = 0, A_T_PC, A_T_DC, A_T_DEST, A_T_NSRC, A_T_SRC_CLASS,
    A_T_SRC_LOG, A_T_TAKEN, A_T_TARGET, A_T_ROWS, A_T_ADDR,
    A_WU_OP, A_WU_PC, A_WU_TAKEN, A_WU_TARGET, A_WU_ROWS, A_WU_ADDR,
    A_B_TAG, A_B_TARGET, A_B_NWAY,
    A_L1I_TAG, A_L1I_DIRTY, A_L1I_NWAY,
    A_L1D_TAG, A_L1D_DIRTY, A_L1D_NWAY,
    A_L2_TAG, A_L2_DIRTY, A_L2_NWAY,
    A_STATS,
};

/* sim_seed streams. */
enum { RNG_WRONGPATH = 0, RNG_EXC = 1 };

/* sim_run statuses. */
enum { RUN_FINISHED = 0, RUN_DEADLOCK = 1, RUN_INTERNAL = 2 };

/* Internal error details (SC_ERROR), for diagnostics only. */
enum {
    E_NONE = 0, E_FREELIST, E_ALLOC_EMPTY, E_WK_POOL, E_CQ_POOL, E_LW_POOL,
    E_RQ_OVERFLOW, E_RWC_MISSING, E_SLOT_MISMATCH, E_LSQ_REMOVE, E_CQ_RANGE,
    E_READY_POOL, E_UNBOUND, E_TRACE_ROW, E_TRACE_REG, E_WP_WINDOW,
    E_LU_MISSING,
};

/* Op classes / predicates (repro.isa.opcodes). */
enum {
    OP_INT_ALU = 0, OP_INT_MULT, OP_FP_ADD, OP_FP_MULT, OP_FP_DIV,
    OP_LOAD, OP_STORE, OP_BRANCH, OP_FP_LOAD, OP_FP_STORE, OP_NOP,
    N_OPS,
};
static const int FU_KIND_OF[N_OPS] = {0, 1, 2, 3, 4, 5, 5, 0, 5, 5, 0};
#define IS_LOAD(op)   ((op) == OP_LOAD || (op) == OP_FP_LOAD)
#define IS_STORE(op)  ((op) == OP_STORE || (op) == OP_FP_STORE)
#define IS_MEM(op)    (IS_LOAD(op) || IS_STORE(op))
#define IS_BRANCH(op) ((op) == OP_BRANCH)

/* STATS slots (int64 counters; per-class blocks at the end). */
enum {
    ST_COMMITTED = 0,
    ST_BY_CLASS = 1,                /* 1..11: one per op class */
    ST_FETCHED = 12, ST_FETCHED_WP, ST_RENAMED, ST_SQUASHED, ST_EXCEPTIONS,
    ST_BR_RESOLVED, ST_BR_MISPRED, ST_BTB_HITS, ST_BTB_MISSES,
    ST_L1I_HITS, ST_L1I_MISSES, ST_L1D_HITS, ST_L1D_MISSES,
    ST_L2_HITS, ST_L2_MISSES, ST_FORWARDED,
    ST_STALL_ROS, ST_STALL_LSQ, ST_STALL_CK, ST_STALL_INT, ST_STALL_FP,
    ST_STRUCTURAL,
    ST_RF_INT = 34, ST_RF_FP = 45,  /* 11 slots per class, see RF_* */
    ST_N = 56,
};
/* Per-class block offsets. */
enum {
    RF_ALLOCS = 0, RF_RELEASES, RF_EARLY, RF_REUSES, RF_IMMEDIATE,
    RF_SCHED_EARLY, RF_CONVENTIONAL, RF_CONDITIONAL,
    RF_OCC_EMPTY, RF_OCC_READY, RF_OCC_IDLE,
};

#define RQ_LEVELS_MAX 256       /* compiled ceiling; depth itself is
                                 * config-derived (max_pending_branches) */
#define MAX_SRCS 3

/* ------------------------------------------------------------------ */
/* PCG64: numpy's bit generator, continued from the caller's state.   */
/* ------------------------------------------------------------------ */
/* numpy.random.PCG64 is a 128-bit LCG (the standard PCG multiplier and
 * the stream's odd increment) whose output is the XSL-RR permutation of
 * the *new* state: rotr64(hi ^ lo, hi >> 58).  sim_seed loads the state
 * and increment the Python generator reports, so the core draws the
 * words its random_raw() would draw next, and the Python generator is
 * left as it was. */
typedef unsigned __int128 u128;
typedef struct { u128 state, inc; } Pcg64;
#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)
#define TWO53_INV (1.0 / 9007199254740992.0)

static inline u64 pcg_next(Pcg64 *g) {
    g->state = g->state * PCG_MULT + g->inc;
    u64 hi = (u64)(g->state >> 64), x = hi ^ (u64)g->state;
    unsigned rot = (unsigned)(hi >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* A double in [0, 1) of one word: Generator.random()'s transform. */
static inline double pcg_double(Pcg64 *g) {
    return (double)(pcg_next(g) >> 11) * TWO53_INV;
}

/* ------------------------------------------------------------------ */
/* Sub-structures.                                                    */
/* ------------------------------------------------------------------ */
typedef struct {
    i64 *tag;        /* n_sets * assoc; ways past nway[set] are never
                      * read, so a cold start fills nothing */
    i64 *dirty;
    i64 *nway;       /* ways in use per set */
    i64 n_sets, set_mask, assoc, shift, lat;  /* set_mask: see set_of */
    i64 *hits, *misses;   /* point into STATS */
} CacheZ;

typedef struct {            /* decoded front-end pipe entry */
    i64 ready_cycle;
    i64 pc, target, addr;
    i64 pred_idx, pred_hist;
    i64 resume_cursor;
    int op, dest_class, dest, nsrc;
    int src_class[MAX_SRCS], src_log[MAX_SRCS];
    int taken, has_pred, pred_taken, pred_raw, mispredicted, wrong_path;
} DQEnt;

typedef struct {            /* one ROS row; the fields age-order lookups
                             * and liveness checks read come first */
    i64 seq;
    i8 squashed, completed, exception, issued, in_ready;
    i8 wrong_path, fetch_mispred, pred_raw, has_pred, taken;
    i8 allocated_new, reused, rel_old;
    i8 rwc_classes;         /* bit c: a class-c RwC entry may name seq */
    int op, dest_class, dest_log, pd, old_pd, mask, nsrc, nwait;
    int src_class[MAX_SRCS], src_log[MAX_SRCS], src_phys[MAX_SRCS];
    int wk_head, wk_tail;   /* consumer list attached to this producer */
    i64 pc, target, addr, resume, pred_idx, pred_hist;
    i64 wait[MAX_SRCS];
} RosRow;

typedef struct {            /* one release-queue level (slot) */
    i64 branch_seq;
    int rwns_n;
    int *rwns_phys;         /* insertion-ordered set of (phys, log) */
    int *rwns_log;          /* -1 == None */
    int rwc_n;
    i64 *rwc_lu;            /* insertion-ordered LU seqs */
    int *rwc_mask;          /* slot-bit mask per LU */
} RQLevel;

struct Machine {
    i64 cfg[NCFG];
    double exception_rate;

    /* run controls / scalars */
    int status;
    i64 error;
    i64 cycle, seq, max_cycles, commit_limit, deadlock_threshold;
    i64 last_commit_cycle, committed_watermark;

    /* trace, read in place from the caller's arrays (sim_bind), which
     * outlive sim_run: a row table with one entry per distinct static
     * record, and a row id and an address per instruction; check_inputs
     * vets it before the first cycle */
    i64 trace_len, trace_rows;
    const i64 *t_op, *t_pc, *t_dc, *t_dest, *t_nsrc, *t_src_class,
        *t_src_log, *t_taken, *t_target;  /* trace_rows (x MAX_SRCS) */
    const int *t_rows;                    /* trace_len */
    const i64 *t_addr;                    /* trace_len */

    /* warm-up trace, same shape with its own row table (replayed once
     * through the predictor/BTB/memory models before the measured run) */
    i64 warm_len, warm_rows;
    const i64 *wu_op, *wu_pc, *wu_taken, *wu_target;   /* warm_rows */
    const int *wu_rows;                                 /* warm_len */
    const i64 *wu_addr;                                 /* warm_len */
    int started;                /* sim_run ran: a machine runs once */

    /* wrong-path draw cascade: the generator's PCG64 stream, its
     * buffered 32-bit half (-1 = none), its mix and register windows */
    Pcg64 wp_rng;
    i64 wp_half;
    double wp_branch, wp_load, wp_store, wp_fp, wp_fp_share;
    i64 wp_data_base;
    i64 wp_int_base, wp_int_n, wp_int_cursor;
    i64 wp_fp_base, wp_fp_n, wp_fp_cursor;

    /* exception lottery: one double per correct-path rename */
    Pcg64 exc_rng;

    /* gshare */
    i8 *gs_table;
    i64 gs_size, gs_mask, gs_history;

    /* BTB; like a cache's, ways past btb_nway[set] are never read */
    i64 *btb_tag, *btb_target, *btb_nway;
    i64 btb_sets, btb_mask, btb_assoc;

    /* caches + memory */
    CacheZ l1i, l1d, l2;
    i64 mem_lat;

    /* functional units */
    i64 fu_count[6], fu_unpip[6];
    i64 fu_last_cycle[6], fu_used[6];
    i64 *fu_free_at;            /* unpipelined units, fu_off[kind] slices */
    i64 fu_off[6];
    i64 op_lat[N_OPS];

    /* register files: class 0 = INT, 1 = FP */
    i64 nphys[2], nlog[2];
    int *fl_ring[2];            /* FIFO free list */
    i64 fl_head[2], fl_count[2];
    i8 *fl_is_free[2];
    i64 *producer_seq[2];       /* -1 == None */
    int *producer_row[2];
    i64 *occ_alloc[2], *occ_write[2], *occ_lu[2];   /* -1 == None */
    i64 occ_empty[2], occ_ready[2], occ_idle[2];
    int *map[2], *iomt[2];
    i8 *map_stale[2], *arch_released[2];

    /* LUs table (basic/extended) */
    i64 *lus_seq[2];            /* -1 == None */
    i8 *lus_slot[2];

    /* policy */
    int policy;                 /* 0 conv, 1 basic, 2 extended */
    int reuse_on_committed_lu;

    /* ROS (ring of rows) */
    i64 ros_cap, ros_head, ros_count;
    int seen_exception;
    RosRow *ros;

    /* ready set: min-heap on seq with lazy deletion */
    i64 *heap_seq;
    int *heap_row;
    i64 heap_n, heap_cap, rdy_count;

    /* wakeup node pool */
    i64 *wk_seq;
    int *wk_row, *wk_next;
    int wk_free;
    i64 wk_cap;

    /* completion queue: bucket ring + node pool */
    i64 cq_ring, cq_mask;
    int *cq_bucket, *cq_tail;
    i64 *cq_seq;
    int *cq_row, *cq_next;
    int cq_free;
    i64 cq_cap;

    /* LSQ ring + per-slot waiter lists */
    i64 lsq_cap, lsq_head, lsq_count;
    i64 *l_seq, *l_addr;
    i8 *l_is_store, *l_known;
    int *l_whead, *l_wtail;
    i64 *lw_seq;
    int *lw_row, *lw_next;
    int lw_free;
    i64 lw_cap;

    /* checkpoints: slot-indirected stack */
    i64 ck_cap, ck_count;
    int *ck_order, *ck_freestack;
    i64 ck_nfree;
    i64 *ck_seq;                /* per slot */
    int *ck_map[2];             /* per slot: nlog ints */
    i8 *ck_stale[2];
    i64 *ck_lus_seq[2];
    i8 *ck_lus_slot[2];

    /* release queues (extended), one per class; rq_levels slots each,
     * sized from the config's checkpoint capacity (max_pending_branches) */
    i64 rq_levels;
    RQLevel *rq_slots[2];
    int *rq_order[2];
    int *rq_freestack[2];
    int rq_count[2], rq_nfree[2];
    i64 rq_rwns_cap, rq_rwc_cap;

    /* decode queue ring */
    DQEnt *dq;
    i64 dq_cap, dq_head, dq_count, decode_capacity;

    /* fetch unit */
    i64 cursor, wp_pc, stall_until;
    int on_wrong_path;
    int wp_enabled, exc_enabled;

    /* scratch */
    int *scratch_rows, *blocked_rows, *freed_reg[2];

    /* stats */
    i64 st[ST_N];
    int finalized;

    /* the arena holding this record */
    char *arena;
};

/* ------------------------------------------------------------------ */
/* Allocation: one arena per machine.                                 */
/* ------------------------------------------------------------------ */
/* The arena holds the Machine record and every array its config sizes;
 * the trace stays in the caller's arrays.  lay_out lists the arrays
 * once and runs twice: with no base it only sizes the arena, then it
 * places the arrays.  sim_free parks the arena as the calling thread's
 * spare, which the thread's next sim_new reuses when it is large
 * enough: a short point then runs in warm memory instead of paging in
 * a fresh arena.  An arena starts with a header line that records its
 * capacity. */
#define ARENA_ALIGN 64          /* every array starts on a cache line */
#define ARENA_HEAD ARENA_ALIGN  /* the header line: size_t capacity */

/* Under ASan a poisoned gap follows every carved array, and a parked
 * arena is poisoned past its header, so an overflow into the next array
 * and any use of a freed machine are still reported. */
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ARENA_GAP 64
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ARENA_GAP 0
#endif

typedef struct {
    char *base;                 /* 0 while sizing */
    size_t used;
} Arena;

/* The next n bytes of a (at least one byte, so no two arrays share an
 * address); 0 while sizing. */
static void *carve(Arena *a, size_t n) {
    size_t at = a->used, end = at + (n ? n : 1);
    a->used = (end + ARENA_GAP + ARENA_ALIGN - 1) & ~(size_t)(ARENA_ALIGN - 1);
    if (!a->base) return 0;
    ASAN_POISON_MEMORY_REGION(a->base + end, a->used - end);
    return a->base + at;
}
#define CARVE(a, type, n) ((type *)carve((a), (size_t)(n) * sizeof(type)))

static pthread_key_t spare_key;
static pthread_once_t spare_once = PTHREAD_ONCE_INIT;
static int spare_ok;            /* the key exists */

static void spare_key_create(void) {
    /* A thread that exits frees its spare. */
    spare_ok = pthread_key_create(&spare_key, free) == 0;
}

static size_t arena_cap(const char *block) { return *(const size_t *)block; }

/* An arena of at least `used` bytes whose span past the header is zero:
 * the thread's spare when it covers `used`, else a fresh one. */
static char *arena_take(size_t used) {
    char *block = 0;
    pthread_once(&spare_once, spare_key_create);
    if (spare_ok) {
        block = (char *)pthread_getspecific(spare_key);
        pthread_setspecific(spare_key, 0);
    }
    if (block && arena_cap(block) >= used) {
        ASAN_UNPOISON_MEMORY_REGION(block + ARENA_HEAD,
                                    arena_cap(block) - ARENA_HEAD);
        memset(block + ARENA_HEAD, 0, used - ARENA_HEAD);
        return block;
    }
    free(block);
    block = (char *)calloc(1, used);
    if (block) *(size_t *)block = used;
    return block;
}

/* Park `block` as the thread's spare, freeing the older spare. */
static void arena_park(char *block) {
    ASAN_POISON_MEMORY_REGION(block + ARENA_HEAD,
                              arena_cap(block) - ARENA_HEAD);
    if (spare_ok) {
        free(pthread_getspecific(spare_key));
        if (pthread_setspecific(spare_key, block) == 0) return;
    }
    free(block);
}

static void fill_i64(i64 *a, i64 n, i64 v) {
    for (i64 i = 0; i < n; i++) a[i] = v;
}
static void fill_int(int *a, i64 n, int v) {
    for (i64 i = 0; i < n; i++) a[i] = v;
}

static i64 next_pow2(i64 v) {
    i64 p = 1;
    while (p < v) p <<= 1;
    return p;
}

/* Ring slot base + off, for 0 <= base < cap and 0 <= off <= cap: one
 * compare-and-subtract instead of a 64-bit division. */
static inline i64 ring_at(i64 base, i64 off, i64 cap) {
    i64 pos = base + off;
    return pos >= cap ? pos - cap : pos;
}

/* Set of key: a mask when the set count is a power of two (mask >= 0),
 * else a modulo (a 12-entry 4-way BTB has 3 sets). */
static inline i64 set_of(i64 key, i64 n_sets, i64 mask) {
    return mask >= 0 ? key & mask : key % n_sets;
}

static i64 set_mask_of(i64 n_sets) {
    return (n_sets & (n_sets - 1)) == 0 ? n_sets - 1 : -1;
}

/* ------------------------------------------------------------------ */
/* gshare / BTB / caches / memory.                                    */
/* ------------------------------------------------------------------ */
static void gs_predict(Machine *m, i64 pc, i64 *idx, i64 *hist_before,
                       int *pred) {
    i64 hb = m->gs_history;
    i64 index = ((pc >> 2) ^ hb) & m->gs_mask;
    int p = m->gs_table[index] >= 2;
    m->gs_history = ((hb << 1) | p) & m->gs_mask;
    *idx = index;
    *hist_before = hb;
    *pred = p;
}

static void gs_resolve(Machine *m, i64 idx, i64 hist_before, int taken,
                       int predicted) {
    i8 counter = m->gs_table[idx];
    if (taken) {
        if (counter < 3) m->gs_table[idx] = (i8)(counter + 1);
    } else {
        if (counter > 0) m->gs_table[idx] = (i8)(counter - 1);
    }
    if (taken != predicted)
        m->gs_history = ((hist_before << 1) | (taken ? 1 : 0)) & m->gs_mask;
}

/* Returns target on hit (rotating the way to MRU), -1 on miss. */
static i64 btb_lookup(Machine *m, i64 pc) {
    i64 set = set_of(pc >> 2, m->btb_sets, m->btb_mask);
    i64 tag = pc >> 2;
    i64 base = set * m->btb_assoc;
    i64 n = m->btb_nway[set];
    for (i64 pos = 0; pos < n; pos++) {
        if (m->btb_tag[base + pos] == tag) {
            i64 target = m->btb_target[base + pos];
            for (i64 k = pos; k > 0; k--) {
                m->btb_tag[base + k] = m->btb_tag[base + k - 1];
                m->btb_target[base + k] = m->btb_target[base + k - 1];
            }
            m->btb_tag[base] = tag;
            m->btb_target[base] = target;
            m->st[ST_BTB_HITS]++;
            return target;
        }
    }
    m->st[ST_BTB_MISSES]++;
    return -1;
}

static void btb_update(Machine *m, i64 pc, i64 target) {
    i64 set = set_of(pc >> 2, m->btb_sets, m->btb_mask);
    i64 tag = pc >> 2;
    i64 base = set * m->btb_assoc;
    i64 n = m->btb_nway[set];
    i64 pos = -1;
    for (i64 k = 0; k < n; k++) {
        if (m->btb_tag[base + k] == tag) { pos = k; break; }
    }
    if (pos >= 0) {
        for (i64 k = pos; k < n - 1; k++) {
            m->btb_tag[base + k] = m->btb_tag[base + k + 1];
            m->btb_target[base + k] = m->btb_target[base + k + 1];
        }
        n--;
    }
    for (i64 k = (n < m->btb_assoc ? n : m->btb_assoc - 1); k > 0; k--) {
        m->btb_tag[base + k] = m->btb_tag[base + k - 1];
        m->btb_target[base + k] = m->btb_target[base + k - 1];
    }
    m->btb_tag[base] = tag;
    m->btb_target[base] = target;
    if (n < m->btb_assoc) n++;          /* insert grew the set (then trim) */
    m->btb_nway[set] = n;
}

/* Exact port of Cache.access_hit: MRU rotate on hit, front insert+trim
 * on miss; the hit path re-marks dirty after the rotate. */
static int cache_access(CacheZ *c, i64 address, int is_write) {
    i64 line = address >> c->shift;
    i64 tag = line;
    i64 set = set_of(line, c->n_sets, c->set_mask);
    i64 base = set * c->assoc;
    i64 n = c->nway[set];
    for (i64 pos = 0; pos < n; pos++) {
        if (c->tag[base + pos] == tag) {
            i64 dirty = c->dirty[base + pos];
            for (i64 k = pos; k > 0; k--) {
                c->tag[base + k] = c->tag[base + k - 1];
                c->dirty[base + k] = c->dirty[base + k - 1];
            }
            c->tag[base] = tag;
            c->dirty[base] = dirty;
            if (is_write) c->dirty[base] = 1;
            (*c->hits)++;
            return 1;
        }
    }
    (*c->misses)++;
    i64 keep = (n < c->assoc) ? n : c->assoc - 1;
    for (i64 k = keep; k > 0; k--) {
        c->tag[base + k] = c->tag[base + k - 1];
        c->dirty[base + k] = c->dirty[base + k - 1];
    }
    c->tag[base] = tag;
    c->dirty[base] = is_write ? 1 : 0;
    if (n < c->assoc) n++;
    c->nway[set] = n;
    return 0;
}

static i64 mem_access(Machine *m, CacheZ *l1, i64 address, int is_write) {
    if (cache_access(l1, address, is_write))
        return l1->lat;
    i64 latency = l1->lat + m->l2.lat;
    if (!cache_access(&m->l2, address, 0))
        latency += m->mem_lat;
    return latency;
}
#define MEM_IACCESS(m, pc)   mem_access((m), &(m)->l1i, (pc), 0)
#define MEM_DREAD(m, addr)   mem_access((m), &(m)->l1d, (addr), 0)
#define MEM_DWRITE(m, addr)  mem_access((m), &(m)->l1d, (addr), 1)

/* ------------------------------------------------------------------ */
/* Functional units.                                                  */
/* ------------------------------------------------------------------ */
static i64 fu_try_issue(Machine *m, int op, i64 cycle) {
    int kind = FU_KIND_OF[op];
    if (!m->fu_unpip[kind]) {
        if (m->fu_last_cycle[kind] != cycle) {
            m->fu_last_cycle[kind] = cycle;
            m->fu_used[kind] = 1;
        } else if (m->fu_used[kind] < m->fu_count[kind]) {
            m->fu_used[kind]++;
        } else {
            return -1;
        }
        return m->op_lat[op];
    }
    i64 *units = m->fu_free_at + m->fu_off[kind];
    i64 lat = m->op_lat[op];
    for (i64 i = 0; i < m->fu_count[kind]; i++) {
        if (units[i] <= cycle) {
            units[i] = cycle + lat;
            return lat;
        }
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* Register file: checked free list + occupancy accounting.           */
/* ------------------------------------------------------------------ */
static void occ_attribute(Machine *m, int c, int reg, i64 end_cycle) {
    i64 alloc = m->occ_alloc[c][reg];
    if (alloc < 0) return;
    i64 write = m->occ_write[c][reg];
    if (write < 0) {
        if (end_cycle > alloc) m->occ_empty[c] += end_cycle - alloc;
        return;
    }
    if (write < alloc) write = alloc;
    if (write > alloc) m->occ_empty[c] += write - alloc;
    i64 last_use = m->occ_lu[c][reg];
    if (last_use < 0 || last_use < write) last_use = write;
    if (last_use > end_cycle) last_use = end_cycle;
    if (last_use > write) m->occ_ready[c] += last_use - write;
    if (end_cycle > last_use) m->occ_idle[c] += end_cycle - last_use;
}

static int fl_push(Machine *m, int c, int reg) {
    if (reg < 0 || reg >= m->nphys[c] || m->fl_is_free[c][reg]) {
        m->status = RUN_INTERNAL;
        m->error = E_FREELIST;
        return 0;
    }
    m->fl_ring[c][ring_at(m->fl_head[c], m->fl_count[c], m->nphys[c])] = reg;
    m->fl_count[c]++;
    m->fl_is_free[c][reg] = 1;
    return 1;
}

/* PhysicalRegisterFile.release. */
static void release_reg(Machine *m, int c, int reg, i64 cycle, int early) {
    if (!fl_push(m, c, reg)) return;
    m->producer_seq[c][reg] = -1;
    m->producer_row[c][reg] = -1;
    occ_attribute(m, c, reg, cycle);
    m->occ_alloc[c][reg] = -1;
    m->occ_write[c][reg] = -1;
    m->occ_lu[c][reg] = -1;
    i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
    rf[RF_RELEASES]++;
    if (early) rf[RF_EARLY]++;
}

/* _release_physical: release + stale-architectural-mapping bookkeeping. */
static void release_physical(Machine *m, int c, int reg, int logical,
                             i64 cycle, int early) {
    release_reg(m, c, reg, cycle, early);
    if (logical >= 0 && m->iomt[c][logical] == reg)
        m->arch_released[c][logical] = 1;
}

static int rf_allocate(Machine *m, int c, i64 cycle, i64 producer,
                       int prow) {
    if (m->fl_count[c] == 0) {
        m->status = RUN_INTERNAL;
        m->error = E_ALLOC_EMPTY;
        return -1;
    }
    int reg = m->fl_ring[c][m->fl_head[c]];
    m->fl_head[c] = ring_at(m->fl_head[c], 1, m->nphys[c]);
    m->fl_count[c]--;
    m->fl_is_free[c][reg] = 0;
    m->producer_seq[c][reg] = producer;
    m->producer_row[c][reg] = prow;
    m->occ_alloc[c][reg] = cycle;
    m->occ_write[c][reg] = -1;
    m->occ_lu[c][reg] = -1;
    m->st[(c ? ST_RF_FP : ST_RF_INT) + RF_ALLOCS]++;
    return reg;
}

static void mark_written(Machine *m, int c, int reg, i64 cycle) {
    m->producer_seq[c][reg] = -1;
    m->producer_row[c][reg] = -1;
    if (m->occ_write[c][reg] < 0) m->occ_write[c][reg] = cycle;
}

/* ------------------------------------------------------------------ */
/* ROS ring helpers.                                                  */
/* ------------------------------------------------------------------ */
#define ROS_ROW(m, off) ((int)ring_at((m)->ros_head, (off), (m)->ros_cap))
#define ROW_LIVE(m, row, sq) \
    ((m)->ros[row].seq == (sq) && !(m)->ros[row].squashed)

/* Binary search the age-ordered window for seq; returns row or -1. */
static int ros_find(Machine *m, i64 seq) {
    i64 lo = 0, hi = m->ros_count;
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        int row = ROS_ROW(m, mid);
        if (m->ros[row].seq < seq) lo = mid + 1;
        else hi = mid;
    }
    if (lo < m->ros_count) {
        int row = ROS_ROW(m, lo);
        if (m->ros[row].seq == seq && !m->ros[row].squashed) return row;
    }
    return -1;
}

static i64 ros_completed_prefix(Machine *m, i64 limit) {
    i64 n = m->ros_count < limit ? m->ros_count : limit;
    i64 run = 0;
    while (run < n && m->ros[ROS_ROW(m, run)].completed) run++;
    return run;
}

/* First offset with a pending exception within the prefix, else -1. */
static i64 ros_exception_in_prefix(Machine *m, i64 length) {
    if (!m->seen_exception) return -1;
    for (i64 off = 0; off < length; off++)
        if (m->ros[ROS_ROW(m, off)].exception) return off;
    return -1;
}

/* ------------------------------------------------------------------ */
/* Ready set: min-heap on sequence numbers with lazy deletion.        */
/* The heap stores (seq,row) pairs; RosRow.in_ready is the live flag. */
/* ------------------------------------------------------------------ */
static void heap_push(Machine *m, i64 seq, int row) {
    if (m->heap_n >= m->heap_cap) {
        /* Compact: rebuild from live entries (rare; lazy deletion only
         * grows the heap when entries are discarded, capacity is 4x the
         * ROS so a full heap is mostly dead weight). */
        i64 n = 0;
        for (i64 i = 0; i < m->heap_n; i++) {
            int r = m->heap_row[i];
            if (m->ros[r].in_ready && m->ros[r].seq == m->heap_seq[i]) {
                m->heap_seq[n] = m->heap_seq[i];
                m->heap_row[n] = r;
                n++;
            }
        }
        m->heap_n = n;
        for (i64 i = 1; i < n; i++) {           /* heapify by sifting up */
            i64 j = i;
            while (j > 0) {
                i64 parent = (j - 1) / 2;
                if (m->heap_seq[parent] <= m->heap_seq[j]) break;
                i64 ts = m->heap_seq[parent]; int tr = m->heap_row[parent];
                m->heap_seq[parent] = m->heap_seq[j];
                m->heap_row[parent] = m->heap_row[j];
                m->heap_seq[j] = ts; m->heap_row[j] = tr;
                j = parent;
            }
        }
        if (m->heap_n >= m->heap_cap) {
            m->status = RUN_INTERNAL;
            m->error = E_READY_POOL;
            return;
        }
    }
    i64 i = m->heap_n++;
    m->heap_seq[i] = seq;
    m->heap_row[i] = row;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (m->heap_seq[parent] <= m->heap_seq[i]) break;
        i64 ts = m->heap_seq[parent]; int tr = m->heap_row[parent];
        m->heap_seq[parent] = m->heap_seq[i];
        m->heap_row[parent] = m->heap_row[i];
        m->heap_seq[i] = ts; m->heap_row[i] = tr;
        i = parent;
    }
}

static void heap_pop_min(Machine *m, i64 *seq, int *row) {
    *seq = m->heap_seq[0];
    *row = m->heap_row[0];
    m->heap_n--;
    if (m->heap_n > 0) {
        m->heap_seq[0] = m->heap_seq[m->heap_n];
        m->heap_row[0] = m->heap_row[m->heap_n];
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1, r = 2 * i + 2, s = i;
            if (l < m->heap_n && m->heap_seq[l] < m->heap_seq[s]) s = l;
            if (r < m->heap_n && m->heap_seq[r] < m->heap_seq[s]) s = r;
            if (s == i) break;
            i64 ts = m->heap_seq[s]; int tr = m->heap_row[s];
            m->heap_seq[s] = m->heap_seq[i];
            m->heap_row[s] = m->heap_row[i];
            m->heap_seq[i] = ts; m->heap_row[i] = tr;
            i = s;
        }
    }
}

static void ready_add(Machine *m, int row) {
    if (m->ros[row].in_ready) return;
    m->ros[row].in_ready = 1;
    m->rdy_count++;
    heap_push(m, m->ros[row].seq, row);
}

static void ready_discard(Machine *m, int row) {
    if (m->ros[row].in_ready) {
        m->ros[row].in_ready = 0;
        m->rdy_count--;
    }
}

/* Pop the oldest live ready entry; caller guarantees rdy_count > 0. */
static int ready_pop(Machine *m) {
    for (;;) {
        i64 seq;
        int row;
        heap_pop_min(m, &seq, &row);
        if (m->ros[row].in_ready && m->ros[row].seq == seq) {
            m->ros[row].in_ready = 0;
            m->rdy_count--;
            return row;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Wakeup index: FIFO consumer lists attached to the producer row.    */
/* ------------------------------------------------------------------ */
static void wk_register(Machine *m, int prow, i64 cseq, int crow) {
    int node = m->wk_free;
    if (node < 0) {
        m->status = RUN_INTERNAL;
        m->error = E_WK_POOL;
        return;
    }
    m->wk_free = m->wk_next[node];
    m->wk_seq[node] = cseq;
    m->wk_row[node] = crow;
    m->wk_next[node] = -1;
    if (m->ros[prow].wk_tail >= 0)
        m->wk_next[m->ros[prow].wk_tail] = node;
    else
        m->ros[prow].wk_head = node;
    m->ros[prow].wk_tail = node;
}

static void wk_drop(Machine *m, int prow) {
    int node = m->ros[prow].wk_head;
    while (node >= 0) {
        int next = m->wk_next[node];
        m->wk_next[node] = m->wk_free;
        m->wk_free = node;
        node = next;
    }
    m->ros[prow].wk_head = -1;
    m->ros[prow].wk_tail = -1;
}

/* Remove one occurrence of pseq from the row's wait set. */
static void wait_discard(RosRow *r, i64 pseq) {
    int n = r->nwait;
    for (int i = 0; i < n; i++) {
        if (r->wait[i] == pseq) {
            r->wait[i] = r->wait[n - 1];
            r->nwait = n - 1;
            return;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Completion queue: power-of-two bucket ring of FIFO node lists.     */
/* ------------------------------------------------------------------ */
static void cq_schedule(Machine *m, i64 at_cycle, i64 seq, int row) {
    if (at_cycle - m->cycle >= m->cq_ring) {
        m->status = RUN_INTERNAL;
        m->error = E_CQ_RANGE;
        return;
    }
    int node = m->cq_free;
    if (node < 0) {
        m->status = RUN_INTERNAL;
        m->error = E_CQ_POOL;
        return;
    }
    m->cq_free = m->cq_next[node];
    m->cq_seq[node] = seq;
    m->cq_row[node] = row;
    m->cq_next[node] = -1;
    i64 idx = at_cycle & m->cq_mask;
    if (m->cq_tail[idx] >= 0)
        m->cq_next[m->cq_tail[idx]] = node;
    else
        m->cq_bucket[idx] = node;
    m->cq_tail[idx] = node;
}

/* ------------------------------------------------------------------ */
/* LSQ: ring with stable slot indices and per-slot waiter lists.      */
/* ------------------------------------------------------------------ */
static void lsq_free_waiters(Machine *m, i64 slot) {
    int node = m->l_whead[slot];
    while (node >= 0) {
        int next = m->lw_next[node];
        m->lw_next[node] = m->lw_free;
        m->lw_free = node;
        node = next;
    }
    m->l_whead[slot] = -1;
    m->l_wtail[slot] = -1;
}

static void lsq_insert(Machine *m, i64 seq, int is_store, i64 addr) {
    i64 slot = ring_at(m->lsq_head, m->lsq_count, m->lsq_cap);
    m->l_seq[slot] = seq;
    m->l_is_store[slot] = (i8)is_store;
    m->l_addr[slot] = addr;
    m->l_known[slot] = 0;
    m->lsq_count++;
}

/* Last older known store to the same 8-byte-aligned address, if any. */
static int lsq_store_forwards(Machine *m, i64 load_seq, i64 addr) {
    i64 target = addr & ~7LL;
    int hit = 0;
    for (i64 off = 0; off < m->lsq_count; off++) {
        i64 slot = ring_at(m->lsq_head, off, m->lsq_cap);
        if (m->l_seq[slot] >= load_seq) break;
        if (m->l_is_store[slot] && m->l_known[slot] &&
            (m->l_addr[slot] & ~7LL) == target)
            hit = 1;
    }
    if (hit) m->st[ST_FORWARDED]++;
    return hit;
}

/* Park behind the first older store with an unknown address; 1 if parked. */
static int lsq_park_blocked(Machine *m, i64 load_seq, int load_row) {
    for (i64 off = 0; off < m->lsq_count; off++) {
        i64 slot = ring_at(m->lsq_head, off, m->lsq_cap);
        if (m->l_seq[slot] >= load_seq) break;
        if (m->l_is_store[slot] && !m->l_known[slot]) {
            int node = m->lw_free;
            if (node < 0) {
                m->status = RUN_INTERNAL;
                m->error = E_LW_POOL;
                return 0;
            }
            m->lw_free = m->lw_next[node];
            m->lw_seq[node] = load_seq;
            m->lw_row[node] = load_row;
            m->lw_next[node] = -1;
            if (m->l_wtail[slot] >= 0)
                m->lw_next[m->l_wtail[slot]] = node;
            else
                m->l_whead[slot] = node;
            m->l_wtail[slot] = node;
            return 1;
        }
    }
    return 0;
}

static i64 lsq_find_slot(Machine *m, i64 seq) {
    i64 lo = 0, hi = m->lsq_count;
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        i64 slot = ring_at(m->lsq_head, mid, m->lsq_cap);
        if (m->l_seq[slot] < seq) lo = mid + 1;
        else hi = mid;
    }
    if (lo < m->lsq_count) {
        i64 slot = ring_at(m->lsq_head, lo, m->lsq_cap);
        if (m->l_seq[slot] == seq) return slot;
    }
    return -1;
}

static void make_issue_ready(Machine *m, int row);   /* fwd */

/* Address becomes known at issue (loads and stores alike); wake the
 * slot's parked loads in FIFO order. */
static void lsq_mark_address_known(Machine *m, i64 seq) {
    i64 slot = lsq_find_slot(m, seq);
    if (slot < 0) return;
    m->l_known[slot] = 1;
    int node = m->l_whead[slot];
    m->l_whead[slot] = -1;
    m->l_wtail[slot] = -1;
    while (node >= 0) {
        i64 wseq = m->lw_seq[node];
        int wrow = m->lw_row[node];
        int next = m->lw_next[node];
        m->lw_next[node] = m->lw_free;
        m->lw_free = node;
        if (ROW_LIVE(m, wrow, wseq))
            make_issue_ready(m, wrow);   /* may re-park on a later store */
        node = next;
    }
}

/* Commit-time removal; only the head is ever removed in practice. */
static void lsq_remove(Machine *m, i64 seq) {
    if (m->lsq_count > 0 && m->l_seq[m->lsq_head] == seq) {
        lsq_free_waiters(m, m->lsq_head);
        m->lsq_head = ring_at(m->lsq_head, 1, m->lsq_cap);
        m->lsq_count--;
        return;
    }
    m->status = RUN_INTERNAL;
    m->error = E_LSQ_REMOVE;
}

static void lsq_squash_younger(Machine *m, i64 seq) {
    while (m->lsq_count > 0) {
        i64 slot = ring_at(m->lsq_head, m->lsq_count - 1, m->lsq_cap);
        if (m->l_seq[slot] <= seq) break;
        lsq_free_waiters(m, slot);
        m->lsq_count--;
    }
}

static void lsq_clear(Machine *m) {
    for (i64 off = 0; off < m->lsq_count; off++)
        lsq_free_waiters(m, ring_at(m->lsq_head, off, m->lsq_cap));
    m->lsq_head = 0;
    m->lsq_count = 0;
}

/* ------------------------------------------------------------------ */
/* Checkpoint stack (slot-indirected).                                */
/* ------------------------------------------------------------------ */
static void ck_push(Machine *m, i64 seq) {
    int slot = m->ck_freestack[--m->ck_nfree];
    m->ck_seq[slot] = seq;
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        memcpy(m->ck_map[c] + (i64)slot * nl, m->map[c],
               (size_t)nl * sizeof(int));
        memcpy(m->ck_stale[c] + (i64)slot * nl, m->map_stale[c],
               (size_t)nl * sizeof(i8));
        if (m->policy != 0) {
            memcpy(m->ck_lus_seq[c] + (i64)slot * nl, m->lus_seq[c],
                   (size_t)nl * sizeof(i64));
            memcpy(m->ck_lus_slot[c] + (i64)slot * nl, m->lus_slot[c],
                   (size_t)nl * sizeof(i8));
        }
    }
    m->ck_order[m->ck_count++] = slot;
}

static void ck_confirm(Machine *m, i64 seq) {
    for (i64 i = 0; i < m->ck_count; i++) {
        int slot = m->ck_order[i];
        if (m->ck_seq[slot] == seq) {
            memmove(m->ck_order + i, m->ck_order + i + 1,
                    (size_t)(m->ck_count - i - 1) * sizeof(int));
            m->ck_count--;
            m->ck_freestack[m->ck_nfree++] = slot;
            return;
        }
    }
}

/* Restore the snapshot taken at seq and drop it plus everything younger. */
static void ck_mispredict(Machine *m, i64 seq) {
    i64 pos = -1;
    for (i64 i = 0; i < m->ck_count; i++)
        if (m->ck_seq[m->ck_order[i]] == seq) { pos = i; break; }
    if (pos < 0) return;
    int slot = m->ck_order[pos];
    for (i64 i = pos; i < m->ck_count; i++)
        m->ck_freestack[m->ck_nfree++] = m->ck_order[i];
    m->ck_count = pos;
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        memcpy(m->map[c], m->ck_map[c] + (i64)slot * nl,
               (size_t)nl * sizeof(int));
        memcpy(m->map_stale[c], m->ck_stale[c] + (i64)slot * nl,
               (size_t)nl * sizeof(i8));
    }
    if (m->policy != 0) {
        for (int c = 0; c < 2; c++) {
            i64 nl = m->nlog[c];
            memcpy(m->lus_seq[c], m->ck_lus_seq[c] + (i64)slot * nl,
                   (size_t)nl * sizeof(i64));
            memcpy(m->lus_slot[c], m->ck_lus_slot[c] + (i64)slot * nl,
                   (size_t)nl * sizeof(i8));
        }
    }
}

static void ck_squash_clear(Machine *m) {
    for (i64 i = 0; i < m->ck_count; i++)
        m->ck_freestack[m->ck_nfree++] = m->ck_order[i];
    m->ck_count = 0;
}

static int ck_has_pending_younger(Machine *m, i64 seq) {
    return m->ck_count > 0 &&
           m->ck_seq[m->ck_order[m->ck_count - 1]] > seq;
}

/* ------------------------------------------------------------------ */
/* Release queues (extended policy), one per register class.          */
/* Levels keep Python-dict semantics: RwNS an ordered set of          */
/* (phys, log), RwC an ordered LU -> slot-mask map.  Nothing records  */
/* the scheduling NV: a misprediction's level clear drops every       */
/* squashed NV's scheduling (argument in core/release_queue.py).      */
/* ------------------------------------------------------------------ */
static void rq_push_level(Machine *m, int c, i64 branch_seq) {
    if (m->rq_count[c] >= m->rq_levels || m->rq_nfree[c] == 0) {
        m->status = RUN_INTERNAL;
        m->error = E_RQ_OVERFLOW;
        return;
    }
    int slot = m->rq_freestack[c][--m->rq_nfree[c]];
    RQLevel *lv = &m->rq_slots[c][slot];
    lv->branch_seq = branch_seq;
    lv->rwns_n = 0;
    lv->rwc_n = 0;
    m->rq_order[c][m->rq_count[c]++] = slot;
}

static void rwns_insert(Machine *m, RQLevel *lv, int phys, int logical) {
    for (int i = 0; i < lv->rwns_n; i++)
        if (lv->rwns_phys[i] == phys && lv->rwns_log[i] == logical) return;
    if (lv->rwns_n >= m->rq_rwns_cap) {
        m->status = RUN_INTERNAL;
        m->error = E_RQ_OVERFLOW;
        return;
    }
    lv->rwns_phys[lv->rwns_n] = phys;
    lv->rwns_log[lv->rwns_n] = logical;
    lv->rwns_n++;
}

static void rwc_or_mask(Machine *m, RQLevel *lv, i64 lu_seq, int mask) {
    for (int i = 0; i < lv->rwc_n; i++)
        if (lv->rwc_lu[i] == lu_seq) {
            lv->rwc_mask[i] |= mask;
            return;
        }
    if (lv->rwc_n >= m->rq_rwc_cap) {
        m->status = RUN_INTERNAL;
        m->error = E_RQ_OVERFLOW;
        return;
    }
    lv->rwc_lu[lv->rwc_n] = lu_seq;
    lv->rwc_mask[lv->rwc_n] = mask;
    lv->rwc_n++;
}

#define RQ_TAIL(m, c) \
    (&(m)->rq_slots[c][(m)->rq_order[c][(m)->rq_count[c] - 1]])

/* The slot a mask bit names: bit 8 = destination, bits 1/2/4 = sources. */
static void phys_of_slot(const RosRow *r, int bit, int *cls, int *phys,
                         int *logical) {
    if (bit == 8) {
        *cls = r->dest_class;
        *phys = r->pd;
        *logical = r->dest_log;
    } else {
        int slot = (bit == 1) ? 0 : (bit == 2) ? 1 : 2;
        *cls = r->src_class[slot];
        *phys = r->src_phys[slot];
        *logical = r->src_log[slot];
    }
}

/* A scheduled LU commits: resolve its pending slot bits, in ascending
 * order, into RwNS entries of whichever levels carry them. */
static void rq_on_lu_commit(Machine *m, int c, int row) {
    i64 lu_seq = m->ros[row].seq;
    for (i64 i = 0; i < m->rq_count[c]; i++) {
        RQLevel *lv = &m->rq_slots[c][m->rq_order[c][i]];
        int idx = -1;
        for (int k = 0; k < lv->rwc_n; k++)
            if (lv->rwc_lu[k] == lu_seq) { idx = k; break; }
        if (idx < 0) continue;
        for (int bit = 1; bit <= 8; bit <<= 1) {
            if (!(lv->rwc_mask[idx] & bit)) continue;
            int sc, sp, sl;
            phys_of_slot(&m->ros[row], bit, &sc, &sp, &sl);
            rwns_insert(m, lv, sp, sl);
        }
        memmove(lv->rwc_lu + idx, lv->rwc_lu + idx + 1,
                (size_t)(lv->rwc_n - idx - 1) * sizeof(i64));
        memmove(lv->rwc_mask + idx, lv->rwc_mask + idx + 1,
                (size_t)(lv->rwc_n - idx - 1) * sizeof(int));
        lv->rwc_n--;
    }
}

/* Position of branch seq's level in age order, or -1. */
static i64 rq_find(Machine *m, int c, i64 seq) {
    for (i64 i = 0; i < m->rq_count[c]; i++)
        if (m->rq_slots[c][m->rq_order[c][i]].branch_seq == seq) return i;
    return -1;
}

static void rq_on_branch_confirmed(Machine *m, int c, i64 seq) {
    i64 index = rq_find(m, c, seq);
    if (index < 0) return;
    int slot = m->rq_order[c][index];
    RQLevel *lv = &m->rq_slots[c][slot];
    memmove(m->rq_order[c] + index, m->rq_order[c] + index + 1,
            (size_t)(m->rq_count[c] - index - 1) * sizeof(int));
    m->rq_count[c]--;
    if (index == 0) {
        /* Oldest level confirmed: fire RwNS releases, promote RwC bits
         * onto their (still in-flight) LU entries' early-release masks. */
        for (int i = 0; i < lv->rwns_n; i++)
            release_physical(m, c, lv->rwns_phys[i], lv->rwns_log[i],
                             m->cycle, 1);
        for (int k = 0; k < lv->rwc_n; k++) {
            int lrow = ros_find(m, lv->rwc_lu[k]);
            if (lrow < 0) {
                m->status = RUN_INTERNAL;
                m->error = E_RWC_MISSING;
                return;
            }
            m->ros[lrow].mask |= lv->rwc_mask[k];
        }
    } else {
        /* Inner level: merge into the next-older one. */
        RQLevel *older = &m->rq_slots[c][m->rq_order[c][index - 1]];
        for (int i = 0; i < lv->rwns_n; i++)
            rwns_insert(m, older, lv->rwns_phys[i], lv->rwns_log[i]);
        for (int k = 0; k < lv->rwc_n; k++)
            rwc_or_mask(m, older, lv->rwc_lu[k], lv->rwc_mask[k]);
    }
    m->rq_freestack[c][m->rq_nfree[c]++] = slot;
}

static void rq_on_branch_mispredicted(Machine *m, int c, i64 seq) {
    i64 index = rq_find(m, c, seq);
    if (index < 0) return;
    for (i64 i = index; i < m->rq_count[c]; i++)
        m->rq_freestack[c][m->rq_nfree[c]++] = m->rq_order[c][i];
    m->rq_count[c] = index;
}

static void rq_clear(Machine *m, int c) {
    for (i64 i = 0; i < m->rq_count[c]; i++)
        m->rq_freestack[c][m->rq_nfree[c]++] = m->rq_order[c][i];
    m->rq_count[c] = 0;
}

/* ------------------------------------------------------------------ */
/* Release-policy hooks.                                              */
/* ------------------------------------------------------------------ */
/* Destination-rename outcomes. */
enum { OUT_ALLOC_NOREL = 0, OUT_ALLOC_REL = 1, OUT_REUSE = 2 };

static void fire_early_mask(Machine *m, int c, const RosRow *r) {
    for (int bit = 1; bit <= 8; bit <<= 1) {
        if (!(r->mask & bit)) continue;
        int sc, sp, sl;
        phys_of_slot(r, bit, &sc, &sp, &sl);
        if (sc == c) release_physical(m, c, sp, sl, m->cycle, 1);
    }
}

static void policy_on_commit(Machine *m, int c, int row) {
    const RosRow *r = &m->ros[row];
    int dc = r->dest_class;
    int dl = r->dest_log;
    i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
    if (m->policy == 0) {
        if (dc == c) {
            if (r->rel_old && r->allocated_new && r->old_pd >= 0) {
                release_physical(m, c, r->old_pd, dl, m->cycle, 0);
                rf[RF_CONVENTIONAL]++;
            }
            m->arch_released[c][dl] = 0;
        }
        return;
    }
    if (dc == c) m->arch_released[c][dl] = 0;
    fire_early_mask(m, c, r);
    if (m->policy == 1) {
        if (dc == c && r->rel_old && r->allocated_new && r->old_pd >= 0) {
            release_physical(m, c, r->old_pd, dl, m->cycle, 0);
            rf[RF_CONVENTIONAL]++;
        }
    } else if (r->rwc_classes & (1 << c)) {
        rq_on_lu_commit(m, c, row);
    }
}

/* The per-destination release decision at rename time. */
static int rename_destination(Machine *m, int c, int row, int logical,
                              int old_pd, i64 this_seq) {
    i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
    if (m->map_stale[c][logical]) return OUT_ALLOC_NOREL;
    if (m->policy == 0) return OUT_ALLOC_REL;

    i64 lu_seq = m->lus_seq[c][logical];
    if (m->policy == 1) {
        if (lu_seq < 0) return OUT_ALLOC_REL;
        if (ck_has_pending_younger(m, lu_seq)) return OUT_ALLOC_REL;
        if (lu_seq <= m->committed_watermark) {
            if (m->reuse_on_committed_lu) {
                rf[RF_REUSES]++;
                return OUT_REUSE;
            }
            release_physical(m, c, old_pd, logical, m->cycle, 1);
            rf[RF_IMMEDIATE]++;
            return OUT_ALLOC_NOREL;
        }
        /* A self-read (the NV is its own LU) is not yet in the ROS
         * window: the basic mechanism releases it conventionally. */
        if (lu_seq == this_seq) return OUT_ALLOC_REL;
        int lu_row = ros_find(m, lu_seq);
        if (lu_row < 0) {
            m->status = RUN_INTERNAL;     /* Python asserts here */
            m->error = E_LU_MISSING;
            return OUT_ALLOC_NOREL;
        }
        int bit = (m->lus_slot[c][logical] == 3)
                      ? 8 : (1 << m->lus_slot[c][logical]);
        int sc, sp, sl;
        phys_of_slot(&m->ros[lu_row], bit, &sc, &sp, &sl);
        if (sp != old_pd) {
            m->status = RUN_INTERNAL;     /* Python asserts here */
            m->error = E_SLOT_MISMATCH;
            return OUT_ALLOC_NOREL;
        }
        m->ros[lu_row].mask |= bit;
        rf[RF_SCHED_EARLY]++;
        return OUT_ALLOC_NOREL;
    }

    /* extended */
    int pending = (int)m->ck_count;
    if (lu_seq < 0 || lu_seq <= m->committed_watermark) {
        if (pending == 0) {
            if (m->reuse_on_committed_lu) {
                rf[RF_REUSES]++;
                return OUT_REUSE;
            }
            release_physical(m, c, old_pd, logical, m->cycle, 1);
            rf[RF_IMMEDIATE]++;
            return OUT_ALLOC_NOREL;
        }
        rwns_insert(m, RQ_TAIL(m, c), old_pd, logical);
        rf[RF_CONDITIONAL]++;
        return OUT_ALLOC_NOREL;
    }
    int lu_row = (lu_seq == this_seq) ? row : ros_find(m, lu_seq);
    if (lu_row < 0) {
        m->status = RUN_INTERNAL;         /* Python asserts here */
        m->error = E_LU_MISSING;
        return OUT_ALLOC_NOREL;
    }
    int bit = (m->lus_slot[c][logical] == 3)
                  ? 8 : (1 << m->lus_slot[c][logical]);
    int sc, sp, sl;
    phys_of_slot(&m->ros[lu_row], bit, &sc, &sp, &sl);
    if (sp != old_pd) {
        m->status = RUN_INTERNAL;     /* Python asserts here */
        m->error = E_SLOT_MISMATCH;
        return OUT_ALLOC_NOREL;
    }
    if (pending == 0) {
        m->ros[lu_row].mask |= bit;
        rf[RF_SCHED_EARLY]++;
        return OUT_ALLOC_NOREL;
    }
    rwc_or_mask(m, RQ_TAIL(m, c), lu_seq, bit);
    m->ros[lu_row].rwc_classes |= (i8)(1 << c);
    rf[RF_CONDITIONAL]++;
    return OUT_ALLOC_NOREL;
}

/* Can this destination rename proceed with an empty free list? */
static int may_avoid_allocation(Machine *m, int c, int logical, DQEnt *d) {
    if (m->policy == 0) return 0;
    if (m->map_stale[c][logical]) return 0;
    for (int s = 0; s < d->nsrc; s++)
        if (d->src_class[s] == c && d->src_log[s] == logical) return 0;
    i64 lu_seq = m->lus_seq[c][logical];
    if (lu_seq < 0) return m->policy == 2 && m->ck_count == 0;
    if (ck_has_pending_younger(m, lu_seq)) return 0;
    if (lu_seq > m->committed_watermark) return 0;
    if (m->policy == 2 && m->ck_count > 0) return 0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Squash / recovery machinery.                                       */
/* ------------------------------------------------------------------ */
static void make_issue_ready(Machine *m, int row) {
    if (IS_LOAD(m->ros[row].op) &&
        lsq_park_blocked(m, m->ros[row].seq, row))
        return;
    ready_add(m, row);
}

/* Undo rename effects of already-squash-marked rows (youngest first). */
static void undo_squashed(Machine *m, int *rows, i64 n) {
    m->st[ST_SQUASHED] += n;
    i64 nfreed[2] = {0, 0};
    for (i64 i = 0; i < n; i++) {
        int row = rows[i];
        const RosRow *r = &m->ros[row];
        int dc = r->dest_class;
        if (dc >= 0) {
            if (r->allocated_new) {
                m->freed_reg[dc][nfreed[dc]++] = r->pd;
            } else if (r->reused) {
                m->producer_seq[dc][r->pd] = -1;
                m->producer_row[dc][r->pd] = -1;
            }
        }
        wk_drop(m, row);
        ready_discard(m, row);
    }
    for (int c = 0; c < 2; c++) {
        for (i64 k = 0; k < nfreed[c]; k++) {
            int reg = m->freed_reg[c][k];
            if (!fl_push(m, c, reg)) return;
            m->producer_seq[c][reg] = -1;
            m->producer_row[c][reg] = -1;
            occ_attribute(m, c, reg, m->cycle);
            m->occ_alloc[c][reg] = -1;
            m->occ_write[c][reg] = -1;
            m->occ_lu[c][reg] = -1;
        }
        m->st[(c ? ST_RF_FP : ST_RF_INT) + RF_RELEASES] += nfreed[c];
    }
}

/* Mark the window from offset keep on squashed and drop it; fills rows
 * youngest-first. */
static i64 ros_squash_from(Machine *m, i64 keep, int *rows) {
    i64 n = 0;
    for (i64 off = m->ros_count - 1; off >= keep; off--) {
        int row = ROS_ROW(m, off);
        RosRow *r = &m->ros[row];
        r->squashed = 1;
        r->completed = r->exception = 0;
        rows[n++] = row;
    }
    m->ros_count = keep;
    return n;
}

/* Squash everything younger than seq. */
static i64 ros_squash_younger(Machine *m, i64 seq, int *rows) {
    i64 keep = m->ros_count;
    while (keep > 0 && m->ros[ROS_ROW(m, keep - 1)].seq > seq) keep--;
    return ros_squash_from(m, keep, rows);
}

static void fetch_recover(Machine *m, i64 cursor) {
    m->cursor = cursor;
    m->on_wrong_path = 0;
}

static void recover_from_misprediction(Machine *m, int row) {
    m->ros[row].mask = 0;
    i64 seq = m->ros[row].seq;
    i64 n = ros_squash_younger(m, seq, m->scratch_rows);
    undo_squashed(m, m->scratch_rows, n);
    lsq_squash_younger(m, seq);
    if (m->policy == 2) {
        rq_on_branch_mispredicted(m, 0, seq);
        rq_on_branch_mispredicted(m, 1, seq);
    }
    ck_mispredict(m, seq);
    m->dq_head = 0;
    m->dq_count = 0;
    if (m->ros[row].resume >= 0) fetch_recover(m, m->ros[row].resume);
}

static void exception_flush(Machine *m, int exc_row) {
    i64 n = ros_squash_from(m, 0, m->scratch_rows);
    undo_squashed(m, m->scratch_rows, n);
    lsq_clear(m);
    ck_squash_clear(m);
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        memcpy(m->map[c], m->iomt[c], (size_t)nl * sizeof(int));
        memset(m->map_stale[c], 0, (size_t)nl * sizeof(i8));
    }
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        for (i64 log = 0; log < nl; log++)
            if (m->arch_released[c][log]) m->map_stale[c][log] = 1;
        if (m->policy != 0) fill_i64(m->lus_seq[c], nl, -1);
        if (m->policy == 2) rq_clear(m, c);
    }
    m->dq_head = 0;
    m->dq_count = 0;
    if (m->ros[exc_row].resume >= 0) fetch_recover(m, m->ros[exc_row].resume);
}

/* ------------------------------------------------------------------ */
/* Stage: commit.                                                     */
/* ------------------------------------------------------------------ */
static void commit_stage(Machine *m) {
    i64 retire = ros_completed_prefix(m, m->cfg[CFG_COMMIT_W]);
    if (retire == 0) return;
    i64 exc_at = ros_exception_in_prefix(m, retire);
    if (exc_at >= 0) retire = exc_at + 1;
    i64 start = m->ros_head;
    /* retire_prefix removes the rows from the window first; the
     * per-entry processing below must not see them in lookups. */
    m->ros_head = ring_at(m->ros_head, retire, m->ros_cap);
    m->ros_count -= retire;
    int last_row = -1;
    for (i64 i = 0; i < retire; i++) {
        int row = (int)ring_at(start, i, m->ros_cap);
        RosRow *r = &m->ros[row];
        r->completed = r->exception = 0;
        int op = r->op;
        m->st[ST_BY_CLASS + op]++;
        m->committed_watermark = r->seq;
        int dc = r->dest_class;
        if (dc >= 0) m->iomt[dc][r->dest_log] = r->pd;
        policy_on_commit(m, 0, row);
        policy_on_commit(m, 1, row);
        for (int s = 0; s < r->nsrc; s++)
            m->occ_lu[r->src_class[s]][r->src_phys[s]] = m->cycle;
        if (dc >= 0) m->occ_lu[dc][r->pd] = m->cycle;
        if (IS_MEM(op)) {
            if (IS_STORE(op)) MEM_DWRITE(m, r->addr);
            lsq_remove(m, r->seq);
        }
        last_row = row;
        if (m->status) return;
    }
    m->st[ST_COMMITTED] += retire;
    m->last_commit_cycle = m->cycle;
    if (exc_at >= 0) {
        m->st[ST_EXCEPTIONS]++;
        exception_flush(m, last_row);
    }
}

/* ------------------------------------------------------------------ */
/* Stage: writeback.                                                  */
/* ------------------------------------------------------------------ */
static void wake_consumers(Machine *m, int prow) {
    int node = m->ros[prow].wk_head;
    m->ros[prow].wk_head = -1;
    m->ros[prow].wk_tail = -1;
    i64 pseq = m->ros[prow].seq;
    while (node >= 0) {
        i64 cseq = m->wk_seq[node];
        int crow = m->wk_row[node];
        int next = m->wk_next[node];
        m->wk_next[node] = m->wk_free;
        m->wk_free = node;
        if (ROW_LIVE(m, crow, cseq)) {
            RosRow *cr = &m->ros[crow];
            wait_discard(cr, pseq);
            if (cr->nwait == 0 && !cr->issued) make_issue_ready(m, crow);
        }
        node = next;
    }
}

static void resolve_branch(Machine *m, int row) {
    const RosRow *r = &m->ros[row];
    /* History repair compares against the predictor's own (raw) direction,
     * not the BTB-gated front-end decision — a gated-down taken prediction
     * still counts as the predictor being wrong. */
    if (r->has_pred)
        gs_resolve(m, r->pred_idx, r->pred_hist, r->taken, r->pred_raw);
    if (r->taken) btb_update(m, r->pc, r->target);
    if (!r->wrong_path) m->st[ST_BR_RESOLVED]++;
    if (r->fetch_mispred) {
        m->st[ST_BR_MISPRED]++;
        recover_from_misprediction(m, row);
    } else {
        i64 seq = r->seq;
        ck_confirm(m, seq);
        if (m->policy == 2) {
            rq_on_branch_confirmed(m, 0, seq);
            if (m->status) return;
            rq_on_branch_confirmed(m, 1, seq);
        }
    }
}

static void writeback_stage(Machine *m) {
    i64 idx = m->cycle & m->cq_mask;
    int node = m->cq_bucket[idx];
    if (node < 0) return;
    m->cq_bucket[idx] = -1;
    m->cq_tail[idx] = -1;
    while (node >= 0) {
        i64 seq = m->cq_seq[node];
        int row = m->cq_row[node];
        int next = m->cq_next[node];
        m->cq_next[node] = m->cq_free;
        m->cq_free = node;
        /* Per-node liveness at processing time: a branch recovery midway
         * through this bucket squashes later same-bucket entries. */
        if (ROW_LIVE(m, row, seq)) {
            RosRow *r = &m->ros[row];
            r->completed = 1;
            if (r->dest_class >= 0)
                mark_written(m, r->dest_class, r->pd, m->cycle);
            wake_consumers(m, row);
            if (IS_BRANCH(r->op)) resolve_branch(m, row);
            if (m->status) return;
        }
        node = next;
    }
}

/* ------------------------------------------------------------------ */
/* Stage: issue.                                                      */
/* ------------------------------------------------------------------ */
static void issue_stage(Machine *m) {
    if (m->rdy_count == 0) return;
    i64 width = m->cfg[CFG_ISSUE_W];
    i64 issued = 0, nblocked = 0;
    while (issued < width && m->rdy_count > 0) {
        int row = ready_pop(m);
        RosRow *r = &m->ros[row];
        int op = r->op;
        i64 lat = fu_try_issue(m, op, m->cycle);
        if (lat < 0) {
            m->st[ST_STRUCTURAL]++;
            m->blocked_rows[nblocked++] = row;
            continue;
        }
        r->issued = 1;
        issued++;
        i64 seq = r->seq;
        if (IS_MEM(op)) lsq_mark_address_known(m, seq);
        i64 at;
        if (IS_LOAD(op)) {
            i64 mem_lat = lsq_store_forwards(m, seq, r->addr)
                              ? 1 : MEM_DREAD(m, r->addr);
            at = m->cycle + lat + mem_lat;
        } else {
            at = m->cycle + lat;
        }
        cq_schedule(m, at, seq, row);
        if (m->status) return;
    }
    for (i64 i = 0; i < nblocked; i++) ready_add(m, m->blocked_rows[i]);
}

/* ------------------------------------------------------------------ */
/* Stage: rename.                                                     */
/* ------------------------------------------------------------------ */
static int dispatch_hazard(Machine *m, DQEnt *d) {
    if (m->ros_count >= m->ros_cap) return ST_STALL_ROS;
    if (IS_MEM(d->op) && m->lsq_count >= m->lsq_cap) return ST_STALL_LSQ;
    if (IS_BRANCH(d->op) && m->ck_count >= m->ck_cap) return ST_STALL_CK;
    if (d->dest_class >= 0) {
        int c = d->dest_class;
        if (m->fl_count[c] == 0 && !may_avoid_allocation(m, c, d->dest, d))
            return c ? ST_STALL_FP : ST_STALL_INT;
    }
    return -1;
}

static void rename_one(Machine *m, DQEnt *d) {
    int row = ROS_ROW(m, m->ros_count);
    RosRow *r = &m->ros[row];
    i64 seq = m->seq++;
    /* begin_rename: reset the row; the entry stays unpublished (count is
     * bumped at the end) so policy lookups cannot see it mid-rename. */
    wk_drop(m, row);
    r->seq = seq;
    r->squashed = r->completed = r->exception = r->issued = 0;
    r->in_ready = r->allocated_new = r->reused = r->rel_old = 0;
    r->rwc_classes = 0;
    r->wrong_path = (i8)d->wrong_path;
    r->fetch_mispred = (i8)d->mispredicted;
    r->pred_raw = (i8)d->pred_raw;
    r->has_pred = (i8)d->has_pred;
    r->taken = (i8)d->taken;
    r->op = d->op;
    r->dest_class = r->dest_log = r->pd = r->old_pd = -1;
    r->mask = 0;
    r->nsrc = d->nsrc;
    r->nwait = 0;
    r->pc = d->pc;
    r->target = d->target;
    r->addr = d->addr;
    r->resume = d->resume_cursor;
    r->pred_idx = d->pred_idx;
    r->pred_hist = d->pred_hist;

    for (int s = 0; s < d->nsrc; s++) {
        int rc = d->src_class[s];
        int log = d->src_log[s];
        int phys = m->map[rc][log];
        r->src_class[s] = rc;
        r->src_log[s] = log;
        r->src_phys[s] = phys;
        /* A store's slot 0 is the value operand: it does not take part
         * in wakeup (stores read it at commit), but the LUs table still
         * records the read. */
        if (!(IS_STORE(d->op) && s == 0)) {
            i64 pseq = m->producer_seq[rc][phys];
            if (pseq >= 0) {
                int dup = 0;
                for (int w = 0; w < r->nwait; w++)
                    if (r->wait[w] == pseq) {
                        dup = 1;
                        break;
                    }
                if (!dup) r->wait[r->nwait++] = pseq;
                wk_register(m, m->producer_row[rc][phys], seq, row);
                if (m->status) return;
            }
        }
        if (m->policy != 0) {
            m->lus_seq[rc][log] = seq;
            m->lus_slot[rc][log] = (i8)s;
        }
    }

    if (d->dest_class >= 0) {
        int c = d->dest_class, dl = d->dest;
        int old_pd = m->map[c][dl];
        int out = rename_destination(m, c, row, dl, old_pd, seq);
        if (m->status) return;
        int pd;
        if (out == OUT_REUSE) {
            pd = old_pd;
            r->reused = 1;
            m->producer_seq[c][pd] = seq;
            m->producer_row[c][pd] = row;
        } else {
            pd = rf_allocate(m, c, m->cycle, seq, row);
            if (pd < 0) return;
            m->map[c][dl] = pd;
            m->map_stale[c][dl] = 0;
            r->allocated_new = 1;
        }
        r->dest_class = c;
        r->dest_log = dl;
        r->pd = pd;
        r->old_pd = old_pd;
        r->rel_old = (i8)(out == OUT_ALLOC_REL);
        if (m->policy != 0) {
            m->lus_seq[c][dl] = seq;
            m->lus_slot[c][dl] = 3;       /* DST_SLOT */
        }
    }

    if (IS_BRANCH(d->op)) {
        ck_push(m, seq);
        if (m->policy == 2) {
            rq_push_level(m, 0, seq);
            rq_push_level(m, 1, seq);
            if (m->status) return;
        }
    }
    if (IS_MEM(d->op)) lsq_insert(m, seq, IS_STORE(d->op), d->addr);

    int exception = 0;
    if (m->exc_enabled && !d->wrong_path)
        exception = pcg_double(&m->exc_rng) < m->exception_rate;

    m->ros_count++;                       /* push: publish the entry */
    if (exception) {
        r->exception = 1;
        m->seen_exception = 1;
    }
    m->st[ST_RENAMED]++;
    if (d->op == OP_NOP) {
        cq_schedule(m, m->cycle + 1, seq, row);
        r->issued = 1;
    } else if (r->nwait == 0) {
        make_issue_ready(m, row);
    }
}

static void rename_stage(Machine *m) {
    i64 width = m->cfg[CFG_RENAME_W];
    for (i64 k = 0; k < width; k++) {
        if (m->dq_count == 0) break;
        DQEnt *d = &m->dq[m->dq_head];
        if (d->ready_cycle > m->cycle) break;
        int stall = dispatch_hazard(m, d);
        if (stall >= 0) {
            m->st[stall]++;
            break;
        }
        m->dq_head = ring_at(m->dq_head, 1, m->dq_cap);
        m->dq_count--;
        rename_one(m, d);
        if (m->status) return;
    }
}

/* ------------------------------------------------------------------ */
/* Wrong-path draw cascade.                                           */
/* ------------------------------------------------------------------ */
/* Port of WrongPathGenerator.next_instruction's draw cascade over the
 * generator's PCG64 words, following the draw contract of
 * trace/draws.py: a double is (x >> 11) * 2^-53 of one fresh word; a
 * bounded integer is a 32-bit Lemire multiply of the buffered half, else
 * of a fresh word's low half (its high half becomes the buffered one),
 * redrawn while the low 32 bits of the product fall below
 * 2^32 % span. */
static double wp_double(Machine *m) { return pcg_double(&m->wp_rng); }

static i64 wp_bounded(Machine *m, u64 span) {
    u64 threshold = (1ULL << 32) % span;
    for (;;) {
        u64 half;
        if (m->wp_half >= 0) {
            half = (u64)m->wp_half;
            m->wp_half = -1;
        } else {
            u64 x = pcg_next(&m->wp_rng);
            half = x & 0xFFFFFFFFULL;
            m->wp_half = (i64)(x >> 32);
        }
        u64 product = half * span;
        if ((product & 0xFFFFFFFFULL) >= threshold)
            return (i64)(product >> 32);
    }
}

static int wp_next_int(Machine *m) {
    return (int)(m->wp_int_base + m->wp_int_cursor++ % m->wp_int_n);
}

static int wp_next_fp(Machine *m) {
    return (int)(m->wp_fp_base + m->wp_fp_cursor++ % m->wp_fp_n);
}

/* Draw the payload of the wrong-path instruction at d->pc; a branch's
 * target is stamped as pc + 4 * delta. */
static void wp_draw(Machine *m, DQEnt *d) {
    double draw = wp_double(m), second;
    int int_src = (int)(m->wp_int_base + m->wp_int_cursor % m->wp_int_n);
    d->dest_class = -1;
    d->nsrc = 1;
    d->src_class[0] = 0;
    d->src_log[0] = int_src;
    if (draw < m->wp_branch) {
        d->op = OP_BRANCH;
        /* the drawn direction is overridden by the prediction at fetch */
        wp_double(m);
        d->target = d->pc + (8 + wp_bounded(m, 248)) * 4;
        return;
    }
    draw -= m->wp_branch;
    if (draw < m->wp_load) {
        second = wp_double(m);
        d->addr = m->wp_data_base + wp_bounded(m, 2048) * 8;
        if (second < m->wp_fp_share && m->wp_fp > 0) {
            d->op = OP_FP_LOAD;
            d->dest_class = 1;
            d->dest = wp_next_fp(m);
        } else {
            d->op = OP_LOAD;
            d->dest_class = 0;
            d->dest = wp_next_int(m);
        }
        return;
    }
    draw -= m->wp_load;
    if (draw < m->wp_store) {
        d->op = OP_STORE;
        d->nsrc = 2;
        d->src_class[1] = 0;
        d->src_log[1] = int_src;
        d->src_log[0] = wp_next_int(m);
        d->addr = m->wp_data_base + wp_bounded(m, 2048) * 8;
        return;
    }
    draw -= m->wp_store;
    if (draw < m->wp_fp) {
        d->op = wp_double(m) < 0.5 ? OP_FP_MULT : OP_FP_ADD;
        d->dest_class = 1;
        d->dest = wp_next_fp(m);
        d->src_class[0] = 1;
        d->src_log[0] = (int)(m->wp_fp_base + m->wp_fp_cursor % m->wp_fp_n);
        return;
    }
    d->op = OP_INT_ALU;
    d->dest_class = 0;
    d->dest = wp_next_int(m);
}

/* ------------------------------------------------------------------ */
/* Stage: fetch.                                                      */
/* ------------------------------------------------------------------ */
/* Direction prediction, BTB-gated: a predicted-taken branch that misses
 * in the BTB is fetched as not-taken.  Returns the gated direction. */
static int fetch_predict(Machine *m, DQEnt *d) {
    int pred;
    gs_predict(m, d->pc, &d->pred_idx, &d->pred_hist, &pred);
    d->pred_raw = pred;
    if (pred && btb_lookup(m, d->pc) < 0) pred = 0;
    d->has_pred = 1;
    d->pred_taken = pred;
    return pred;
}

static void fetch_stage(Machine *m) {
    if (m->dq_count >= m->decode_capacity) return;
    if (m->cycle < m->stall_until) return;
    /* The group's leading pc probes the I-cache even when the wrong-path
     * generator is disabled (fetch then idles on the wrong path). */
    i64 leading_pc = -1;
    int have_leading = 0;
    if (m->on_wrong_path) {
        leading_pc = m->wp_pc;
        have_leading = 1;
    } else if (m->cursor < m->trace_len) {
        leading_pc = m->t_pc[m->t_rows[m->cursor]];
        have_leading = 1;
    }
    if (have_leading) {
        i64 latency = MEM_IACCESS(m, leading_pc);
        if (latency > 1) {
            m->stall_until = m->cycle + latency;
            return;
        }
    }
    i64 fw = m->cfg[CFG_FETCH_W];
    i64 taken_seen = 0;
    for (i64 k = 0; k < fw; k++) {
        /* Built in its ring slot, published by the count bump below. */
        DQEnt *d = &m->dq[ring_at(m->dq_head, m->dq_count, m->dq_cap)];
        if (m->on_wrong_path) {
            if (!m->wp_enabled) break;
            memset(d, 0, sizeof *d);
            d->pred_idx = -1;
            d->resume_cursor = -1;
            d->wrong_path = 1;
            d->pc = m->wp_pc;
            m->wp_pc += 4;
            wp_draw(m, d);
            if (IS_BRANCH(d->op)) {
                d->taken = fetch_predict(m, d);
                if (d->taken) m->wp_pc = d->target;
                else d->target = d->pc + 4;
            }
        } else {
            /* Every field rename reads is assigned: no memset. */
            if (m->cursor >= m->trace_len) break;
            i64 i = m->cursor++;
            i64 r = m->t_rows[i];
            d->op = (int)m->t_op[r];
            d->pc = m->t_pc[r];
            d->dest_class = (int)m->t_dc[r];
            d->dest = (int)m->t_dest[r];
            d->nsrc = (int)m->t_nsrc[r];
            for (int s = 0; s < d->nsrc; s++) {
                d->src_class[s] = (int)m->t_src_class[r * MAX_SRCS + s];
                d->src_log[s] = (int)m->t_src_log[r * MAX_SRCS + s];
            }
            d->addr = m->t_addr[i];
            d->taken = (int)m->t_taken[r];
            d->target = m->t_target[r];
            d->resume_cursor = m->cursor;
            d->wrong_path = 0;
            if (IS_BRANCH(d->op)) {
                int pred = fetch_predict(m, d);
                d->mispredicted = (pred != d->taken);
                if (d->mispredicted) {
                    m->on_wrong_path = 1;
                    m->wp_pc = pred ? d->target : d->pc + 4;
                }
            } else {
                d->has_pred = d->pred_raw = d->pred_taken = 0;
                d->mispredicted = 0;
                d->pred_idx = -1;
                d->pred_hist = 0;
            }
        }
        d->ready_cycle = m->cycle + m->cfg[CFG_FRONTEND];
        m->dq_count++;
        m->st[ST_FETCHED]++;
        if (d->wrong_path) m->st[ST_FETCHED_WP]++;
        if (IS_BRANCH(d->op) && d->pred_taken) {
            taken_seen++;
            if (taken_seen >= m->cfg[CFG_MAX_TAKEN]) break;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Run loop.                                                          */
/* ------------------------------------------------------------------ */
static void finalize_stats(Machine *m) {
    if (m->finalized) return;
    m->finalized = 1;
    for (int c = 0; c < 2; c++) {
        for (i64 reg = 0; reg < m->nphys[c]; reg++)
            if (!m->fl_is_free[c][reg]) occ_attribute(m, c, reg, m->cycle);
        i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
        rf[RF_OCC_EMPTY] = m->occ_empty[c];
        rf[RF_OCC_READY] = m->occ_ready[c];
        rf[RF_OCC_IDLE] = m->occ_idle[c];
    }
}

/* Warm-up pass: exact port of MachineState._warm_state.  Each warm-up
 * instruction touches the I-cache, the data caches (loads/stores) and —
 * for branches — the predictor (speculative-history predict + resolve)
 * and the BTB (update only when taken; no lookup, matching the Python
 * pass).  The warmed structures keep their contents; every statistic
 * they incremented is zeroed afterwards, exactly like the Python
 * reset_statistics() calls at the warm/measure boundary. */
static void warmup_pass(Machine *m) {
    if (m->warm_len <= 0) return;
    for (i64 i = 0; i < m->warm_len; i++) {
        i64 r = m->wu_rows[i];
        int op = (int)m->wu_op[r];
        i64 pc = m->wu_pc[r];
        MEM_IACCESS(m, pc);
        if (IS_MEM(op)) {
            if (IS_STORE(op)) MEM_DWRITE(m, m->wu_addr[i]);
            else MEM_DREAD(m, m->wu_addr[i]);
        }
        if (IS_BRANCH(op)) {
            i64 idx, hist;
            int pred;
            int taken = m->wu_taken[r] != 0;
            gs_predict(m, pc, &idx, &hist, &pred);
            gs_resolve(m, idx, hist, taken, pred);
            if (taken) btb_update(m, pc, m->wu_target[r]);
        }
    }
    for (int s = ST_BTB_HITS; s <= ST_L2_MISSES; s++) m->st[s] = 0;
}

/* Input check, once per run before the warm-up pass and the first
 * cycle: every array the run reads is bound, every row id indexes its
 * row table, every measured row names a known op and registers that fit
 * the logical files, and the wrong-path register windows fit them too.
 * Returns the E_* detail of the first violation (0 = none); the caller
 * turns it into an internal escape, so bad input falls back to Python
 * instead of being read out of bounds. */
static int reg_fits(const Machine *m, i64 cls, i64 log) {
    return (cls == 0 || cls == 1) && log >= 0 && log < m->nlog[cls];
}

static int rows_fit(const int *rows, i64 n, i64 n_rows) {
    for (i64 i = 0; i < n; i++)
        if (rows[i] < 0 || rows[i] >= n_rows) return 0;
    return 1;
}

static int check_inputs(const Machine *m) {
    if ((m->trace_rows > 0 &&
         !(m->t_op && m->t_pc && m->t_dc && m->t_dest && m->t_nsrc &&
           m->t_src_class && m->t_src_log && m->t_taken && m->t_target)) ||
        (m->trace_len > 0 && !(m->t_rows && m->t_addr)) ||
        (m->warm_rows > 0 &&
         !(m->wu_op && m->wu_pc && m->wu_taken && m->wu_target)) ||
        (m->warm_len > 0 && !(m->wu_rows && m->wu_addr)))
        return E_UNBOUND;
    if (!rows_fit(m->t_rows, m->trace_len, m->trace_rows) ||
        !rows_fit(m->wu_rows, m->warm_len, m->warm_rows))
        return E_TRACE_ROW;
    for (i64 r = 0; r < m->trace_rows; r++) {
        i64 nsrc = m->t_nsrc[r];
        if (m->t_op[r] < 0 || m->t_op[r] >= N_OPS ||
            nsrc < 0 || nsrc > MAX_SRCS ||
            (m->t_dc[r] != -1 && !reg_fits(m, m->t_dc[r], m->t_dest[r])))
            return E_TRACE_REG;
        for (i64 s = 0; s < nsrc; s++)
            if (!reg_fits(m, m->t_src_class[r * MAX_SRCS + s],
                          m->t_src_log[r * MAX_SRCS + s]))
                return E_TRACE_REG;
    }
    if (m->wp_enabled &&
        (m->wp_int_base < 0 || m->wp_int_base + m->wp_int_n > m->nlog[0] ||
         m->wp_fp_base < 0 || m->wp_fp_base + m->wp_fp_n > m->nlog[1] ||
         m->wp_int_cursor < 0 || m->wp_fp_cursor < 0))
        return E_WP_WINDOW;
    return 0;
}

/* Run the whole point: a machine runs once, and a second call returns
 * the first run's status. */
int sim_run(Machine *m) {
    if (m->started) return m->status;
    m->started = 1;
    m->error = check_inputs(m);
    if (m->error) {
        m->status = RUN_INTERNAL;
        return m->status;
    }
    warmup_pass(m);
    for (;;) {
        if (m->max_cycles >= 0 && m->cycle >= m->max_cycles) break;
        commit_stage(m);
        if (m->status) return m->status;
        writeback_stage(m);
        if (m->status) return m->status;
        issue_stage(m);
        if (m->status) return m->status;
        rename_stage(m);
        if (m->status) return m->status;
        fetch_stage(m);
        if (m->status) return m->status;
        m->cycle++;
        if (m->st[ST_COMMITTED] >= m->commit_limit) break;
        if (m->ros_count == 0 && m->dq_count == 0 &&
            m->cursor >= m->trace_len && !m->on_wrong_path)
            break;
        if (m->max_cycles >= 0 && m->cycle >= m->max_cycles) break;
        if (m->cycle - m->last_commit_cycle > m->deadlock_threshold) {
            m->status = RUN_DEADLOCK;
            return m->status;
        }
    }
    finalize_stats(m);
    return m->status;
}

/* ------------------------------------------------------------------ */
/* Construction / teardown / ABI accessors.                           */
/* ------------------------------------------------------------------ */
static void cache_init(Machine *m, CacheZ *c, Arena *a, i64 sets,
                       i64 assoc, i64 shift, i64 lat, int hits_slot,
                       int misses_slot) {
    c->n_sets = sets;
    c->set_mask = set_mask_of(sets);
    c->assoc = assoc;
    c->shift = shift;
    c->lat = lat;
    c->tag = CARVE(a, i64, sets * assoc);
    c->dirty = CARVE(a, i64, sets * assoc);
    c->nway = CARVE(a, i64, sets);
    c->hits = m->st + hits_slot;
    c->misses = m->st + misses_slot;
}

/* Read the config into m and carve every array it sizes.  While
 * sizing, m is a stand-in record and every array pointer comes back 0. */
static Machine *lay_out(const i64 *cfg, Arena *a, Machine *sizing) {
    a->used = ARENA_HEAD;
    Machine *m = CARVE(a, Machine, 1);
    if (!m) m = sizing;
    memcpy(m->cfg, cfg, sizeof(m->cfg));
    m->arena = a->base;

    m->trace_len = cfg[CFG_TRACE_LEN];
    m->ros_cap = cfg[CFG_ROS];
    m->lsq_cap = cfg[CFG_LSQ];
    m->ck_cap = cfg[CFG_CK_CAP];
    m->policy = (int)cfg[CFG_POLICY];
    m->reuse_on_committed_lu = (int)cfg[CFG_REUSE];
    m->wp_enabled = (int)cfg[CFG_WP_ENABLED];
    m->exc_enabled = (int)cfg[CFG_EXC_ENABLED];
    m->nphys[0] = cfg[CFG_NPHYS_INT];
    m->nphys[1] = cfg[CFG_NPHYS_FP];
    m->nlog[0] = cfg[CFG_NLOG_INT];
    m->nlog[1] = cfg[CFG_NLOG_FP];
    m->mem_lat = cfg[CFG_MEM_LAT];
    m->trace_rows = cfg[CFG_TRACE_ROWS];
    m->warm_len = cfg[CFG_WARM_LEN];
    m->warm_rows = cfg[CFG_WARM_ROWS];

    /* gshare */
    m->gs_size = 1LL << cfg[CFG_GSHARE_BITS];
    m->gs_mask = m->gs_size - 1;
    m->gs_table = CARVE(a, i8, m->gs_size);

    /* BTB */
    m->btb_sets = cfg[CFG_BTB_SETS];
    m->btb_mask = set_mask_of(m->btb_sets);
    m->btb_assoc = cfg[CFG_BTB_ASSOC];
    m->btb_tag = CARVE(a, i64, m->btb_sets * m->btb_assoc);
    m->btb_target = CARVE(a, i64, m->btb_sets * m->btb_assoc);
    m->btb_nway = CARVE(a, i64, m->btb_sets);

    /* caches */
    cache_init(m, &m->l1i, a, cfg[CFG_L1I_SETS], cfg[CFG_L1I_ASSOC],
               cfg[CFG_L1I_SHIFT], cfg[CFG_L1I_LAT], ST_L1I_HITS,
               ST_L1I_MISSES);
    cache_init(m, &m->l1d, a, cfg[CFG_L1D_SETS], cfg[CFG_L1D_ASSOC],
               cfg[CFG_L1D_SHIFT], cfg[CFG_L1D_LAT], ST_L1D_HITS,
               ST_L1D_MISSES);
    cache_init(m, &m->l2, a, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC],
               cfg[CFG_L2_SHIFT], cfg[CFG_L2_LAT], ST_L2_HITS,
               ST_L2_MISSES);

    /* functional units */
    i64 fu_total = 0;
    for (int k = 0; k < 6; k++) {
        m->fu_count[k] = cfg[CFG_FU + 2 * k];
        m->fu_unpip[k] = cfg[CFG_FU + 2 * k + 1];
        m->fu_off[k] = fu_total;
        fu_total += m->fu_count[k];
    }
    m->fu_free_at = CARVE(a, i64, fu_total > 0 ? fu_total : 1);
    for (int op = 0; op < N_OPS; op++) m->op_lat[op] = cfg[CFG_OP_LAT + op];

    /* register files, LUs table */
    for (int c = 0; c < 2; c++) {
        i64 np = m->nphys[c], nl = m->nlog[c];
        m->fl_ring[c] = CARVE(a, int, np);
        m->fl_is_free[c] = CARVE(a, i8, np);
        m->producer_seq[c] = CARVE(a, i64, np);
        m->producer_row[c] = CARVE(a, int, np);
        m->occ_alloc[c] = CARVE(a, i64, np);
        m->occ_write[c] = CARVE(a, i64, np);
        m->occ_lu[c] = CARVE(a, i64, np);
        m->map[c] = CARVE(a, int, nl);
        m->iomt[c] = CARVE(a, int, nl);
        m->map_stale[c] = CARVE(a, i8, nl);
        m->arch_released[c] = CARVE(a, i8, nl);
        m->lus_seq[c] = CARVE(a, i64, nl);
        m->lus_slot[c] = CARVE(a, i8, nl);
    }

    /* ROS rows */
    i64 rc = m->ros_cap;
    m->ros = CARVE(a, RosRow, rc);

    /* ready heap */
    m->heap_cap = 4 * rc;
    m->heap_seq = CARVE(a, i64, m->heap_cap);
    m->heap_row = CARVE(a, int, m->heap_cap);

    /* wakeup pool */
    m->wk_cap = 8 * rc;
    m->wk_seq = CARVE(a, i64, m->wk_cap);
    m->wk_row = CARVE(a, int, m->wk_cap);
    m->wk_next = CARVE(a, int, m->wk_cap);

    /* completion queue */
    i64 max_op_lat = 0;
    for (int op = 0; op < N_OPS; op++)
        if (m->op_lat[op] > max_op_lat) max_op_lat = m->op_lat[op];
    i64 horizon = max_op_lat + m->l1d.lat + m->l2.lat + m->mem_lat + 8;
    m->cq_ring = next_pow2(horizon > 256 ? horizon : 256);
    m->cq_mask = m->cq_ring - 1;
    m->cq_bucket = CARVE(a, int, m->cq_ring);
    m->cq_tail = CARVE(a, int, m->cq_ring);
    m->cq_cap = 4 * rc + 64;
    m->cq_seq = CARVE(a, i64, m->cq_cap);
    m->cq_row = CARVE(a, int, m->cq_cap);
    m->cq_next = CARVE(a, int, m->cq_cap);

    /* LSQ */
    i64 lc = m->lsq_cap > 0 ? m->lsq_cap : 1;
    m->l_seq = CARVE(a, i64, lc);
    m->l_addr = CARVE(a, i64, lc);
    m->l_is_store = CARVE(a, i8, lc);
    m->l_known = CARVE(a, i8, lc);
    m->l_whead = CARVE(a, int, lc);
    m->l_wtail = CARVE(a, int, lc);
    m->lw_cap = 4 * rc;
    m->lw_seq = CARVE(a, i64, m->lw_cap);
    m->lw_row = CARVE(a, int, m->lw_cap);
    m->lw_next = CARVE(a, int, m->lw_cap);

    /* checkpoints */
    i64 kc = m->ck_cap > 0 ? m->ck_cap : 1;
    m->ck_order = CARVE(a, int, kc);
    m->ck_freestack = CARVE(a, int, kc);
    m->ck_seq = CARVE(a, i64, kc);
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        m->ck_map[c] = CARVE(a, int, kc * nl);
        m->ck_stale[c] = CARVE(a, i8, kc * nl);
        m->ck_lus_seq[c] = CARVE(a, i64, kc * nl);
        m->ck_lus_slot[c] = CARVE(a, i8, kc * nl);
    }

    /* release queues (extended only): depth = checkpoint capacity
     * (ProcessorConfig.max_pending_branches), not a hardwired constant */
    if (m->policy == 2) {
        i64 npmax = m->nphys[0] > m->nphys[1] ? m->nphys[0] : m->nphys[1];
        m->rq_levels = m->ck_cap > 0 ? m->ck_cap : 1;
        m->rq_rwns_cap = 2 * npmax + rc;
        m->rq_rwc_cap = rc;
        for (int c = 0; c < 2; c++) {
            m->rq_slots[c] = CARVE(a, RQLevel, m->rq_levels);
            m->rq_order[c] = CARVE(a, int, m->rq_levels);
            m->rq_freestack[c] = CARVE(a, int, m->rq_levels);
            for (i64 s = 0; s < m->rq_levels; s++) {
                RQLevel sized, *lv = a->base ? &m->rq_slots[c][s] : &sized;
                lv->rwns_phys = CARVE(a, int, m->rq_rwns_cap);
                lv->rwns_log = CARVE(a, int, m->rq_rwns_cap);
                lv->rwc_lu = CARVE(a, i64, m->rq_rwc_cap);
                lv->rwc_mask = CARVE(a, int, m->rq_rwc_cap);
            }
        }
    }

    /* decode queue */
    m->decode_capacity = (cfg[CFG_FRONTEND] + 2) * cfg[CFG_FETCH_W];
    m->dq_cap = m->decode_capacity + cfg[CFG_FETCH_W];
    m->dq = CARVE(a, DQEnt, m->dq_cap);

    /* scratch */
    m->scratch_rows = CARVE(a, int, rc);
    m->blocked_rows = CARVE(a, int, rc);
    m->freed_reg[0] = CARVE(a, int, rc);
    m->freed_reg[1] = CARVE(a, int, rc);
    return m;
}

/* Build the cold machine of a config vector, or return 0 for a vector
 * the core does not accept or when memory runs out.  lay_out sizes the
 * arena; it is the thread's spare when that is large enough and its
 * used span is zeroed (a fresh one comes zeroed), so every array starts
 * at 0 before the reset state below is written. */
Machine *sim_new(const long long *cfg, int ncfg, const double *rates,
                 int nrates) {
    if (ncfg != NCFG || nrates != NF) return 0;
    if (cfg[CFG_POLICY] == 2 && cfg[CFG_CK_CAP] > RQ_LEVELS_MAX)
        return 0;           /* Release Queue deeper than the compiled max */

    Machine sizing;
    Arena a = {0, 0};
    lay_out(cfg, &a, &sizing);
    a.base = arena_take(a.used);
    if (!a.base) return 0;
    Machine *m = lay_out(cfg, &a, 0);
    ASAN_POISON_MEMORY_REGION(a.base + a.used, arena_cap(a.base) - a.used);

    m->max_cycles = cfg[CFG_MAX_CYCLES];           /* -1 = no cap */
    m->commit_limit = cfg[CFG_COMMIT_LIMIT];
    m->deadlock_threshold = cfg[CFG_DEADLOCK];
    m->committed_watermark = -1;
    m->gs_history = cfg[CFG_GS_HISTORY];
    m->exception_rate = rates[F_EXC_RATE];

    /* the wrong-path cascade: mix, buffered half (-1 = none), windows
     * (an empty one never draws) and cursors */
    m->wp_branch = rates[F_WP_BRANCH];
    m->wp_load = rates[F_WP_LOAD];
    m->wp_store = rates[F_WP_STORE];
    m->wp_fp = rates[F_WP_FP];
    m->wp_fp_share = rates[F_WP_FP_SHARE];
    m->wp_half = cfg[CFG_WP_HALF];
    m->wp_data_base = cfg[CFG_WP_DATA_BASE];
    m->wp_int_base = cfg[CFG_WP_INT_BASE];
    m->wp_int_n = cfg[CFG_WP_INT_N] > 0 ? cfg[CFG_WP_INT_N] : 1;
    m->wp_int_cursor = cfg[CFG_WP_INT_CURSOR];
    m->wp_fp_base = cfg[CFG_WP_FP_BASE];
    m->wp_fp_n = cfg[CFG_WP_FP_N] > 0 ? cfg[CFG_WP_FP_N] : 1;
    m->wp_fp_cursor = cfg[CFG_WP_FP_CURSOR];

    memset(m->gs_table, 2, (size_t)m->gs_size);

    for (int k = 0; k < 6; k++) m->fu_last_cycle[k] = -1;

    /* register files */
    for (int c = 0; c < 2; c++) {
        i64 np = m->nphys[c], nl = m->nlog[c];
        fill_i64(m->producer_seq[c], np, -1);
        fill_int(m->producer_row[c], np, -1);
        fill_i64(m->occ_alloc[c], np, -1);
        fill_i64(m->occ_write[c], np, -1);
        fill_i64(m->occ_lu[c], np, -1);
        fill_i64(m->lus_seq[c], nl, -1);
        for (i64 log = 0; log < nl; log++) {
            m->map[c][log] = (int)log;
            m->iomt[c][log] = (int)log;
            /* initial architectural mappings: occupied from cycle 0,
             * written, never read yet; not counted as allocations */
            m->occ_alloc[c][log] = 0;
            m->occ_write[c][log] = 0;
        }
        m->fl_head[c] = 0;
        m->fl_count[c] = np - nl;
        for (i64 i = nl; i < np; i++) {
            m->fl_ring[c][i - nl] = (int)i;
            m->fl_is_free[c][i] = 1;
        }
    }

    /* ROS rows */
    for (i64 i = 0; i < m->ros_cap; i++) {
        m->ros[i].seq = -1;
        m->ros[i].wk_head = m->ros[i].wk_tail = -1;
    }

    /* wakeup pool */
    for (i64 i = 0; i < m->wk_cap; i++)
        m->wk_next[i] = (int)(i + 1 < m->wk_cap ? i + 1 : -1);
    m->wk_free = 0;

    /* completion queue */
    fill_int(m->cq_bucket, m->cq_ring, -1);
    fill_int(m->cq_tail, m->cq_ring, -1);
    for (i64 i = 0; i < m->cq_cap; i++)
        m->cq_next[i] = (int)(i + 1 < m->cq_cap ? i + 1 : -1);
    m->cq_free = 0;

    /* LSQ */
    i64 lc = m->lsq_cap > 0 ? m->lsq_cap : 1;
    fill_int(m->l_whead, lc, -1);
    fill_int(m->l_wtail, lc, -1);
    for (i64 i = 0; i < m->lw_cap; i++)
        m->lw_next[i] = (int)(i + 1 < m->lw_cap ? i + 1 : -1);
    m->lw_free = 0;

    /* checkpoints */
    i64 kc = m->ck_cap > 0 ? m->ck_cap : 1;
    for (i64 i = 0; i < kc; i++) m->ck_freestack[i] = (int)i;
    m->ck_nfree = m->ck_cap;

    /* release queues */
    if (m->policy == 2) {
        for (int c = 0; c < 2; c++) {
            for (i64 s = 0; s < m->rq_levels; s++)
                m->rq_freestack[c][s] = (int)s;
            m->rq_nfree[c] = (int)m->rq_levels;
        }
    }
    return m;
}

/* Park the arena as the calling thread's spare; the thread's next
 * sim_new reuses it. */
void sim_free(Machine *m) {
    if (m) arena_park(m->arena);
}

/* Point the run at one of the caller's trace arrays (ids A_T_*, A_WU_*);
 * the caller keeps it alive until sim_run returns. */
void sim_bind(Machine *m, int which, const void *data) {
    const i64 *p = (const i64 *)data;
    switch (which) {
    case A_T_OP: m->t_op = p; break;
    case A_T_PC: m->t_pc = p; break;
    case A_T_DC: m->t_dc = p; break;
    case A_T_DEST: m->t_dest = p; break;
    case A_T_NSRC: m->t_nsrc = p; break;
    case A_T_SRC_CLASS: m->t_src_class = p; break;
    case A_T_SRC_LOG: m->t_src_log = p; break;
    case A_T_TAKEN: m->t_taken = p; break;
    case A_T_TARGET: m->t_target = p; break;
    case A_T_ROWS: m->t_rows = (const int *)data; break;
    case A_T_ADDR: m->t_addr = p; break;
    case A_WU_OP: m->wu_op = p; break;
    case A_WU_PC: m->wu_pc = p; break;
    case A_WU_TAKEN: m->wu_taken = p; break;
    case A_WU_TARGET: m->wu_target = p; break;
    case A_WU_ROWS: m->wu_rows = (const int *)data; break;
    case A_WU_ADDR: m->wu_addr = p; break;
    }
}

static Pcg64 *rng_of(Machine *m, int stream) {
    return stream == RNG_WRONGPATH ? &m->wp_rng
         : stream == RNG_EXC ? &m->exc_rng : 0;
}

/* Load a stream's 128-bit PCG64 state and increment (ids RNG_*). */
void sim_seed(Machine *m, int stream, unsigned long long state_hi,
              unsigned long long state_lo, unsigned long long inc_hi,
              unsigned long long inc_lo) {
    Pcg64 *g = rng_of(m, stream);
    if (!g) return;
    g->state = (u128)state_hi << 64 | state_lo;
    g->inc = (u128)inc_hi << 64 | inc_lo;
}

/* The next draw of a stream, as a run would draw it (the stream pins
 * read it): a raw word, or with 0 < span <= 2^32 a bounded integer of
 * the wrong-path cascade, which consumes its pending half first. */
unsigned long long sim_draw(Machine *m, int stream, unsigned long long span) {
    if (stream == RNG_WRONGPATH && span > 0) return (u64)wp_bounded(m, span);
    Pcg64 *g = rng_of(m, stream);
    return g ? pcg_next(g) : 0;
}

long long *sim_i64(Machine *m, int which) {
    switch (which) {
    case A_B_TAG: return m->btb_tag;
    case A_B_TARGET: return m->btb_target;
    case A_B_NWAY: return m->btb_nway;
    case A_L1I_TAG: return m->l1i.tag;
    case A_L1I_DIRTY: return m->l1i.dirty;
    case A_L1I_NWAY: return m->l1i.nway;
    case A_L1D_TAG: return m->l1d.tag;
    case A_L1D_DIRTY: return m->l1d.dirty;
    case A_L1D_NWAY: return m->l1d.nway;
    case A_L2_TAG: return m->l2.tag;
    case A_L2_DIRTY: return m->l2.dirty;
    case A_L2_NWAY: return m->l2.nway;
    case A_STATS: return m->st;
    }
    return 0;
}

signed char *sim_i8(Machine *m, int which) {
    if (which == 0) return m->gs_table;
    return 0;
}

long long sim_get(Machine *m, int which) {
    switch (which) {
    case SC_STATUS: return m->status;
    case SC_ERROR: return m->error;
    case SC_CYCLE: return m->cycle;
    case SC_ABI_MAGIC: return ABI_MAGIC;
    }
    return -1;
}
