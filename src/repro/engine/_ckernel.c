/* Compiled engine kernel: the calendar-queue drain loop and the router
 * allocation pipeline as a CPython extension.
 *
 * It has the function inventory of the pure-Python kernels in
 * repro/engine/kernel.py, name for name, operating on the typed
 * (array('q'), int64) buffers of repro.engine.soa.SoAStore mapped once
 * through the buffer protocol:
 *
 *   kernel.py                      _ckernel.c
 *   py_drain                       ck_drain -> drain_core -> dispatch
 *   EventQueue.post                cal_post
 *   arm                            arm_step
 *   step                           c_step
 *   r.routing.decide(pkt, r)       cached_or_decide (twin or Python;
 *                                    the memo is C only)
 *   _commit                        c_commit
 *   arrive                         c_arrive
 *   output_enqueue                 c_output_enqueue
 *   send                           c_send
 *   release_output                 c_release_output
 *   release_credit                 c_release_credit
 *   link_step                      dispatch, OP_LINK: release, then send
 *   promote                        promote (from c_step's scan; the
 *                                    constructor is row_fill on a lowered
 *                                    cell, TrafficGenerator._make_packet
 *                                    else)
 *   TrafficGenerator._gen_event    c_gen (the pattern's dest as its
 *     / pattern.dest                 lowering descriptor; enqueue,
 *                                  next_gap and on_generate inlined)
 *   make_packet                    row_fill
 *   StatsCollector.on_delivery     c_deliver
 *   StatsCollector.on_injection    inline in c_commit
 *
 * Four deliberate asymmetries: step's single-head fast path and the
 * prebuilt constant records (prebuild_records) are Python only, the
 * native calendar (below) and the decision memo are C only.  The memo is
 * the kernel's private state: an entry per input key, holding a twin's
 * decision for that key's head under the condition the twin proved it
 * repeats (MIN always, oblivious / PiggyBack once the plan is frozen,
 * in-transit from the purity and guard its twin hands back); a Python
 * decide() is never memoized, and every mirror out clears the memo, so
 * code that edits a waiting packet or a counter is seen at the next
 * pass.
 *
 * A cell is lowered when the Simulation sets eq._lower to its
 * TrafficGenerator (the compiled backend, a pattern whose lower() returns
 * a descriptor, no oracle): c_gen and c_deliver then replace the _gen /
 * _sink hooks, reading the generator, its collector's window and four
 * stat buffers and the descriptor once, when the KState is built.  The
 * generator, not the Simulation: nothing the kernel holds may refer back
 * to the Simulation, so that dropping it closes it.
 *
 * What the kernel reads from Python objects is stated once per object
 * kind — event queue, SoA store, router, mechanism / topology, PiggyBack
 * group state, traffic generator / collector — as a table of checked
 * attribute reads (read_attrs: a failure names the kind and the
 * attribute).  The constants it shares with Python (the OP_* opcodes of
 * engine/events.py, the SI_* / SF_* stat-block slots of
 * metrics/collector.py) are compared by name at import (check_layout).
 *
 * Bit-identity contract
 * ---------------------
 * Every observable effect matches the Python kernels exactly:
 *
 * - the drain order (heap of distinct cycles + FIFO buckets with a
 *   growing-list cursor) and the opcode dispatch semantics are the same;
 * - the allocation scan iterates `active_keys` in Python's own set
 *   iteration order (read off its native twin, "the active-key index"),
 *   decides
 *   at exactly the same points — through `routing.decide` or its C twin,
 *   which draws the same words from the same stream — and reuses a
 *   memoized twin decision only where deciding again would return it
 *   without a draw (the python-vs-compiled goldens check that against
 *   the memo-free Python kernel);
 * - arithmetic is int64 throughout, matching the value range of the
 *   Python ints the interpreted kernels produce;
 * - `events_processed` / `activations` accounting, including the
 *   exception path (consume the raising record, keep the bucket
 *   remainder), mirrors py_drain's try/finally.
 *
 * A Python object exists for a packet only where Python is called with
 * one or sees one (above); a lowered cell whose decisions all run in C
 * twins builds none until the drain exits.
 *
 * Python is called back for exactly the work that is Python by contract:
 * routing decisions of mechanisms without a twin (every mechanism of
 * repro.routing.factory has one: c_min_decide, c_oblivious_decide,
 * c_piggyback_decide, c_intransit_decide; the modules of repro/routing
 * stay the reference), traffic generation (OP_GEN), the packet
 * constructor (promote), the delivery sink (OP_DELIVER) and the stats
 * injection callback of cells that are not lowered, and generic OP_CALL
 * callbacks (and records whose opcode is
 * outside 1..9, which py_drain runs as callbacks too).  The hop
 * bookkeeping (c_commit / c_arrive) and the router pipeline are the
 * kernel's own: a router class whose step is not kernel.step is refused
 * when the KState is built.  A typed record (opcode 1..9) whose target is
 * not one of the store's routers, whose fields are not in-range ints, or
 * whose packet is not a Packet with int64 fields, raises FlowControlError
 * when it is dispatched: no simulation posts one.
 *
 * Native event path: mirror in, mirror out, absorb
 * ------------------------------------------------
 * For the length of a drain every per-event object is a fixed-width
 * native record: the calendar (eq._buckets / eq._times) is a Calendar of
 * 24-byte Recs, the output FIFOs (soa.out_fifo) are per-port Rings, the
 * input FIFOs (soa.in_q) are one InQ record per key — ring, cached head
 * and its size, and the key's memo — the injection tails (soa.inj_tail)
 * one Tail of uint32 (gen_time, dst) pairs per node, and Router._arb_time
 * and the queue's now / processed / activations are plain int64s.  A
 * packet is a row of the KState's packet pool (one int64 column per
 * Packet.__slots__ field, "packet rows" below), and records, rings and
 * memos name rows by index; a packet behind the head of its injection
 * FIFO is only its tail's pair, and becomes a row when promote makes it
 * the head.  Only the
 * active-key sets stay Python objects; the kernel reads each set through
 * a write-through native index.  Two contracts make the InQ cache sound:
 * only Packet.__init__ (and c_gen, which fills a row) writes a packet's
 * size, so its size is read once, when it is enqueued; and the narrow
 * hooks below neither read nor edit soa.in_q, except that Router.inject
 * may append.  Python stays coherent by the idiom RngMirror uses for the
 * RNG streams:
 *
 * - mirror in at drain entry: the Python structures are converted and
 *   left empty (no bucket, no FIFO entry, every _arb_time None;
 *   each in_q slot of a VC a port class lacks stays None), every Packet
 *   taken into a row it stays attached to;
 * - mirror out on every exit — normal and error — and around whatever
 *   may run arbitrary code (an OP_CALL callback), followed by a fresh
 *   mirror in: such code sees and may edit the complete state, every
 *   packet as the Packet object of its row (the memo, which Python never
 *   sees, is dropped);
 * - after the narrow contract hooks (_gen, _sink, a Python decide,
 *   on_injection) only absorb the inbox:
 *   they read eq.now, which is written before the call, and what they
 *   posted into the empty eq._buckets is appended to the calendar in
 *   posting order.  An (OP_STEP, router) token found there is the arming
 *   Router.inject does from a None mark, and is replayed through
 *   arm_step; the router's injection-key lists, [kb, kb + boundary), are
 *   then moved into their rings (load_inq checks every entry it takes,
 *   and refuses a list whose node's tail holds pairs: its packets would
 *   overtake them, as Router.inject refuses), and its nodes' tail arrays
 *   (what Router.enqueue queued) behind their tails (load_tail).
 *   A hook that takes a packet gets the Packet object of its row, with
 *   the row's fields written into it before the call and read back
 *   after it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>
#include <math.h>

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static inline int64_t
as_ll(PyObject *o)
{
    /* Single-digit fast path: every hot int here (cycle, port, vc,
     * node, pid) fits one 30-bit digit, and PyLong_AsLongLong's
     * overflow machinery shows up in profiles. */
    if (PyLong_CheckExact(o)) {
        Py_ssize_t s = Py_SIZE(o);
        if (s == 0)
            return 0;
        if (s == 1)
            return (int64_t)((PyLongObject *)o)->ob_digit[0];
        if (s == -1)
            return -(int64_t)((PyLongObject *)o)->ob_digit[0];
    }
    return (int64_t)PyLong_AsLongLong(o);
}

/* Resolve a __slots__ member descriptor to its instance offset. */
static Py_ssize_t
slot_offset(PyTypeObject *tp, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    Py_ssize_t off;
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        Py_DECREF(descr);
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a __slots__ member", tp->tp_name, name);
        return -1;
    }
    off = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return off;
}

/* Borrowed slot read (may be NULL for an unset slot). */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    return *(PyObject **)((char *)obj + off);
}

/* Slot write; steals the reference to `v`. */
static inline void
slot_set(PyObject *obj, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)obj + off);
    PyObject *old = *p;
    *p = v;
    Py_XDECREF(old);
}

static inline int64_t
slot_ll(PyObject *obj, Py_ssize_t off)
{
    return as_ll(slot_get(obj, off));
}

static inline int
slot_set_ll(PyObject *obj, Py_ssize_t off, int64_t v)
{
    PyObject *o = PyLong_FromLongLong((long long)v);
    if (o == NULL)
        return -1;
    slot_set(obj, off, o);
    return 0;
}

/* A fixed-arity vectorcall: the hot-path replacement for the va_list
 * based PyObject_CallFunctionObjArgs (which boxes through object_vacall
 * on every call). */
static inline PyObject *
call2(PyObject *func, PyObject *a, PyObject *b)
{
    PyObject *args[2] = {a, b};
    return PyObject_Vectorcall(func, args, 2, NULL);
}

/* ------------------------------------------------------------------ */
/* in-kernel MT19937 (bit-exact twin of CPython's _random.Random)      */
/* ------------------------------------------------------------------ */

/* The lowered traffic generator and the drawing routing twins consume
 * the simulation's rng_traffic / rng_routing streams natively: the
 * 625-word state from random.Random.getstate() is copied in at drain
 * entry and written back via setstate() at drain exit (RngMirror), and
 * the consumers they need — random() (the 53-bit genrand_res53
 * construction), getrandbits(k<=32), randrange(n) / choice (one
 * _randbelow each) and shuffle — are reproduced word-for-word, so the
 * stream position and every drawn value match the interpreted path
 * exactly. */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} MtState;

static uint32_t
mt_next(MtState *st)
{
    static const uint32_t mag01[2] = {0u, 0x9908b0dfu};
    uint32_t y;
    if (st->mti >= MT_N) {
        uint32_t *mt = st->mt;
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1u];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1u];
        }
        y = (mt[MT_N - 1] & 0x80000000u) | (mt[0] & 0x7fffffffu);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1u];
        st->mti = 0;
    }
    y = st->mt[st->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= (y >> 18);
    return y;
}

/* random(): genrand_res53, exactly as CPython's random_random. */
static inline double
mt_random(MtState *st)
{
    uint32_t a = mt_next(st) >> 5, b = mt_next(st) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* getrandbits(k) for 1 <= k <= 32. */
static inline uint32_t
mt_getrandbits(MtState *st, int k)
{
    return mt_next(st) >> (32 - k);
}

/* random.Random._randbelow_with_getrandbits(n) for 1 <= n < 2**32, with
 * `bits` = n.bit_length() precomputed: the same rejection loop over
 * getrandbits, so the same number of words leaves the stream. */
static inline int64_t
mt_randbelow(MtState *st, int64_t n, int bits)
{
    int64_t r = (int64_t)mt_getrandbits(st, bits);
    while (r >= n)
        r = (int64_t)mt_getrandbits(st, bits);
    return r;
}

/* int.bit_length() for 0 <= n. */
static int
bit_length(int64_t n)
{
    int bits = 0;
    while (n > 0) {
        bits += 1;
        n >>= 1;
    }
    return bits;
}

/* random.Random.shuffle(x): one _randbelow(i + 1) per position, from the
 * last down to the second. */
static void
mt_shuffle(MtState *st, int64_t *x, int64_t n)
{
    int64_t i;
    for (i = n - 1; i >= 1; i--) {
        int64_t j = mt_randbelow(st, i + 1, bit_length(i + 1));
        int64_t tmp = x[i];
        x[i] = x[j];
        x[j] = tmp;
    }
}

/* random.Random.getstate() tuple -> MtState.  Returns the borrowed
 * gauss_next item (state[2]), NULL with an error set on a foreign
 * layout. */
static PyObject *
mt_from_state(PyObject *state, MtState *st)
{
    PyObject *inner;
    Py_ssize_t i;
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 3
        || !PyTuple_Check(PyTuple_GET_ITEM(state, 1))
        || PyTuple_GET_SIZE(PyTuple_GET_ITEM(state, 1)) != MT_N + 1) {
        PyErr_SetString(PyExc_TypeError,
                        "unexpected random.Random state layout");
        return NULL;
    }
    inner = PyTuple_GET_ITEM(state, 1);
    for (i = 0; i < MT_N; i++) {
        unsigned long w =
            PyLong_AsUnsignedLong(PyTuple_GET_ITEM(inner, i));
        if (w == (unsigned long)-1 && PyErr_Occurred())
            return NULL;
        st->mt[i] = (uint32_t)w;
    }
    st->mti = (int)PyLong_AsLong(PyTuple_GET_ITEM(inner, MT_N));
    if (st->mti == -1 && PyErr_Occurred())
        return NULL;
    return PyTuple_GET_ITEM(state, 2);
}

/* MtState -> a fresh (3, (624 words, index), gauss_next) state tuple. */
static PyObject *
mt_to_state(const MtState *st, PyObject *gauss_next)
{
    PyObject *inner = PyTuple_New(MT_N + 1), *w;
    Py_ssize_t i;
    if (inner == NULL)
        return NULL;
    for (i = 0; i <= MT_N; i++) {
        w = (i < MT_N) ? PyLong_FromUnsignedLong((unsigned long)st->mt[i])
                       : PyLong_FromLong((long)st->mti);
        if (w == NULL) {
            Py_DECREF(inner);
            return NULL;
        }
        PyTuple_SET_ITEM(inner, i, w);
    }
    return Py_BuildValue("(iNO)", 3, inner, gauss_next);
}

/* One random.Random stream held by the kernel for the length of a
 * drain: loaded from getstate() at entry, stored with setstate() at
 * exit (and around every call into Python code that draws from it).
 * Both streams the kernel consumes — rng_traffic on lowered cells,
 * rng_routing under a drawing decide twin — go through these two
 * routines. */
typedef struct {
    PyObject *rng;        /* owned: the random.Random */
    PyObject *gauss_next; /* owned: getstate()[2], round-tripped */
    MtState mt;
} RngMirror;

static int
rng_load(RngMirror *m)
{
    PyObject *state = PyObject_CallMethod(m->rng, "getstate", NULL);
    PyObject *gauss;
    if (state == NULL)
        return -1;
    gauss = mt_from_state(state, &m->mt);
    if (gauss == NULL) {
        Py_DECREF(state);
        return -1;
    }
    Py_INCREF(gauss);
    Py_XSETREF(m->gauss_next, gauss);
    Py_DECREF(state);
    return 0;
}

static int
rng_store(RngMirror *m)
{
    PyObject *state =
        mt_to_state(&m->mt, m->gauss_next ? m->gauss_next : Py_None);
    PyObject *res;
    if (state == NULL)
        return -1;
    res = PyObject_CallMethod(m->rng, "setstate", "(O)", state);
    Py_DECREF(state);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static void
rng_clear(RngMirror *m)
{
    Py_CLEAR(m->rng);
    Py_CLEAR(m->gauss_next);
}

/* Python's % (result sign follows the divisor; divisors here > 0). */
static inline int64_t
pymod(int64_t x, int64_t m)
{
    int64_t r = x % m;
    return (r < 0) ? r + m : r;
}

/* ------------------------------------------------------------------ */
/* kernel state                                                        */
/* ------------------------------------------------------------------ */

/* The columns of a packet row: one per Packet.__slots__ field
 * (check_layout compares the two by name and count). */
enum {
    PK_PID, PK_SIZE, PK_SRC_NODE, PK_SRC_ROUTER, PK_SRC_GROUP, PK_DST_NODE,
    PK_DST_ROUTER, PK_DST_GROUP, PK_DST_LOCAL_ROUTER, PK_DST_NODE_PORT,
    PK_GEN_TIME, PK_INJECT_TIME, PK_T_ENQ, PK_WAIT_LOCAL, PK_WAIT_GLOBAL,
    PK_SERVICE_SUM, PK_BASE_LATENCY, PK_LOCAL_HOPS, PK_GLOBAL_HOPS,
    PK_GROUP_LOCAL_HOPS, PK_CURRENT_GROUP, PK_PLAN, PK_INTER_ROUTER,
    PK_INTER_GROUP, N_PK
};

static const char *const PK_NAMES[N_PK] = {
    "pid", "size", "src_node", "src_router", "src_group", "dst_node",
    "dst_router", "dst_group", "dst_local_router", "dst_node_port",
    "gen_time", "inject_time", "t_enq", "wait_local", "wait_global",
    "service_sum", "base_latency", "local_hops", "global_hops",
    "group_local_hops", "current_group", "plan", "inter_router",
    "inter_group",
};

/* The packet pool: row r is pk[r * N_PK .. r * N_PK + N_PK), obj[r] the
 * Packet attached to it (owned; NULL until Python needs one).  Rows
 * [0, hi) have been handed out; the released ones are chained through
 * their PK_PID column from `free`.  gen[r] counts the row's releases, so
 * a (row, gen) pair names one packet. */
typedef struct {
    int64_t *pk;
    PyObject **obj;
    uint32_t *gen;
    int32_t free, hi, cap, live;
} Pool;

/* A router's active_keys twin: see "the active-key index" below. */
typedef struct {
    int32_t *slot;       /* mask + 1 slots: a key, IX_EMPTY or IX_DUMMY */
    uint64_t *live;      /* bit i set: slot i holds a key (same block) */
    Py_ssize_t mask, fill, used;
    const setentry *table; /* the set's table when the two last agreed */
} KeyIndex;

typedef struct {
    PyObject *router;           /* owned */
    PyObject *routing;          /* owned */
    PyObject *decide;           /* owned bound method */
    PyObject *on_injection;     /* owned */
    PyObject *make_packet;      /* owned: TrafficGenerator._make_packet */
    PyObject *active_keys;      /* owned set */
    PyObject *out_peer, *upstream; /* owned lists, per port */
    KeyIndex ix;                /* its native index */
    PyObject *rid_obj;          /* owned */
    int64_t kb, pb, rid, group, boundary, max_vcs, nkeys, radix;
    int64_t transit_priority, internal, num_node_ports, pipe_lat, pos;
    int64_t arb;                /* Router._arb_time during a drain */
    int twin;                   /* TWIN_*: which decide() this router runs */
} RState;

#define ARB_NONE INT64_MIN      /* _arb_time is None */

/* ---- routing-decision twins ---------------------------------------- */

/* `routing.decide` has a C twin per mechanism family (c_min_decide,
 * c_oblivious_decide, c_piggyback_decide, c_intransit_decide).  Which
 * one a run gets is decided once, in Python, by
 * repro.routing.factory.decide_twin — exact type, `decide` and its
 * helpers neither shadowed nor patched — independently of traffic
 * lowering; everything else calls the Python method.  The constants
 * below are frozen facts of the mechanism / topology, read once when the
 * KState is built and shared by all routers. */
#define TWIN_NONE 0
#define TWIN_MIN 1
#define TWIN_OBLIVIOUS 2
#define TWIN_PIGGYBACK 3
#define TWIN_INTRANSIT 4

/* the candidate sets of a Mechanism row's source / transit
 * (misrouting.CRG / NRG / RRG) */
#define CRG 0
#define NRG 1
#define RRG 2

/* candidates sampled per decision by NRG / RRG (misrouting.SAMPLE_K),
 * routers probed by the OLM sampler (_try_local_misroute) and groups
 * probed by PiggyBack's RRG (piggyback.PB_PROBES) */
#define SAMPLE_K 4
#define OLM_PROBES 3
#define PB_PROBES 4

typedef struct {
    PyObject *routing;   /* owned: the mechanism the twin stands in for */
    int kind;            /* TWIN_* */
    int64_t a, h, groups, first_local, first_global, n_local_vcs,
        n_global_vcs;
    int64_t *gw_router, *gw_port; /* owned, `groups` entries each */
    /* every twin that draws (all but MIN) */
    int a_bits, am1_bits, h_bits, groups_bits; /* n.bit_length() */
    PyObject *global_out; /* owned: topo.global_out */
    int64_t *go_port, *go_off; /* owned, a*h: topo.global_out[pos][j] */
    int64_t *cand;       /* owned scratch, max(h, PB_PROBES) groups */
    RngMirror rng;       /* rng_routing, in-kernel during a drain */
    /* routing.mechanism: the candidate sets (CRG / NRG / RRG) at the
     * source router and, in-transit only, the PAR second point */
    int64_t source, transit;
    /* PiggyBack: its thresholds and snapshot period */
    double t_local, t_global;
    int64_t pb_period;
    /* in-transit */
    double threshold;    /* misroute_threshold */
    int64_t thr_occ;     /* the least occ with occ / cap >= threshold */
} Twin;

/* What a twin hands back besides the decision: whether it drew, and what
 * congestion state it read — the condition under which deciding again
 * would return the same without a draw, which the memo keeps. */
#define GUARD_OUT_OCC 0  /* valid while out_occ[g_idx] == g_val */
#define GUARD_CREDITS 1  /* valid while credits_used[g_idx] == g_val */
#define GUARD_EPOCH 2    /* valid for the router's congestion epoch */
#define GUARD_STABLE 3   /* read no congestion state */

typedef struct {
    int64_t port, vc, action, aux;
    int pure;            /* consumed no RNG */
    int guard;           /* GUARD_* */
    int64_t g_idx, g_val;
    PyObject *dec;       /* owned: a Python decide()'s own tuple, else NULL */
} Verdict;

/* ---- lowered OP_GEN / OP_DELIVER fast path ------------------------- */

/* Slot layout of StatsCollector's si / sf blocks: the SI_* / SF_* /
 * NSTAT_* constants of repro/metrics/collector.py (check_layout). */
#define SI_TOTAL_GENERATED 0
#define SI_TOTAL_INJECTED 1
#define SI_TOTAL_DELIVERED 2
#define SI_GEN_PHITS 3
#define SI_GEN_PACKETS 4
#define SI_DEL_PHITS 5
#define SI_DEL_PACKETS 6
#define NSTAT_I 7

#define SF_LAT_MEAN 0
#define SF_LAT_M2 1
#define SF_LAT_MIN 2
#define SF_LAT_MAX 3
#define SF_BD_INJ 4
#define SF_BD_LOCAL 5
#define SF_BD_GLOBAL 6
#define SF_BD_BASE 7
#define SF_BD_MIS 8
#define NSTAT_F 9

/* A lowered cell's generator and sink: the TrafficGenerator (eq._lower),
 * what its _gen_event and its collector read, as struct fields and buffer
 * views, and the pattern's descriptor (TrafficGenerator._lower, the tuple
 * TrafficPattern.lower returned) unpacked.  The traffic RNG and the
 * packet-id counter run in-kernel between kstate_rng_in / _out. */
typedef struct {
    PyObject *gen;         /* owned; NULL: the cell is not lowered */
    RngMirror rng;         /* rng_traffic, in-kernel during a drain */
    PyObject *desc;        /* owned: the descriptor */
    int64_t *ms_table;     /* R*R contention-free service costs */
    int64_t *si;           /* the NSTAT_I block */
    double *sf;            /* the NSTAT_F block */
    int64_t *inj_router, *del_router; /* router_id-indexed */
    int64_t pid;           /* mirrored from gen._pid per drain */
    int64_t p, a, psize, end_time, ws, we, num_nodes;
    double log_q;          /* NAN: p == 1, every gap is 1 */
    /* descriptor (see TrafficPattern.lower) */
    int kind;              /* 0 uniform, 1 adversarial, 2 advc, 3 perm */
    long long n1, offset, per_group, groups;
    int n1_bits, pg_bits, off_bits;
    Py_ssize_t n_off;
    int64_t *offsets;      /* owned, advc (n_off entries) */
    int64_t *perm;         /* owned, permutation (num_nodes entries) */
} LState;

/* ---- the native event path ------------------------------------------ */

/* Activation opcodes and record layouts: see repro/engine/events.py. */
enum { OP_CALL, OP_STEP, OP_ARRIVE, OP_OUT_ARRIVE, OP_SEND, OP_LINK,
       OP_RELEASE, OP_CREDIT, OP_DELIVER, OP_GEN };

/* One activation record.  `rid` indexes ks->routers (REC_NONE on OP_GEN /
 * OP_DELIVER); REC_TUPLE marks a record kept whole as its Python tuple —
 * every callback (op OP_CALL), and a typed record the fields cannot hold
 * (a target that is not a registered router, a non-int or out-of-range
 * field), which keeps its op and raises when dispatched. */
#define REC_NONE (-1)
#define REC_TUPLE (-2)

typedef struct {
    int32_t op, rid;
    int32_t a, b;        /* port | node; vc | size */
    union {
        PyObject *obj;   /* owned: the whole tuple (REC_TUPLE) */
        int64_t c;       /* OP_CREDIT: size; a packet's record: its row */
    } u;
} Rec;

#define REC(op, rid, a, b, val)                                         \
    ((Rec){(op), (int32_t)(rid), (int32_t)(a), (int32_t)(b),           \
           {.c = (int64_t)(val)}})

/* The calendar of events.py in native form: FIFO buckets per cycle, a
 * min-heap of the distinct pending cycles, a cycle -> bucket table.  A
 * drained bucket goes back to the pool with its storage, up to
 * BUCKET_KEEP records of it: a cycle opens sparse and fills as it nears,
 * so keeping every pooled bucket at the densest cycle's size would
 * multiply the calendar's footprint by the number of pending cycles
 * (+90 MB on an h=6 cell). */
#define BUCKET_KEEP 1024
typedef struct {
    Rec *recs;
    Py_ssize_t len, cap;
    int64_t t;           /* its cycle; the next free pool index once recycled */
} Bucket;

#define T_EMPTY INT64_MIN

typedef struct {
    int64_t *heap;
    Py_ssize_t hn, hcap;
    int64_t *tk;         /* open addressing, linear probing: cycle ... */
    int32_t *tv;         /* ... -> pool index */
    Py_ssize_t tmask, tused;
    Bucket *pool;
    Py_ssize_t npool, pcap;
    int32_t free;        /* head of the recycled chain, -1 when empty */
    int32_t cur;         /* the bucket being drained */
    int64_t keep_t;      /* a mirror in keeps the first `keep` records of */
    Py_ssize_t keep;     /* the cycle-keep_t bucket whole (the run ones) */
    int64_t npend;       /* records held */
} Calendar;

/* One output FIFO: a ring of (row, vc, t_arr), allocated on first use. */
typedef struct {
    int32_t row, vc;
    int64_t t_arr;
} FifoEnt;

typedef struct {
    FifoEnt *e;
    Py_ssize_t head, len, cap; /* cap is 0 or a power of two */
} Ring;

/* One decision-memo entry, the kernel's own (Python never sees it): the
 * head row it was decided for (-1 = none) and that row's generation, and
 * a twin's verdict (never a Python tuple: v.dec is NULL), whose guard is
 * the validity condition — GUARD_EPOCH with the epoch in g_val.  The memo
 * of a key is always its head's: c_commit clears it as it pops the head,
 * so a row is never released under it, and store_inq as it empties the
 * ring at mirror out. */
typedef struct {
    int32_t row;
    uint32_t gen;
    Verdict v;
} Memo;

/* One input FIFO (soa.in_q[gk]) with its key's memo, the fields the
 * allocation scan reads first: a memo hit touches this record only. */
typedef struct {
    int32_t head;        /* the ring's first row; -1: the FIFO is empty */
    int64_t size;        /* the head's size */
    Memo memo;
    Ring ring;           /* (row, 0, size) entries */
} InQ;

/* One node's injection tail (soa.inj_tail[n], an array('I')): the
 * (gen_time, dst) pairs of the packets generated behind the head of its
 * injection FIFO, pairs [head, len) of `e` (2 * cap uint32s, allocated on
 * first use). */
typedef struct {
    uint32_t *e;
    Py_ssize_t head, len, cap; /* in pairs */
} Tail;

/* Always-on kernel counters (int64 slots of eq._ckcounters, so they
 * outlive the KState); ck_counters names them. */
enum { C_DRAINS, C_CALL, C_GEN, C_SINK, C_DECIDE, C_INJECTION, C_INBOX,
       C_MIRRORS, C_PEAK_PENDING, C_PEAK_BUCKET, C_STEPS, C_SCAN_KEYS,
       C_INDEX_RELOADS, C_INQ_ABSORBED, C_MATERIALIZED, C_PEAK_ROWS,
       C_MEMO_HITS, C_PEAK_TAIL, C_PROMOTE, N_CTR };

static const char *const CTR_NAMES[N_CTR] = {
    "drains", "reentries_call", "reentries_gen", "reentries_sink",
    "reentries_decide", "reentries_injection", "inbox_records",
    "full_mirrors", "peak_pending_records", "peak_bucket_len", "steps",
    "scan_keys", "index_reloads", "inq_absorbed", "packets_materialized",
    "peak_packet_rows", "memo_hits", "peak_tail_records",
    "reentries_promote",
};

/* buffer rows of the tables below: 21 store, 1 queue, 5 simulation */
#define N_VIEWS 27

typedef struct {
    PyObject *eq;        /* borrowed: the queue being drained */
    /* EventQueue slot offsets */
    Py_ssize_t eq_now, eq_processed, eq_activations, eq_sink, eq_gen;
    /* eq.now / _processed / _activations, and the values last written to
     * the slots (they are written when Python can run, not per bucket) */
    int64_t now, processed, activations, w_now, w_processed, w_activations;
    PyObject *t_obj;     /* owned: cycle t_obj_t boxed, see now_obj() */
    int64_t t_obj_t;
    /* every buffer view read_attrs took (held for the KState lifetime) */
    Py_buffer views[N_VIEWS];
    int nviews;
    /* store geometry */
    int64_t num_routers, radix, node_ports, max_vcs, nkeys, groups,
        global_ports;
    /* per-key */
    int64_t *in_occ, *in_cap, *key_port, *credits_used;
    /* per-port */
    int64_t *in_port_free, *out_occ, *out_cap, *switch_free, *link_free,
        *out_pumping, *credit_nvc, *credit_cap, *last_grant, *local_in,
        *global_out, *link_lat, *hop_cost;
    /* per router (owned): bumped whenever its out_occ / credits_used
     * change, the validity of GUARD_EPOCH memos */
    int64_t *epoch;
    /* per node: the read offsets of soa.inj_tail */
    int64_t *inj_tail_head;
    /* PiggyBack snapshot rows: R*h, R, groups (see soa.py) */
    int64_t *pb_snap, *pb_snap_sum, *pb_snap_time;
    int64_t *ctr;        /* N_CTR kernel counters */
    /* object-valued store fields (owned lists); empty / None while their
     * native form below is live */
    PyObject *in_q, *out_fifo, *inj_tail;
    PyObject *router_list; /* owned: soa.routers */
    /* the queue's dict and list (owned): the inbox during a drain */
    PyObject *buckets, *times;
    Calendar cal;
    Ring *rings;         /* per port */
    InQ *inq;            /* per key */
    Tail *tails;         /* per node */
    int64_t tail_pairs;  /* held by all of them */
    /* wiring, per port: Router.out_peer / Router.upstream as (router
     * index, port), -1 where None (node ports) */
    int32_t *peer_rid, *peer_port, *up_rid, *up_port;
    Pool pool;           /* the packets */
    PyTypeObject *packet_type; /* owned */
    Py_ssize_t pk_off[N_PK]; /* its __slots__ member offsets, per column */
    Py_ssize_t r_arb_time;
    RState *routers;
    PyTypeObject *router_type; /* borrowed: the routers' common type */
    Py_ssize_t r_router_id;
    PyObject **key_objs;  /* nkeys ints 0..nkeys-1 (set members) */
    PyObject *flow_err, *routing_err;
    /* step scratch (step never nests: decide cannot re-enter the drain) */
    int32_t *scr_keys;    /* nkeys: active-key snapshot */
    int64_t *scr_dead;    /* nkeys */
    int64_t *c_key;       /* nkeys candidate keys */
    Verdict *c_v;         /* nkeys, each owning its dec */
    int64_t *c_next;      /* nkeys: per-output chain links */
    int64_t *port_first, *port_last; /* radix */
    int64_t *order_ports; /* radix: first-seen output order */
    uint8_t *td_mask;     /* radix: transit-demand membership */
    int64_t *f_idx;       /* nkeys: filtered candidate scratch */
    LState low;          /* lowered OP_GEN / OP_DELIVER (low.gen != NULL) */
    Twin twin;
} KState;

static void
rstate_clear(RState *rs)
{
    Py_XDECREF(rs->router);
    Py_XDECREF(rs->routing);
    Py_XDECREF(rs->decide);
    Py_XDECREF(rs->on_injection);
    Py_XDECREF(rs->make_packet);
    Py_XDECREF(rs->active_keys);
    Py_XDECREF(rs->out_peer);
    Py_XDECREF(rs->upstream);
    PyMem_Free(rs->ix.slot);
    Py_XDECREF(rs->rid_obj);
}

static void
twin_clear(Twin *tw)
{
    Py_CLEAR(tw->routing);
    PyMem_Free(tw->gw_router);
    PyMem_Free(tw->gw_port);
    Py_CLEAR(tw->global_out);
    PyMem_Free(tw->go_port);
    PyMem_Free(tw->go_off);
    PyMem_Free(tw->cand);
    rng_clear(&tw->rng);
}

static void
lstate_clear(LState *ls)
{
    Py_CLEAR(ls->gen);
    rng_clear(&ls->rng);
    Py_CLEAR(ls->desc);
    PyMem_Free(ls->offsets);
    PyMem_Free(ls->perm);
}

/* Free the native structures, dropping what they still own (nothing,
 * after a mirror out). */
static void
native_free(KState *ks)
{
    Calendar *c = &ks->cal;
    Pool *p = &ks->pool;
    Py_ssize_t i, k;
    for (i = 0; i < c->npool; i++) {
        Bucket *b = &c->pool[i];
        for (k = 0; k < b->len; k++)
            if (b->recs[k].rid == REC_TUPLE)
                Py_DECREF(b->recs[k].u.obj);
        PyMem_Free(b->recs);
    }
    PyMem_Free(c->pool);
    PyMem_Free(c->heap);
    PyMem_Free(c->tk);
    PyMem_Free(c->tv);
    for (i = 0; ks->rings != NULL && i < ks->num_routers * ks->radix; i++)
        PyMem_Free(ks->rings[i].e);
    PyMem_Free(ks->rings);
    for (i = 0; ks->inq != NULL && i < ks->num_routers * ks->nkeys; i++)
        PyMem_Free(ks->inq[i].ring.e);
    PyMem_Free(ks->inq);
    for (i = 0; ks->tails != NULL && i < ks->num_routers * ks->node_ports;
         i++)
        PyMem_Free(ks->tails[i].e);
    PyMem_Free(ks->tails);
    for (i = 0; i < p->hi; i++)
        Py_XDECREF(p->obj[i]);
    PyMem_Free(p->pk);
    PyMem_Free(p->obj);
    PyMem_Free(p->gen);
}

static void
kstate_free(KState *ks)
{
    Py_ssize_t i;
    if (ks == NULL)
        return;
    native_free(ks);
    if (ks->routers != NULL) {
        for (i = 0; i < ks->num_routers; i++)
            rstate_clear(&ks->routers[i]);
        PyMem_Free(ks->routers);
    }
    if (ks->key_objs != NULL) {
        for (i = 0; i < ks->nkeys; i++)
            Py_XDECREF(ks->key_objs[i]);
        PyMem_Free(ks->key_objs);
    }
    Py_XDECREF(ks->t_obj);
    Py_XDECREF(ks->packet_type);
    Py_XDECREF(ks->in_q);
    Py_XDECREF(ks->out_fifo);
    Py_XDECREF(ks->inj_tail);
    Py_XDECREF(ks->router_list);
    Py_XDECREF(ks->buckets);
    Py_XDECREF(ks->times);
    Py_XDECREF(ks->flow_err);
    Py_XDECREF(ks->routing_err);
    PyMem_Free(ks->peer_rid);
    PyMem_Free(ks->peer_port);
    PyMem_Free(ks->up_rid);
    PyMem_Free(ks->up_port);
    PyMem_Free(ks->epoch);
    PyMem_Free(ks->scr_keys);
    PyMem_Free(ks->scr_dead);
    PyMem_Free(ks->c_key);
    PyMem_Free(ks->c_v);
    PyMem_Free(ks->c_next);
    PyMem_Free(ks->port_first);
    PyMem_Free(ks->port_last);
    PyMem_Free(ks->order_ports);
    PyMem_Free(ks->td_mask);
    PyMem_Free(ks->f_idx);
    lstate_clear(&ks->low);
    twin_clear(&ks->twin);
    for (i = 0; i < ks->nviews; i++)
        PyBuffer_Release(&ks->views[i]);
    PyMem_Free(ks);
}

static void
kstate_capsule_free(PyObject *capsule)
{
    kstate_free((KState *)PyCapsule_GetPointer(capsule, "repro._ckernel"));
}

/* ------------------------------------------------------------------ */
/* reading Python objects: one checked table per object kind           */
/* ------------------------------------------------------------------ */

/* Everything the kernel takes from a Python object is a row of that
 * object kind's table — {attribute (or dotted path), destination field,
 * kind, expected length} — read by read_attrs, whose errors name the
 * object kind and the attribute.  Buffers are mapped for the KState's
 * lifetime (their views in ks->views), objects are owned references and
 * int tables owned copies, all released by the destination's clear. */
enum {
    A_I64,     /* an int -> int64_t */
    A_BOOL,    /* its truth value -> int64_t */
    A_F64,     /* a float -> double */
    A_F64_OPT, /* a float or None (NAN) -> double */
    A_OBJ,     /* any object -> PyObject * */
    A_OBJ_OPT, /* any object, None -> NULL */
    A_LIST,    /* a list (of `len` items) -> PyObject * */
    A_DICT,    /* a dict -> PyObject * */
    A_SET,     /* a set -> PyObject * */
    A_BUF_Q,   /* an array('q') of `len` items -> int64_t * */
    A_BUF_D,   /* an array('d') of `len` items -> double * */
    A_INTS,    /* a sequence of `len` ints -> an int64_t * copy */
};

static const char *const A_TEXT[] = {
    "an int", "a truth value", "a float", "a float or None", "an object",
    "an object or None", "a list", "a dict", "a set",
    "an int64 ('q') buffer", "a float64 ('d') buffer", "a sequence of ints",
};

/* Expected lengths in the store's geometry; L_ANY is unchecked. */
enum { L_ANY, L_KEYS, L_PORTS, L_NODES, L_ROUTERS, L_RR, L_RH, L_GROUPS,
       L_RADIX, L_NSTAT_I, L_NSTAT_F, L_CTR };

typedef struct {
    const char *name;
    size_t off;          /* of the destination field */
    int8_t kind, len;    /* A_*, L_* */
    int8_t only;         /* 0, or the twins (1 << TWIN_*) that read it */
} Attr;

static Py_ssize_t
attr_len(const KState *ks, int len)
{
    const int64_t R = ks->num_routers, n[] = {
        -1, R * ks->nkeys, R * ks->radix, R * ks->node_ports, R, R * R,
        R * ks->global_ports, ks->groups, ks->radix, NSTAT_I, NSTAT_F, N_CTR};
    return (Py_ssize_t)n[len];
}

/* A fresh int64 copy of the ints of sequence `seq`: of exactly *n of
 * them, or (*n < 0) of however many it has, stored in *n. */
static int64_t *
ints_of(PyObject *seq, Py_ssize_t *n)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    int64_t *out = NULL;
    Py_ssize_t i;
    if (fast == NULL)
        return NULL;
    if (*n >= 0 && PySequence_Fast_GET_SIZE(fast) != *n)
        PyErr_Format(PyExc_ValueError, "got %zd items",
                     PySequence_Fast_GET_SIZE(fast));
    else if ((out = PyMem_Malloc(
                  (size_t)(PySequence_Fast_GET_SIZE(fast) + 1)
                  * sizeof(int64_t))) == NULL)
        PyErr_NoMemory();
    else {
        *n = PySequence_Fast_GET_SIZE(fast);
        for (i = 0; i < *n; i++)
            if ((out[i] = as_ll(PySequence_Fast_GET_ITEM(fast, i))) == -1
                && PyErr_Occurred()) {
                PyMem_Free(out);
                out = NULL;
                break;
            }
    }
    Py_DECREF(fast);
    return out;
}

/* Read the rows of `tab` from `obj`, an object of kind `what`, into
 * `dst`; a row marked `only` is read when `twin` (a TWIN_*, -1 for none)
 * is one it names. */
static int
read_attrs(KState *ks, const char *what, PyObject *obj, void *dst,
           const Attr *tab, size_t rows, int twin)
{
    size_t i;
    for (i = 0; i < rows; i++) {
        const Attr *a = &tab[i];
        char *field = (char *)dst + a->off;
        Py_ssize_t n = attr_len(ks, a->len);
        PyObject *v, *et, *ev, *tb;
        const char *p, *dot;
        int ok = 0;
        if (a->only && (twin < 0 || !(a->only & (1 << twin))))
            continue;
        /* follow the dotted path */
        for (p = a->name, v = Py_NewRef(obj); v != NULL && p != NULL;
             p = dot ? dot + 1 : NULL) {
            PyObject *key;
            dot = strchr(p, '.');
            key = PyUnicode_FromStringAndSize(
                p, dot ? dot - p : (Py_ssize_t)strlen(p));
            Py_SETREF(v, key ? PyObject_GetAttr(v, key) : NULL);
            Py_XDECREF(key);
        }
        if (v == NULL)
            ;
        else if (a->kind == A_I64)
            ok = (*(int64_t *)field = PyLong_AsLongLong(v)) != -1
                 || !PyErr_Occurred();
        else if (a->kind == A_BOOL)
            ok = (*(int64_t *)field = PyObject_IsTrue(v)) >= 0;
        else if (a->kind == A_F64_OPT && v == Py_None)
            ok = (*(double *)field = NAN, 1);
        else if (a->kind == A_F64 || a->kind == A_F64_OPT)
            ok = (*(double *)field = PyFloat_AsDouble(v)) != -1.0
                 || !PyErr_Occurred();
        else if (a->kind == A_INTS)
            ok = (*(int64_t **)field = ints_of(v, &n)) != NULL;
        else if (a->kind == A_BUF_Q || a->kind == A_BUF_D) {
            Py_buffer *view = &ks->views[ks->nviews];
            if (ks->nviews == N_VIEWS)
                PyErr_SetString(PyExc_SystemError, "N_VIEWS is too small");
            else if (PyObject_GetBuffer(v, view, PyBUF_CONTIG | PyBUF_FORMAT)
                     == 0) {
                if (strcmp(view->format, a->kind == A_BUF_Q ? "q" : "d") != 0
                    || view->len != n * 8) {
                    PyErr_Format(PyExc_TypeError, "got a '%s' buffer of %zd "
                                 "bytes", view->format, view->len);
                    PyBuffer_Release(view);
                }
                else {
                    *(void **)field = view->buf;
                    ks->nviews += 1;
                    ok = 1;
                }
            }
        }
        else if ((a->kind == A_LIST && !PyList_CheckExact(v))
                 || (a->kind == A_DICT && !PyDict_CheckExact(v))
                 || (a->kind == A_SET && !PySet_CheckExact(v)))
            PyErr_Format(PyExc_TypeError, "got %.80s", Py_TYPE(v)->tp_name);
        else if (a->kind == A_LIST && n >= 0 && PyList_GET_SIZE(v) != n)
            PyErr_Format(PyExc_TypeError, "got %zd items",
                         PyList_GET_SIZE(v));
        else {
            ok = 1;
            if (a->kind != A_OBJ_OPT || v != Py_None)
                *(PyObject **)field = Py_NewRef(v);
        }
        Py_XDECREF(v);
        if (ok)
            continue;
        /* restate what went wrong as what the row expected */
        PyErr_Fetch(&et, &ev, &tb);
        PyErr_NormalizeException(&et, &ev, &tb);
        if (n >= 0)
            PyErr_Format(PyExc_TypeError, "%s.%s: expected %s of %zd items "
                         "(%S)", what, a->name, A_TEXT[a->kind], n,
                         ev ? ev : Py_None);
        else
            PyErr_Format(PyExc_TypeError, "%s.%s: expected %s (%S)", what,
                         a->name, A_TEXT[a->kind], ev ? ev : Py_None);
        Py_XDECREF(et);
        Py_XDECREF(ev);
        Py_XDECREF(tb);
        return -1;
    }
    return 0;
}

#define READ_ATTRS(ks, what, obj, dst, tab, twin)                       \
    read_attrs((ks), (what), (obj), (dst), (tab),                       \
               sizeof(tab) / sizeof((tab)[0]), (twin))

/* ------------------------------------------------------------------ */
/* LState: the lowered generator / sink                                */
/* ------------------------------------------------------------------ */

/* TrafficGenerator.<...>: what _gen_event, make_packet, next_gap and the
 * collector's hooks read.  Row 0 is read again at every drain entry
 * (kstate_rng_in). */
static const Attr SIM_ATTRS[] = {
    {"_pid", offsetof(LState, pid), A_I64},
    {"rng_traffic", offsetof(LState, rng.rng), A_OBJ},
    {"_lower", offsetof(LState, desc), A_OBJ},
    {"_psize", offsetof(LState, psize), A_I64},
    {"_end_time", offsetof(LState, end_time), A_I64},
    {"_log_q", offsetof(LState, log_q), A_F64_OPT},
    {"_ms_table", offsetof(LState, ms_table), A_BUF_Q, L_RR},
    {"topo.p", offsetof(LState, p), A_I64},
    {"topo.a", offsetof(LState, a), A_I64},
    {"topo.num_nodes", offsetof(LState, num_nodes), A_I64},
    {"stats.window_start", offsetof(LState, ws), A_I64},
    {"stats.window_end", offsetof(LState, we), A_I64},
    {"stats.si", offsetof(LState, si), A_BUF_Q, L_NSTAT_I},
    {"stats.sf", offsetof(LState, sf), A_BUF_D, L_NSTAT_F},
    {"stats.injected_per_router", offsetof(LState, inj_router), A_BUF_Q,
     L_ROUTERS},
    {"stats.delivered_per_router", offsetof(LState, del_router), A_BUF_Q,
     L_ROUTERS},
};

/* The descriptor (see TrafficPattern.lower): the recipe's name, then its
 * fields, which must keep every draw in range and every destination a
 * node. */
static int
lstate_descriptor(LState *ls)
{
    static const char *const RECIPES[] = {"uniform", "adversarial", "advc",
                                          "permutation"};
    PyObject *desc = ls->desc, *name = NULL, *table = NULL;
    Py_ssize_t n_perm = (Py_ssize_t)ls->num_nodes, i;
    int ok = 0;
    if (PyTuple_Check(desc) && PyTuple_GET_SIZE(desc) > 0)
        name = PyTuple_GET_ITEM(desc, 0);
    for (ls->kind = 0; ls->kind < 4 && name != NULL; ls->kind++)
        if (PyUnicode_Check(name)
            && PyUnicode_CompareWithASCIIString(name, RECIPES[ls->kind]) == 0)
            break;
    switch (name != NULL ? ls->kind : 4) {
    case 0:
        ok = PyArg_ParseTuple(desc, "OLi", &name, &ls->n1, &ls->n1_bits)
             && ls->n1 >= 1 && ls->n1 < ls->num_nodes && ls->n1_bits >= 1
             && ls->n1_bits <= 32;
        break;
    case 1:
        ok = PyArg_ParseTuple(desc, "OLLiL", &name, &ls->offset,
                              &ls->per_group, &ls->pg_bits, &ls->groups);
        break;
    case 2:
        ok = PyArg_ParseTuple(desc, "OOniLiL", &name, &table, &ls->n_off,
                              &ls->off_bits, &ls->per_group, &ls->pg_bits,
                              &ls->groups)
             && ls->n_off >= 1 && ls->off_bits >= 1 && ls->off_bits <= 32
             && (ls->offsets = ints_of(table, &ls->n_off)) != NULL;
        break;
    case 3:
        ok = PyArg_ParseTuple(desc, "OO", &name, &table)
             && (ls->perm = ints_of(table, &n_perm)) != NULL;
        for (i = 0; ok && i < n_perm; i++)
            ok = ls->perm[i] >= 0 && ls->perm[i] < ls->num_nodes;
        break;
    }
    /* the draws shift by (32 - bits) and divide by per_group / groups */
    if (ok && (ls->kind == 1 || ls->kind == 2)
        && (ls->per_group < 1 || ls->groups < 1 || ls->pg_bits < 1
            || ls->pg_bits > 32 || ls->per_group > ls->num_nodes / ls->groups))
        ok = 0;
    if (ok)
        return 0;
    PyErr_Clear();
    PyErr_Format(PyExc_ValueError, "TrafficGenerator._lower: malformed "
                 "pattern lowering descriptor %R", desc);
    return -1;
}

static int
lstate_build(KState *ks)
{
    LState *ls = &ks->low;
    if (READ_ATTRS(ks, "TrafficGenerator", ls->gen, ls, SIM_ATTRS, -1) < 0)
        return -1;
    if (ls->p != ks->node_ports || ls->a < 1
        || ls->num_nodes != ks->num_routers * ls->p) {
        PyErr_SetString(PyExc_ValueError,
                        "TrafficGenerator.topo disagrees with the SoA "
                        "store");
        return -1;
    }
    if (ls->end_time > (int64_t)UINT32_MAX + 1) {
        /* c_gen queues its cycles as the tail's uint32s */
        PyErr_SetString(PyExc_ValueError, "TrafficGenerator._end_time: a "
                        "lowered cell generates at cycles below 2**32 only");
        return -1;
    }
    return lstate_descriptor(ls);
}

/* Take every RNG stream this run consumes in C — and, on a lowered cell,
 * the packet-id counter — into the kernel (drain entry, and after a
 * fallback into Python code that may draw) ... */
static int
kstate_rng_in(KState *ks)
{
    LState *ls = &ks->low;
    if (ls->gen != NULL
        && (rng_load(&ls->rng) < 0
            || read_attrs(ks, "TrafficGenerator", ls->gen, ls, SIM_ATTRS, 1,
                          -1) < 0))
        return -1;
    if (ks->twin.rng.rng != NULL && rng_load(&ks->twin.rng) < 0)
        return -1;
    return 0;
}

/* ... and hand them back (drain exit, error exit, before a fallback). */
static int
kstate_rng_out(KState *ks)
{
    LState *ls = &ks->low;
    int rc = 0;
    if (ls->gen != NULL) {
        PyObject *pid = PyLong_FromLongLong((long long)ls->pid);
        if (rng_store(&ls->rng) < 0 || pid == NULL
            || PyObject_SetAttrString(ls->gen, "_pid", pid) < 0)
            rc = -1;
        Py_XDECREF(pid);
    }
    if (ks->twin.rng.rng != NULL && rng_store(&ks->twin.rng) < 0)
        rc = -1;
    return rc;
}

/* The RState of router object `o`, NULL when it is not one of the
 * store's routers: they all have the type whose router_id slot was
 * resolved, and ks->routers is indexed by router_id. */
static inline RState *
router_state(const KState *ks, PyObject *o)
{
    PyObject *rid;
    int64_t i;
    if (Py_TYPE(o) != ks->router_type
        || (rid = slot_get(o, ks->r_router_id)) == NULL
        || !PyLong_CheckExact(rid))
        return NULL;
    i = as_ll(rid);
    if (i < 0 || i >= ks->num_routers || ks->routers[i].router != o) {
        PyErr_Clear(); /* an id beyond int64 */
        return NULL;
    }
    return &ks->routers[i];
}

/* ------------------------------------------------------------------ */
/* packet rows                                                         */
/* ------------------------------------------------------------------ */

/* Inside a drain a packet is a row of ks->pool: promote fills one when
 * the packet reaches the head of its injection FIFO (until then it is a
 * (gen_time, dst) pair of its node's Tail, 8 bytes, so a saturated
 * node's backlog holds no rows), the handlers read and write its
 * columns, and delivery releases it.  The
 * Packet object of a row is built the first time Python must see the
 * packet (row_obj) and stays attached to the row, so that every later
 * crossing hands Python the same object; a Packet Python made is taken
 * into a fresh row with the object attached (row_absorb).  The row is
 * the truth while the drain runs: row_obj writes it into the object,
 * row_load reads the object back after Python had it.  Every mirror out
 * hands the objects to Python and empties the pool (pool_reset), and
 * mirror in takes them back, so a row never outlives the drain. */

#define PK(ks, row) ((ks)->pool.pk + (size_t)(row) * N_PK)

/* Double the pool (or first allocate it, `rows` rows). */
static int
pool_grow(Pool *p, int32_t rows)
{
    int64_t cap = p->cap ? 2 * (int64_t)p->cap : (rows > 8 ? rows : 8), i;
    /* a block that grew is kept even if a later one fails; rows are
     * int32 indices */
    int64_t *pk = cap > INT32_MAX ? NULL : PyMem_Realloc(
        p->pk, (size_t)cap * N_PK * sizeof(int64_t));
    PyObject **obj = pk ? PyMem_Realloc(p->obj, (size_t)cap
                                        * sizeof(PyObject *)) : NULL;
    uint32_t *gen = obj ? PyMem_Realloc(p->gen, (size_t)cap
                                        * sizeof(uint32_t)) : NULL;
    p->pk = pk ? pk : p->pk;
    p->obj = obj ? obj : p->obj;
    if (gen == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    p->gen = gen;
    for (i = p->cap; i < cap; i++) {
        p->obj[i] = NULL;
        p->gen[i] = 0;
    }
    p->cap = (int32_t)cap;
    return 0;
}

/* A free row (its columns unset), -1 on error. */
static inline int32_t
row_alloc(KState *ks)
{
    Pool *p = &ks->pool;
    int32_t row = p->free;
    if (row >= 0)
        p->free = (int32_t)PK(ks, row)[PK_PID];
    else {
        if (p->hi == p->cap && pool_grow(p, p->hi) < 0)
            return -1;
        row = p->hi++;
    }
    if (++p->live > ks->ctr[C_PEAK_ROWS])
        ks->ctr[C_PEAK_ROWS] = p->live;
    return row;
}

/* Row -> the fields of Packet `o`: each slot that does not hold the
 * column's value as a one-digit int (as_ll's fast case) is rewritten. */
static int
row_store(KState *ks, int32_t row, PyObject *o)
{
    const int64_t *pk = PK(ks, row);
    int f;
    for (f = 0; f < N_PK; f++) {
        PyObject **slot = (PyObject **)((char *)o + ks->pk_off[f]), *v = *slot;
        if (v != NULL && PyLong_CheckExact(v) && Py_SIZE(v) >= -1
            && Py_SIZE(v) <= 1 && as_ll(v) == pk[f])
            continue;
        if ((v = PyLong_FromLongLong((long long)pk[f])) == NULL)
            return -1;
        Py_XSETREF(*slot, v);
    }
    return 0;
}

/* The fields of Packet `o` -> row: each must be an int in int64 range. */
static int
row_load(KState *ks, int32_t row, PyObject *o)
{
    int64_t *pk = PK(ks, row);
    int f;
    for (f = 0; f < N_PK; f++) {
        PyObject *v = *(PyObject **)((char *)o + ks->pk_off[f]);
        if (v == NULL || !PyLong_Check(v)
            || ((pk[f] = as_ll(v)) == -1 && PyErr_Occurred()))
            break;
    }
    if (f == N_PK)
        return 0;
    PyErr_Clear();
    PyErr_Format(PyExc_TypeError, "Packet.%s must be an int64 inside the "
                 "compiled drain", PK_NAMES[f]);
    return -1;
}

/* Release `row`, writing it into its Packet first (which Python may
 * hold). */
static int
row_release(KState *ks, int32_t row)
{
    Pool *p = &ks->pool;
    PyObject *o = p->obj[row];
    int rc = 0;
    if (o != NULL) {
        rc = row_store(ks, row, o);
        p->obj[row] = NULL;
        Py_DECREF(o);
    }
    p->gen[row] += 1;
    PK(ks, row)[PK_PID] = p->free;
    p->free = row;
    p->live -= 1;
    return rc;
}

/* The Packet of `row` (borrowed: the row owns it), built and attached the
 * first time, with the row's fields written into it. */
static PyObject *
row_obj(KState *ks, int32_t row)
{
    PyTypeObject *tp = ks->packet_type;
    PyObject *o = ks->pool.obj[row];
    if (o != NULL)
        return row_store(ks, row, o) < 0 ? NULL : o;
    if ((o = tp->tp_alloc(tp, 0)) == NULL)
        return NULL;
    if (row_store(ks, row, o) < 0) {
        Py_DECREF(o);
        return NULL;
    }
    /* Every slot holds an int, so it can close no reference cycle:
     * untracked, it costs the young generation no traversal. */
    PyObject_GC_UnTrack(o);
    ks->pool.obj[row] = o;
    ks->ctr[C_MATERIALIZED] += 1;
    return o;
}

/* A fresh row holding Packet `o`, attached; -1 with an error set when
 * `o` is not a Packet with int64 fields. */
static int32_t
row_absorb(KState *ks, PyObject *o)
{
    int32_t row;
    if (!PyObject_TypeCheck(o, ks->packet_type)) {
        PyErr_SetString(PyExc_TypeError, "not a Packet");
        return -1;
    }
    if ((row = row_alloc(ks)) < 0)
        return -1;
    if (row_load(ks, row, o) < 0) {
        row_release(ks, row);
        return -1;
    }
    ks->pool.obj[row] = Py_NewRef(o);
    return row;
}

/* Empty the pool (the end of a mirror out: Python holds every packet).
 * A row an error path dropped is reclaimed here too. */
static void
pool_reset(KState *ks)
{
    Pool *p = &ks->pool;
    int32_t row;
    for (row = 0; row < p->hi; row++) {
        Py_CLEAR(p->obj[row]);
        p->gen[row] += 1;
    }
    p->hi = p->live = 0;
    p->free = -1;
}

/* ------------------------------------------------------------------ */
/* the calendar                                                        */
/* ------------------------------------------------------------------ */

/* Double (or first allocate) the array *bufp of `size`-byte items. */
static int
grow(void *bufp, Py_ssize_t *cap, size_t size)
{
    Py_ssize_t ncap = *cap ? 2 * *cap : 8;
    void *p = PyMem_Realloc(*(void **)bufp, (size_t)ncap * size);
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *(void **)bufp = p;
    *cap = ncap;
    return 0;
}

/* Cycles on the heap are distinct (one per pending bucket), so any valid
 * binary heap pops them in the order heapq does. */
static int
heap_push(Calendar *c, int64_t t)
{
    Py_ssize_t pos;
    if (c->hn == c->hcap && grow(&c->heap, &c->hcap, sizeof(int64_t)) < 0)
        return -1;
    for (pos = c->hn++; pos > 0 && t < c->heap[(pos - 1) >> 1];
         pos = (pos - 1) >> 1)
        c->heap[pos] = c->heap[(pos - 1) >> 1];
    c->heap[pos] = t;
    return 0;
}

static int64_t
heap_pop(Calendar *c)
{
    int64_t top = c->heap[0], v = c->heap[--c->hn];
    Py_ssize_t pos = 0, child;
    while ((child = 2 * pos + 1) < c->hn) {
        if (child + 1 < c->hn && c->heap[child + 1] < c->heap[child])
            child += 1;
        if (c->heap[child] >= v)
            break;
        c->heap[pos] = c->heap[child];
        pos = child;
    }
    c->heap[pos] = v;
    return top;
}

/* Pool index of the cycle-`t` bucket, -1 when there is none.  Pending
 * cycles are nearly consecutive, so the low bits hash them apart. */
static inline int32_t
cal_find(const Calendar *c, int64_t t)
{
    Py_ssize_t i = (Py_ssize_t)t & c->tmask;
    while (c->tk[i] != T_EMPTY) {
        if (c->tk[i] == t)
            return c->tv[i];
        i = (i + 1) & c->tmask;
    }
    return -1;
}

static void
cal_map(Calendar *c, int64_t t, int32_t bi)
{
    Py_ssize_t i = (Py_ssize_t)t & c->tmask;
    while (c->tk[i] != T_EMPTY)
        i = (i + 1) & c->tmask;
    c->tk[i] = t;
    c->tv[i] = bi;
    c->tused += 1;
}

/* Double the table (256 slots on the first call). */
static int
cal_rehash(Calendar *c)
{
    Py_ssize_t n = c->tk ? c->tmask + 1 : 0, nn = n ? 2 * n : 256, i;
    int64_t *ok = c->tk, *nk = PyMem_Malloc((size_t)nn * sizeof(int64_t));
    int32_t *ov = c->tv, *nv = PyMem_Malloc((size_t)nn * sizeof(int32_t));
    if (nk == NULL || nv == NULL) {
        PyMem_Free(nk);
        PyMem_Free(nv);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < nn; i++)
        nk[i] = T_EMPTY;
    c->tk = nk;
    c->tv = nv;
    c->tmask = nn - 1;
    c->tused = 0;
    for (i = 0; i < n; i++)
        if (ok[i] != T_EMPTY)
            cal_map(c, ok[i], ov[i]);
    PyMem_Free(ok);
    PyMem_Free(ov);
    return 0;
}

/* Put the emptied bucket `bi` back in the pool. */
static void
bucket_recycle(Calendar *c, int32_t bi)
{
    Bucket *b = &c->pool[bi];
    if (b->cap > BUCKET_KEEP) {
        PyMem_Free(b->recs);
        b->recs = NULL;
        b->cap = 0;
    }
    b->len = 0;
    b->t = c->free;
    c->free = bi;
}

/* Drop cycle `t` from the table (backward-shift deletion, so probing
 * needs no tombstones) and recycle its bucket `bi`. */
static void
cal_close(Calendar *c, int64_t t, int32_t bi)
{
    Py_ssize_t mask = c->tmask, i = (Py_ssize_t)t & mask, j;
    while (c->tk[i] != t)
        i = (i + 1) & mask;
    for (j = (i + 1) & mask; c->tk[j] != T_EMPTY; j = (j + 1) & mask) {
        /* entry j may fill the hole unless its home lies in (i, j] */
        Py_ssize_t home = (Py_ssize_t)c->tk[j] & mask;
        if (((j - home) & mask) >= ((j - i) & mask)) {
            c->tk[i] = c->tk[j];
            c->tv[i] = c->tv[j];
            i = j;
        }
    }
    c->tk[i] = T_EMPTY;
    c->tused -= 1;
    bucket_recycle(c, bi);
}

/* An empty bucket for cycle `t`, mapped but not on the heap; -1 on
 * error. */
static int32_t
cal_open(Calendar *c, int64_t t)
{
    int32_t bi = c->free;
    if (2 * (c->tused + 1) > c->tmask + 1 && cal_rehash(c) < 0)
        return -1;
    if (bi >= 0)
        c->free = (int32_t)c->pool[bi].t;
    else {
        if (c->npool == c->pcap
            && grow(&c->pool, &c->pcap, sizeof(Bucket)) < 0)
            return -1;
        bi = (int32_t)c->npool++;
        memset(&c->pool[bi], 0, sizeof(Bucket));
    }
    c->pool[bi].t = t;
    cal_map(c, t, bi);
    return bi;
}

/* Append `rec` to the cycle-`t` bucket (EventQueue.post and the routers'
 * inlined posting blocks).  Takes over a whole record's tuple, also on
 * failure (an error drops a packet's row: pool_reset reclaims it). */
static int
cal_post(KState *ks, int64_t t, Rec rec)
{
    Calendar *c = &ks->cal;
    int32_t bi = cal_find(c, t);
    Bucket *b;
    if (bi < 0 && (heap_push(c, t) < 0 || (bi = cal_open(c, t)) < 0))
        goto fail;
    b = &c->pool[bi];
    if (b->len == b->cap && grow(&b->recs, &b->cap, sizeof(Rec)) < 0)
        goto fail;
    b->recs[b->len++] = rec;
    if (++c->npend > ks->ctr[C_PEAK_PENDING])
        ks->ctr[C_PEAK_PENDING] = c->npend;
    return 0;
fail:
    if (rec.rid == REC_TUPLE)
        Py_DECREF(rec.u.obj);
    return -1;
}

/* kernel.arm(r, target): arm the router's activation token at `target`
 * unless an earlier-or-equal arming is pending. */
static inline int
arm_step(KState *ks, RState *rs, int64_t target)
{
    if (rs->arb != ARB_NONE && rs->arb <= target)
        return 0;
    rs->arb = target;
    return cal_post(ks, target, REC(OP_STEP, rs->rid, 0, 0, 0));
}

/* Append (row, vc, t_arr) to an output FIFO. */
static int
ring_push(Ring *r, int32_t row, int64_t vc, int64_t t_arr)
{
    if (r->len == r->cap) {
        Py_ssize_t ncap = r->cap ? 2 * r->cap : 4, i;
        FifoEnt *e = PyMem_Malloc((size_t)ncap * sizeof(FifoEnt));
        if (e == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (i = 0; i < r->len; i++)
            e[i] = r->e[(r->head + i) & (r->cap - 1)];
        PyMem_Free(r->e);
        r->e = e;
        r->head = 0;
        r->cap = ncap;
    }
    r->e[(r->head + r->len++) & (r->cap - 1)] =
        (FifoEnt){row, (int32_t)vc, t_arr};
    return 0;
}

/* Append `row` of `size` to an input FIFO. */
static inline int
inq_push(InQ *q, int32_t row, int64_t size)
{
    if (ring_push(&q->ring, row, 0, size) < 0)
        return -1;
    if (q->head < 0) {
        q->head = row;
        q->size = size;
    }
    return 0;
}

/* Pop an input FIFO's head row (non-empty). */
static inline int32_t
inq_pop(InQ *q)
{
    Ring *r = &q->ring;
    int32_t row = q->head;
    r->head = (r->head + 1) & (r->cap - 1);
    if (--r->len > 0) {
        q->head = r->e[r->head].row;
        q->size = r->e[r->head].t_arr;
    }
    else
        q->head = -1;
    return row;
}

/* Append the pair (gen_time, dst) to a node's tail.  A full tail slides
 * its unread pairs down when at least a quarter of it has been read, and
 * grows by half otherwise: a saturated cell's backlog is the bulk of its
 * memory, so the slack is kept small. */
static int
tail_push(KState *ks, Tail *tl, uint32_t gen_time, uint32_t dst)
{
    if (tl->len == tl->cap) {
        if (tl->head > 0 && 4 * tl->head >= tl->len) {
            memmove(tl->e, tl->e + 2 * tl->head,
                    (size_t)(tl->len - tl->head) * 2 * sizeof(uint32_t));
            tl->len -= tl->head;
            tl->head = 0;
        }
        else {
            Py_ssize_t ncap = tl->cap ? tl->cap + (tl->cap >> 1) : 4;
            uint32_t *e = PyMem_Realloc(tl->e,
                                        (size_t)ncap * 2 * sizeof(uint32_t));
            if (e == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            tl->e = e;
            tl->cap = ncap;
        }
    }
    tl->e[2 * tl->len] = gen_time;
    tl->e[2 * tl->len + 1] = dst;
    tl->len += 1;
    if (++ks->tail_pairs > ks->ctr[C_PEAK_TAIL])
        ks->ctr[C_PEAK_TAIL] = ks->tail_pairs;
    return 0;
}

/* The tail of node port `port` of router `rs`. */
static inline Tail *
node_tail(KState *ks, const RState *rs, int64_t port)
{
    return &ks->tails[rs->rid * ks->node_ports + port];
}

/* Drop a node's first pair (the tail is not empty). */
static inline void
tail_pop(KState *ks, Tail *tl)
{
    if (++tl->head == tl->len)
        tl->head = tl->len = 0;
    ks->tail_pairs -= 1;
}

/* ------------------------------------------------------------------ */
/* the active-key index                                                */
/* ------------------------------------------------------------------ */

/* The allocation scan follows the iteration order of Router.active_keys,
 * a set of small ints.  The set stays the source of truth (every kernel
 * add / discard goes through to it); each router keeps a twin of its
 * hash table, and c_step reads the keys off the twin's live-slot bitmap
 * instead of walking 16-64 CPython slots for ~3 keys.  The twin follows
 * Objects/setobject.c (set_add_entry, set_discard_entry, set_table_resize,
 * set_insert_clean) for keys that hash to themselves:
 * - a probe visits the home slot key & mask (and the SET_LINEAR_PROBES
 *   after it, if they fit), then jumps to (i * 5 + 1 + perturb) & mask,
 *   perturb (first the key) shifted right by SET_PERTURB_SHIFT each time;
 * - a discard leaves a dummy; an add stops at the first empty slot of its
 *   path and takes the *last* dummy it passed, if any;
 * - an add into an empty slot that leaves fill * 5 >= mask * 3 rebuilds
 *   the table at the smallest power of two (>= 8) above 4 * used, the
 *   keys re-inserted in slot order, the dummies dropped (an 8-slot table
 *   without dummies is left alone).
 * Only the running interpreter states them, so the import checks them
 * against it (check_set_model) and builds without NDEBUG compare every
 * scan with the set's iterator.  The index is copied from the set, its
 * members validated, at mirror_in; after a narrow hook, each router whose
 * activation the hook armed — Router.inject's token in the inbox — gets
 * its table pointer, mask, fill and used compared, and a reload if they
 * moved (the one way a hook adds keys: load_buckets). */
enum { IX_DUMMY = -2, IX_EMPTY = -1, SET_LINEAR_PROBES = 9,
       SET_PERTURB_SHIFT = 5 }; /* a table's block: slots, live bitmap */
#define IX_BYTES(size) ((size_t)(size) * 4 + (((size_t)(size) + 63) >> 6) * 8)

/* An empty table of `size` slots (a power of two); frees nothing. */
static int
ix_alloc(KeyIndex *ix, Py_ssize_t size)
{
    if ((ix->slot = PyMem_Malloc(IX_BYTES(size))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(ix->slot, 0xff, (size_t)size * 4); /* IX_EMPTY */
    ix->live = memset(ix->slot + size, 0, IX_BYTES(size) - (size_t)size * 4);
    ix->mask = size - 1;
    ix->fill = ix->used = 0;
    return 0;
}

static inline void
ix_put(KeyIndex *ix, size_t i, int32_t key)
{
    ix->slot[i] = key;
    ix->live[i >> 6] |= (uint64_t)1 << (i & 63);
}

/* set_add_entry's probe: the slot holding `key`, else the first empty one
 * on its path (a table always has one; spent perturb, the jumps reach
 * every slot), with *dummy the last dummy passed (-1: none). */
static size_t
ix_probe(const KeyIndex *ix, int32_t key, Py_ssize_t *dummy)
{
    size_t mask = (size_t)ix->mask, i = (size_t)key & mask, j, end;
    size_t perturb = (size_t)key;
    *dummy = -1;
    for (;;) {
        end = (i + SET_LINEAR_PROBES <= mask) ? i + SET_LINEAR_PROBES : i;
        for (j = i; j <= end; j++) {
            if (ix->slot[j] == key || ix->slot[j] == IX_EMPTY)
                return j;
            if (ix->slot[j] == IX_DUMMY)
                *dummy = (Py_ssize_t)j;
        }
        perturb >>= SET_PERTURB_SHIFT;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

/* set_add_entry: 1 when `key` went in, 0 when it was there, -1 on error;
 * a rebuild re-inserts in slot order into a fresh table. */
static int
ix_add(KeyIndex *ix, int32_t key)
{
    KeyIndex nx;
    Py_ssize_t dummy, size = PySet_MINSIZE;
    size_t i = ix_probe(ix, key, &dummy);
    if (ix->slot[i] == key)
        return 0;
    ix->used += 1;
    if (dummy >= 0) {
        ix_put(ix, (size_t)dummy, key);
        return 1;
    }
    ix_put(ix, i, key);
    ix->fill += 1;
    if ((size_t)ix->fill * 5 < (size_t)ix->mask * 3)
        return 1;
    while (size <= (ix->used > 50000 ? 2 : 4) * ix->used)
        size <<= 1;
    if (size == PySet_MINSIZE && ix->mask == size - 1 && ix->fill == ix->used)
        return 1;
    nx = *ix;
    if (ix_alloc(&nx, size) < 0)
        return -1;
    for (i = 0; i <= (size_t)ix->mask; i++)
        if (ix->slot[i] >= 0)
            ix_put(&nx, ix_probe(&nx, ix->slot[i], &dummy), ix->slot[i]);
    nx.fill = nx.used = ix->used;
    PyMem_Free(ix->slot);
    *ix = nx;
    return 1;
}

/* set_discard_entry. */
static void
ix_discard(KeyIndex *ix, int32_t key)
{
    Py_ssize_t dummy;
    size_t i = ix_probe(ix, key, &dummy);
    if (ix->slot[i] != key)
        return;
    ix->slot[i] = IX_DUMMY;
    ix->live[i >> 6] &= ~((uint64_t)1 << (i & 63));
    ix->used -= 1;
}

/* Replace `ix` with a copy of the table of `set`.  With `rs`, every
 * member must be one of its input keys — an exact int in [0, nkeys) whose
 * in_q slot is a FIFO: the kernel indexes its flat arrays with it. */
static int
ix_copy(KeyIndex *ix, PyObject *set, KState *ks, const RState *rs)
{
    const PySetObject *so = (const PySetObject *)set;
    Py_ssize_t i;
    PyMem_Free(ix->slot);
    ix->table = NULL; /* stale until it is whole */
    if (ix_alloc(ix, so->mask + 1) < 0)
        return -1;
    for (i = 0; i <= so->mask; i++) {
        const setentry *e = &so->table[i];
        int64_t key;
        if (e->key == NULL || e->hash == -1) {
            ix->slot[i] = e->key ? IX_DUMMY : IX_EMPTY;
            continue;
        }
        key = PyLong_CheckExact(e->key) ? as_ll(e->key) : -1;
        if (rs != NULL
            && (key < 0 || key >= rs->nkeys || !PyList_CheckExact(
                    PyList_GET_ITEM(ks->in_q, rs->kb + key)))) {
            PyErr_Clear(); /* an int beyond int64 */
            PyErr_Format(ks->flow_err,
                         "router %lld: active_keys member %R is not one of "
                         "its input keys", (long long)rs->rid, e->key);
            return -1;
        }
        ix_put(ix, (size_t)i, (int32_t)key);
    }
    ix->fill = so->fill;
    ix->used = so->used;
    ix->table = so->table;
    return 0;
}

/* Reload the index of `rs` if Python changed the set since they agreed. */
static int
ix_sync(KState *ks, RState *rs)
{
    const PySetObject *so = (const PySetObject *)rs->active_keys;
    if (so->table == rs->ix.table && so->mask == rs->ix.mask
        && so->fill == rs->ix.fill && so->used == rs->ix.used)
        return 0;
    ks->ctr[C_INDEX_RELOADS] += 1;
    return ix_copy(&rs->ix, rs->active_keys, ks, rs);
}

/* active_keys.add(key) / .discard(key): the index, then the set.  A key
 * the index holds is in the set, so adding it again is skipped. */
static int
ak_add(KState *ks, RState *rs, int64_t key)
{
    int rc = ix_add(&rs->ix, (int32_t)key);
    if (rc > 0 && (rc = PySet_Add(rs->active_keys, ks->key_objs[key])) == 0)
        rs->ix.table = ((PySetObject *)rs->active_keys)->table; /* a resize */
    return rc;
}

static int
ak_discard(KState *ks, RState *rs, int64_t key)
{
    ix_discard(&rs->ix, (int32_t)key);
    return PySet_Discard(rs->active_keys, ks->key_objs[key]);
}

/* ------------------------------------------------------------------ */
/* mirror in, mirror out, absorb                                       */
/* ------------------------------------------------------------------ */

/* Cycle `t` as a Python int (borrowed), boxed at most once per cycle:
 * what packet fields (gen_time, t_enq, inject_time) and the hooks
 * receive. */
static PyObject *
now_obj(KState *ks, int64_t t)
{
    if (ks->t_obj == NULL || ks->t_obj_t != t) {
        PyObject *o = PyLong_FromLongLong((long long)t);
        if (o == NULL)
            return NULL;
        Py_XSETREF(ks->t_obj, o);
        ks->t_obj_t = t;
    }
    return ks->t_obj;
}

/* Write eq.now / _processed / _activations where they moved since the
 * last write: called before Python can run and on every exit. */
static int
sync_eq(KState *ks)
{
    if (ks->now != ks->w_now) {
        if (slot_set_ll(ks->eq, ks->eq_now, ks->now) < 0)
            return -1;
        ks->w_now = ks->now;
    }
    if (ks->processed != ks->w_processed) {
        if (slot_set_ll(ks->eq, ks->eq_processed, ks->processed) < 0)
            return -1;
        ks->w_processed = ks->processed;
    }
    if (ks->activations != ks->w_activations) {
        if (slot_set_ll(ks->eq, ks->eq_activations, ks->activations) < 0)
            return -1;
        ks->w_activations = ks->activations;
    }
    return 0;
}

/* as_ll for a field that must fit `int32` and lie in [0, limit). */
static inline int
small_field(PyObject *o, int64_t limit, int32_t *out)
{
    int64_t v;
    if (!PyLong_CheckExact(o))
        return 0;
    v = as_ll(o);
    if (v < 0 || v >= limit) {
        PyErr_Clear(); /* a value beyond int64 */
        return 0;
    }
    *out = (int32_t)v;
    return 1;
}

/* The native form of activation tuple `tup` into *r, owning a new
 * reference to the tuple if it keeps it whole: when `whole` says so (a
 * record the bucket being drained has already run: it only round-trips)
 * or when the fields cannot hold it — a packet among them that is not a
 * Packet with int64 fields included.  (Refusing a typed one is left to
 * dispatch, so that the record runs into its error where py_drain's
 * would.)  -1 only when memory (or the pool's row range) runs out. */
static int
rec_from_tuple(KState *ks, PyObject *tup, int whole, Rec *r)
{
    /* tuple length and the positions of b and the packet, per opcode */
    static const int8_t arity[10] = {0, 2, 5, 5, 3, 4, 4, 5, 2, 2};
    static const int8_t b_at[10] = {0, 0, 3, 4, 0, 3, 3, 3, 0, 0};
    static const int8_t pkt_at[10] = {0, 0, 4, 3, 0, 0, 0, 0, 1, 0};
    PyObject **it;
    RState *rs;
    int64_t op;
    *r = REC(OP_CALL, REC_TUPLE, 0, 0, 0);
    if (whole || !PyTuple_CheckExact(tup) || PyTuple_GET_SIZE(tup) < 1
        || !PyLong_CheckExact(PyTuple_GET_ITEM(tup, 0)))
        goto whole;
    it = ((PyTupleObject *)tup)->ob_item;
    op = as_ll(it[0]);
    if (op < OP_STEP || op > OP_GEN) {
        PyErr_Clear();
        goto whole; /* py_drain runs anything else as a callback */
    }
    r->op = (int32_t)op; /* a whole record keeps its weight and dispatch */
    if (PyTuple_GET_SIZE(tup) != arity[op])
        goto whole;
    if (op == OP_GEN) {
        /* a lowered generator indexes its node tables with it */
        if (!small_field(it[1], ks->low.gen ? ks->low.num_nodes : INT32_MAX,
                         &r->a))
            goto whole;
        r->rid = REC_NONE;
        return 0;
    }
    if (op != OP_DELIVER) {
        if ((rs = router_state(ks, it[1])) == NULL)
            goto whole;
        if (op != OP_STEP && !small_field(it[2], rs->radix, &r->a))
            goto whole;
        /* b is a VC (an index) except on OP_LINK / OP_RELEASE: a size */
        if (b_at[op]
            && !small_field(it[b_at[op]],
                            (op == OP_LINK || op == OP_RELEASE)
                                ? INT32_MAX : rs->max_vcs, &r->b))
            goto whole;
        if (op == OP_CREDIT) {
            if (!PyLong_CheckExact(it[4]))
                goto whole;
            r->u.c = as_ll(it[4]);
            if (r->u.c == -1 && PyErr_Occurred()) {
                PyErr_Clear();
                goto whole;
            }
        }
        r->rid = (int32_t)rs->rid;
    }
    else
        r->rid = REC_NONE;
    if (pkt_at[op] && (r->u.c = row_absorb(ks, it[pkt_at[op]])) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_TypeError))
            return -1; /* out of memory, or of rows */
        PyErr_Clear();
        goto whole;
    }
    return 0;
whole:
    r->rid = REC_TUPLE;
    r->a = r->b = 0;
    r->u.obj = Py_NewRef(tup);
    return 0;
}

/* The activation tuple of `r` (new reference); a packet's is its row's
 * Packet. */
static PyObject *
tuple_from_rec(KState *ks, const Rec *r)
{
    PyObject *router = r->rid >= 0 ? ks->routers[r->rid].router : NULL;
    PyObject *pkt = NULL;
    if (r->rid == REC_TUPLE)
        return Py_NewRef(r->u.obj);
    if ((r->op == OP_ARRIVE || r->op == OP_OUT_ARRIVE || r->op == OP_DELIVER)
        && (pkt = row_obj(ks, (int32_t)r->u.c)) == NULL)
        return NULL;
    switch (r->op) {
    case OP_STEP:
        return Py_BuildValue("(iO)", r->op, router);
    case OP_ARRIVE:
        return Py_BuildValue("(iOiiO)", r->op, router, r->a, r->b, pkt);
    case OP_OUT_ARRIVE:
        return Py_BuildValue("(iOiOi)", r->op, router, r->a, pkt, r->b);
    case OP_SEND:
        return Py_BuildValue("(iOi)", r->op, router, r->a);
    case OP_LINK:
    case OP_RELEASE:
        return Py_BuildValue("(iOii)", r->op, router, r->a, r->b);
    case OP_CREDIT:
        return Py_BuildValue("(iOiiL)", r->op, router, r->a, r->b,
                             (long long)r->u.c);
    case OP_DELIVER:
        return Py_BuildValue("(iO)", r->op, pkt);
    default: /* OP_GEN */
        return Py_BuildValue("(ii)", r->op, r->a);
    }
}

/* soa.in_q[gk] -> its ring, behind what the ring holds, leaving the list
 * empty (None stays None).  Each entry must be a Packet with int64
 * fields: it becomes a row.  Returns how many entries moved; on error
 * none did. */
static Py_ssize_t
load_inq(KState *ks, Py_ssize_t gk)
{
    PyObject *q = PyList_GET_ITEM(ks->in_q, gk);
    InQ *iq = &ks->inq[gk];
    Py_ssize_t i, n, len0 = iq->ring.len;
    if (q == Py_None)
        return 0;
    if (!PyList_CheckExact(q)) {
        PyErr_Format(PyExc_TypeError, "soa.in_q[%zd] is not a list or None",
                     gk);
        return -1;
    }
    n = PyList_GET_SIZE(q);
    for (i = 0; i < n; i++) {
        PyObject *pkt = PyList_GET_ITEM(q, i);
        int32_t row = row_absorb(ks, pkt);
        if (row < 0) {
            PyErr_Clear();
            PyErr_Format(ks->flow_err, "router %zd: input key %zd holds %R, "
                         "not a Packet with int64 fields", gk / ks->nkeys,
                         gk % ks->nkeys, pkt);
            goto undo;
        }
        if (inq_push(iq, row, PK(ks, row)[PK_SIZE]) < 0)
            goto undo;
    }
    if (n > 0 && gk % ks->nkeys < ks->node_ports * ks->max_vcs) {
        /* an injection key: the list's packets would go behind the ring,
         * but the node's tail comes after the ring (Router.inject) */
        int64_t rid = gk / ks->nkeys, port = gk % ks->nkeys / ks->max_vcs;
        const Tail *tl = node_tail(ks, &ks->routers[rid], port);
        if (tl->len > 0) {
            PyErr_Format(ks->flow_err, "router %lld: a packet injected on "
                         "node port %lld would overtake the %zd generated "
                         "packets queued there", (long long)rid,
                         (long long)port, tl->len - tl->head);
            goto undo;
        }
    }
    if (n > 0 && PyList_SetSlice(q, 0, n, NULL) < 0)
        goto undo;
    return n;
undo: /* the list still holds them all */
    while (iq->ring.len > len0) {
        Ring *r = &iq->ring;
        row_release(ks, r->e[(r->head + --r->len) & (r->cap - 1)].row);
    }
    if (len0 == 0)
        iq->head = -1;
    return -1;
}

/* Rings -> soa.in_q, each in front of what its list holds, leaving the
 * rings empty and their memos cleared: whatever runs before the next
 * mirror in may edit a packet or a counter a memo was decided on.  A
 * list holds nothing here unless a narrow hook edited it
 * against the contract (or load_inq refused it): builds without NDEBUG
 * raise SystemError for that, once everything is back. */
static int
store_inq(KState *ks)
{
    Py_ssize_t gk, k, stray = -1;
    for (gk = 0; gk < ks->num_routers * ks->nkeys; gk++) {
        InQ *iq = &ks->inq[gk];
        Ring *r = &iq->ring;
        PyObject *q = PyList_GET_ITEM(ks->in_q, gk), *front;
        int rc;
        if (PyList_CheckExact(q) && PyList_GET_SIZE(q) > 0)
            stray = gk;
        if (r->len == 0)
            continue;
        if ((front = PyList_New(r->len)) == NULL)
            return -1;
        for (k = 0; k < r->len; k++) {
            PyObject *pkt =
                row_obj(ks, r->e[(r->head + k) & (r->cap - 1)].row);
            if (pkt == NULL) {
                Py_DECREF(front);
                return -1;
            }
            PyList_SET_ITEM(front, k, Py_NewRef(pkt));
        }
        r->len = 0;
        iq->head = iq->memo.row = -1;
        rc = PyList_SetSlice(q, 0, 0, front);
        Py_DECREF(front);
        if (rc < 0)
            return -1;
    }
#ifndef NDEBUG
    if (stray >= 0) {
        PyErr_Format(PyExc_SystemError, "soa.in_q[%zd] was not empty at "
                     "mirror out: a hook edited it during the drain", stray);
        return -1;
    }
#endif
    (void)stray;
    return 0;
}

/* soa.inj_tail[n], its pairs from inj_tail_head[n] on -> node n's tail,
 * behind what that holds, leaving the array empty and its offset 0.  The
 * array must be an array('I') of pairs whose destinations are nodes.
 * Returns how many pairs moved; on error none did. */
static Py_ssize_t
load_tail(KState *ks, Py_ssize_t n)
{
    PyObject *arr = PyList_GET_ITEM(ks->inj_tail, n);
    Tail *tl = &ks->tails[n];
    Py_ssize_t len0 = tl->len, head0 = tl->head, items = 0, from, i;
    int64_t nodes = ks->num_routers * ks->node_ports;
    const uint32_t *pair;
    Py_buffer view;
    int ok;
    if (PyObject_GetBuffer(arr, &view, PyBUF_CONTIG_RO | PyBUF_FORMAT) < 0)
        goto bad;
    from = (Py_ssize_t)ks->inj_tail_head[n];
    ok = strcmp(view.format, "I") == 0 && view.itemsize == 4;
    if (ok) {
        items = view.len / 4;
        ok = from >= 0 && from <= items && (items - from) % 2 == 0;
    }
    for (i = from; ok && i < items; i += 2) {
        pair = (const uint32_t *)view.buf + i;
        ok = pair[1] < nodes && tail_push(ks, tl, pair[0], pair[1]) == 0;
    }
    PyBuffer_Release(&view);
    if (ok && (items == 0 || PySequence_DelSlice(arr, 0, items) == 0)) {
        ks->inj_tail_head[n] = 0;
        return (items - from) / 2;
    }
    /* the array still holds them all; take back what the tail took (a
     * slide moved the tail's own pairs to the front) */
    ks->tail_pairs -= tl->len - tl->head - (len0 - head0);
    if (tl->head != head0) {
        tl->len = len0 - head0;
        tl->head = 0;
    }
    else
        tl->len = len0;
bad:
    if (!PyErr_Occurred() || PyErr_ExceptionMatches(PyExc_TypeError)
        || PyErr_ExceptionMatches(PyExc_BufferError)) {
        PyErr_Clear();
        PyErr_Format(ks->flow_err, "soa.inj_tail[%zd] is not an array('I') "
                     "of (gen_time, dst) pairs from inj_tail_head[%zd] on, "
                     "each dst a node", n, n);
    }
    return -1;
}

/* Node tails -> soa.inj_tail, each in front of the pairs its array holds
 * (none, unless an absorb refused them), freeing the native tails. */
static int
store_tails(KState *ks)
{
    Py_ssize_t n;
    for (n = 0; n < ks->num_routers * ks->node_ports; n++) {
        Tail *tl = &ks->tails[n];
        PyObject *arr = PyList_GET_ITEM(ks->inj_tail, n), *front, *mv, *res;
        int rc;
        if (tl->len > 0) {
            mv = PyMemoryView_FromMemory(
                (char *)(tl->e + 2 * tl->head),
                (tl->len - tl->head) * 2 * (Py_ssize_t)sizeof(uint32_t),
                PyBUF_READ);
            front = mv ? PyObject_CallFunction((PyObject *)Py_TYPE(arr), "s",
                                               "I") : NULL;
            res = front ? PyObject_CallMethod(front, "frombytes", "O", mv)
                        : NULL;
            rc = res ? PySequence_SetSlice(arr, 0,
                                           (Py_ssize_t)ks->inj_tail_head[n],
                                           front) : -1;
            Py_XDECREF(res);
            Py_XDECREF(front);
            Py_XDECREF(mv);
            if (rc < 0)
                return -1;
            ks->inj_tail_head[n] = 0;
            ks->tail_pairs -= tl->len - tl->head;
        }
        PyMem_Free(tl->e);
        tl->e = NULL;
        tl->head = tl->len = tl->cap = 0;
    }
    return 0;
}

/* eq._buckets -> calendar, leaving the dict and eq._times empty.  With
 * `inbox` the dict holds only what a contract hook just posted: an
 * (OP_STEP, router) token there was armed by Router.inject from the None
 * mark every router shows during a drain, so it is replayed through
 * arm_step, the mark reset, the router's injection FIFOs absorbed and its
 * active-key index re-checked (a failure is raised again once the inbox
 * is all in).  Without, the dict is the whole calendar and eq._times its
 * heap (a bucket being drained is in one, not the other, and the records
 * it has run stay whole). */
static int
load_buckets(KState *ks, int inbox)
{
    PyObject *key, *bucket;
    Py_ssize_t pos = 0, i, n, bad_q = -1, bad_tail = -1;
    RState *bad = NULL;
    while (PyDict_Next(ks->buckets, &pos, &key, &bucket)) {
        int64_t t = as_ll(key);
        Py_ssize_t keep = (!inbox && t == ks->cal.keep_t) ? ks->cal.keep : 0;
        if ((t == -1 && PyErr_Occurred()) || !PyList_CheckExact(bucket)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError,
                                "eq._buckets does not map cycles to lists");
            return -1;
        }
        for (i = 0; i < PyList_GET_SIZE(bucket); i++) {
            Rec r;
            if (rec_from_tuple(ks, PyList_GET_ITEM(bucket, i), i < keep, &r)
                < 0)
                return -1;
            if (inbox && r.op == OP_STEP && r.rid >= 0) {
                RState *rs = &ks->routers[r.rid];
                Py_ssize_t gk, n, moved;
                slot_set(rs->router, ks->r_arb_time, Py_NewRef(Py_None));
                if (arm_step(ks, rs, t) < 0)
                    return -1;
                for (gk = rs->kb; gk < rs->kb + rs->boundary; gk++) {
                    if ((moved = load_inq(ks, gk)) < 0) {
                        PyErr_Clear();
                        bad_q = gk;
                    }
                    else
                        ks->ctr[C_INQ_ABSORBED] += moved;
                }
                /* the pairs Router.enqueue queued, behind those lists */
                for (n = rs->rid * ks->node_ports;
                     n < (rs->rid + 1) * ks->node_ports; n++) {
                    if ((moved = load_tail(ks, n)) < 0) {
                        PyErr_Clear();
                        bad_tail = n;
                    }
                    else
                        ks->ctr[C_INQ_ABSORBED] += moved;
                }
                if (ix_sync(ks, rs) < 0) {
                    PyErr_Clear();
                    bad = rs;
                }
            }
            else if (cal_post(ks, t, r) < 0)
                return -1;
        }
        if (inbox)
            ks->ctr[C_INBOX] += PyList_GET_SIZE(bucket);
    }
    n = PyList_GET_SIZE(ks->times);
    if (!inbox) {
        ks->cal.hn = 0;
        for (i = 0; i < n; i++) {
            int64_t t = as_ll(PyList_GET_ITEM(ks->times, i));
            if ((t == -1 && PyErr_Occurred()) || heap_push(&ks->cal, t) < 0)
                return -1;
        }
    }
    PyDict_Clear(ks->buckets);
    if (PyList_SetSlice(ks->times, 0, n, NULL) < 0
        || (bad_q >= 0 && load_inq(ks, bad_q) < 0)
        || (bad_tail >= 0 && load_tail(ks, bad_tail) < 0))
        return -1;
    return bad != NULL ? ix_sync(ks, bad) : 0;
}

/* Calendar -> eq._buckets / eq._times (both empty on entry), leaving
 * the calendar empty. */
static int
store_buckets(KState *ks)
{
    Calendar *c = &ks->cal;
    Py_ssize_t i, k;
    for (i = 0; i <= c->tmask; i++) {
        Bucket *b;
        PyObject *list, *key;
        int rc;
        if (c->tk[i] == T_EMPTY)
            continue;
        b = &c->pool[c->tv[i]];
        if ((list = PyList_New(b->len)) == NULL)
            return -1;
        for (k = 0; k < b->len; k++) {
            PyObject *tup = tuple_from_rec(ks, &b->recs[k]);
            if (tup == NULL) {
                Py_DECREF(list); /* the bucket stays native, whole */
                return -1;
            }
            PyList_SET_ITEM(list, k, tup);
        }
        for (k = 0; k < b->len; k++)
            if (b->recs[k].rid == REC_TUPLE)
                Py_DECREF(b->recs[k].u.obj); /* the list holds it now */
        c->npend -= b->len;
        b->len = 0;
        key = PyLong_FromLongLong((long long)b->t);
        rc = key ? PyDict_SetItem(ks->buckets, key, list) : -1;
        Py_XDECREF(key);
        Py_DECREF(list);
        if (rc < 0)
            return -1;
        c->tk[i] = T_EMPTY;
        c->tused -= 1;
        bucket_recycle(c, c->tv[i]);
    }
    while (c->hn > 0) {
        /* popped in order: a sorted list is a valid heapq heap */
        PyObject *t = PyLong_FromLongLong((long long)heap_pop(c));
        int rc = t ? PyList_Append(ks->times, t) : -1;
        Py_XDECREF(t);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* soa.out_fifo -> rings, leaving the lists empty. */
static int
load_fifos(KState *ks)
{
    Py_ssize_t gp, i, n;
    for (gp = 0; gp < ks->num_routers * ks->radix; gp++) {
        PyObject *fifo = PyList_GET_ITEM(ks->out_fifo, gp);
        if (!PyList_CheckExact(fifo))
            goto bad;
        n = PyList_GET_SIZE(fifo);
        for (i = 0; i < n; i++) {
            PyObject *e = PyList_GET_ITEM(fifo, i);
            int64_t vc, t_arr;
            int32_t row;
            if (!PyTuple_CheckExact(e) || PyTuple_GET_SIZE(e) != 3)
                goto bad;
            vc = as_ll(PyTuple_GET_ITEM(e, 1));
            t_arr = as_ll(PyTuple_GET_ITEM(e, 2));
            if (PyErr_Occurred() || vc < 0 || vc >= ks->max_vcs)
                goto bad;
            if ((row = row_absorb(ks, PyTuple_GET_ITEM(e, 0))) < 0
                || ring_push(&ks->rings[gp], row, vc, t_arr) < 0)
                goto bad;
        }
        if (n > 0 && PyList_SetSlice(fifo, 0, n, NULL) < 0)
            return -1;
    }
    return 0;
bad:
    ks->rings[gp].len = 0; /* the list still has its entries */
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "soa.out_fifo entries are not "
                        "(Packet, vc, t) tuples");
    return -1;
}

/* Rings -> soa.out_fifo (empty on entry), leaving the rings empty. */
static int
store_fifos(KState *ks)
{
    Py_ssize_t gp;
    for (gp = 0; gp < ks->num_routers * ks->radix; gp++) {
        Ring *r = &ks->rings[gp];
        while (r->len > 0) {
            FifoEnt *e = &r->e[r->head];
            PyObject *pkt = row_obj(ks, e->row), *entry;
            int rc;
            if (pkt == NULL
                || (entry = Py_BuildValue("(OLL)", pkt, (long long)e->vc,
                                          (long long)e->t_arr)) == NULL)
                return -1;
            rc = PyList_Append(PyList_GET_ITEM(ks->out_fifo, gp), entry);
            Py_DECREF(entry);
            if (rc < 0)
                return -1;
            r->head = (r->head + 1) & (r->cap - 1);
            r->len -= 1;
        }
    }
    return 0;
}

/* The Verdict of a Python decision tuple (out_port, out_vc, action, aux);
 * takes over `dec`.  (Never memoized: it has no guard.) */
static int
verdict_from_py(KState *ks, PyObject *dec, Verdict *v)
{
    if (!PyTuple_Check(dec) || PyTuple_GET_SIZE(dec) < 4) {
        PyErr_SetString(PyExc_TypeError,
                        "decide() must return (out_port, out_vc, action, aux)");
        goto fail;
    }
    v->port = as_ll(PyTuple_GET_ITEM(dec, 0));
    v->vc = as_ll(PyTuple_GET_ITEM(dec, 1));
    v->action = as_ll(PyTuple_GET_ITEM(dec, 2));
    v->aux = (v->action == 1) ? as_ll(PyTuple_GET_ITEM(dec, 3)) : 0;
    if (PyErr_Occurred())
        goto fail;
    if (v->port < 0 || v->port >= ks->radix || v->vc < 0
        || v->vc >= ks->max_vcs) {
        PyErr_Format(PyExc_IndexError,
                     "decide() returned port %lld vc %lld, outside the router",
                     (long long)v->port, (long long)v->vc);
        goto fail;
    }
    v->dec = dec;
    return 0;
fail:
    Py_DECREF(dec);
    return -1;
}

/* Take the whole Python-side event state into the kernel: drain entry,
 * and after code that may have changed any of it. */
static int
mirror_in(KState *ks)
{
    Py_ssize_t i;
    ks->ctr[C_MIRRORS] += 1;
    ks->now = ks->w_now = slot_ll(ks->eq, ks->eq_now);
    ks->processed = ks->w_processed = slot_ll(ks->eq, ks->eq_processed);
    ks->activations = ks->w_activations =
        slot_ll(ks->eq, ks->eq_activations);
    if (PyErr_Occurred())
        return -1;
    for (i = 0; i < ks->num_routers; i++) {
        RState *rs = &ks->routers[i];
        PyObject *arb = slot_get(rs->router, ks->r_arb_time);
        if (ix_copy(&rs->ix, rs->active_keys, ks, rs) < 0)
            return -1;
        if (arb == NULL || arb == Py_None)
            continue;
        rs->arb = as_ll(arb);
        if (rs->arb == -1 && PyErr_Occurred())
            return -1;
        slot_set(rs->router, ks->r_arb_time, Py_NewRef(Py_None));
    }
    if (load_buckets(ks, 0) < 0 || load_fifos(ks) < 0)
        return -1;
    for (i = 0; i < ks->num_routers * ks->nkeys; i++)
        if (load_inq(ks, i) < 0)
            return -1;
    for (i = 0; i < ks->num_routers * ks->node_ports; i++)
        if (load_tail(ks, i) < 0)
            return -1;
    return kstate_rng_in(ks);
}

/* Hand it all back: every exit of the drain, and before code that may
 * read or change any of it.  The native structures and the packet pool
 * end up empty. */
static int
mirror_out(KState *ks)
{
    Py_ssize_t i;
    int rc = 0;
    if (sync_eq(ks) < 0)
        return -1;
    for (i = 0; i < ks->num_routers; i++) {
        RState *rs = &ks->routers[i];
        if (rs->arb != ARB_NONE
            && slot_set_ll(rs->router, ks->r_arb_time, rs->arb) < 0)
            return -1;
        rs->arb = ARB_NONE;
    }
    /* store_inq last: builds without NDEBUG raise from it once every
     * FIFO is back */
    if (store_buckets(ks) < 0 || store_fifos(ks) < 0 || store_tails(ks) < 0
        || store_inq(ks) < 0)
        rc = -1;
    else
        pool_reset(ks); /* every row's packet is Python's now */
    if (kstate_rng_out(ks) < 0)
        rc = -1;
    return rc;
}

/* After a contract hook returned (or raised: the exception is kept):
 * take what it posted. */
static int
absorb_inbox(KState *ks)
{
    PyObject *et, *ev, *tb;
    int rc;
    if (PyDict_GET_SIZE(ks->buckets) == 0)
        return 0;
    PyErr_Fetch(&et, &ev, &tb);
    rc = load_buckets(ks, 1);
    if (et != NULL) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    return rc;
}

/* Call a contract hook that returns nothing of interest: count it, show
 * Python the clock, call fn(a) or fn(a, b) (b NULL or not), absorb. */
static int
call_hook(KState *ks, int kind, PyObject *fn, PyObject *a, PyObject *b)
{
    PyObject *args[2] = {a, b}, *res;
    ks->ctr[kind] += 1;
    if (sync_eq(ks) < 0)
        return -1;
    res = PyObject_Vectorcall(fn, args, b == NULL ? 1 : 2, NULL);
    if (res == NULL) {
        absorb_inbox(ks);
        return -1;
    }
    Py_DECREF(res);
    return absorb_inbox(ks);
}

/* call_hook(fn, the Packet of `row`, b): the row's fields go into the
 * object before the call and come back after it, also when it raised
 * (keeping its exception). */
static int
call_pkt_hook(KState *ks, int kind, PyObject *fn, int32_t row, PyObject *b)
{
    PyObject *pkt = row_obj(ks, row), *et, *ev, *tb;
    int rc;
    if (pkt == NULL)
        return -1;
    rc = call_hook(ks, kind, fn, pkt, b);
    PyErr_Fetch(&et, &ev, &tb);
    if (row_load(ks, row, pkt) < 0) {
        if (et == NULL)
            return -1;
        PyErr_Clear();
    }
    PyErr_Restore(et, ev, tb);
    return rc;
}

/* ------------------------------------------------------------------ */
/* lowered OP_GEN / OP_DELIVER handlers (twins: see the header map)    */
/* ------------------------------------------------------------------ */

static int
c_gen(KState *ks, LState *ls, int64_t node, int64_t t)
{
    int64_t dst, key, gap;
    RState *rs;

    if (t >= ls->end_time)
        return 0;

    /* destination draw: same rejection sampling, same stream position */
    switch (ls->kind) {
    case 0: { /* uniform over the n1 foreign nodes */
        int64_t d = mt_randbelow(&ls->rng.mt, ls->n1, ls->n1_bits);
        dst = (d < node) ? d : d + 1;
        break;
    }
    case 1: { /* adversarial: fixed group offset, random member */
        int64_t tg =
            pymod(node / ls->per_group + ls->offset, ls->groups);
        dst = tg * ls->per_group
              + mt_randbelow(&ls->rng.mt, ls->per_group, ls->pg_bits);
        break;
    }
    case 2: { /* advc: random offset from the set, then random member */
        int64_t i =
            mt_randbelow(&ls->rng.mt, (int64_t)ls->n_off, ls->off_bits);
        int64_t tg =
            pymod(node / ls->per_group + ls->offsets[i], ls->groups);
        dst = tg * ls->per_group
              + mt_randbelow(&ls->rng.mt, ls->per_group, ls->pg_bits);
        break;
    }
    default: /* permutation: zero draws */
        dst = ls->perm[node];
        break;
    }

    ls->si[SI_TOTAL_GENERATED] += 1;
    if (t >= ls->ws && t < ls->we) {
        ls->si[SI_GEN_PHITS] += ls->psize;
        ls->si[SI_GEN_PACKETS] += 1;
    }

    /* inlined Router.enqueue(node % p, dst, t): the packet joins the
     * node's tail (soa.inj_tail[node]) as a pair; promote builds its
     * row */
    rs = &ks->routers[node / ls->p];
    key = (node % ls->p) * rs->max_vcs;
    if (tail_push(ks, &ks->tails[node], t, dst) < 0
        || ak_add(ks, rs, key) < 0 || arm_step(ks, rs, t) < 0)
        return -1;

    /* inlined geometric_gap over the precomputed log(1 - p) */
    if (isnan(ls->log_q))
        gap = 1;
    else {
        double u = mt_random(&ls->rng.mt);
        if (u == 0.0)
            gap = 1;
        else {
            gap = (int64_t)(log(u) / ls->log_q) + 1;
            if (gap < 1)
                gap = 1;
        }
    }
    return cal_post(ks, t + gap, REC(OP_GEN, REC_NONE, node, 0, 0));
}

/* Row twin of make_packet(sim, node, dst, gen_time), i.e. of
 * Packet.__init__(pid, size, src_node, src_router, src_group, dst_node,
 * dst_router, dst_group, dst_local_router, dst_node_port, gen_time,
 * base_latency), the derived defaults included (t_enq = gen_time); draws
 * the next packet id. */
static void
row_fill(KState *ks, LState *ls, int32_t row, int64_t node, int64_t dst,
         int64_t gen_time)
{
    int64_t *pk = PK(ks, row), src_router = node / ls->p,
            dst_router = dst / ls->p;
    ls->pid += 1;
    pk[PK_PID] = ls->pid;
    pk[PK_SIZE] = ls->psize;
    pk[PK_SRC_NODE] = node;
    pk[PK_SRC_ROUTER] = src_router;
    pk[PK_SRC_GROUP] = pk[PK_CURRENT_GROUP] = src_router / ls->a;
    pk[PK_DST_NODE] = dst;
    pk[PK_DST_ROUTER] = dst_router;
    pk[PK_DST_GROUP] = dst_router / ls->a;
    pk[PK_DST_LOCAL_ROUTER] = dst_router % ls->a;
    pk[PK_DST_NODE_PORT] = dst % ls->p;
    pk[PK_GEN_TIME] = pk[PK_T_ENQ] = gen_time;
    pk[PK_BASE_LATENCY] =
        ls->ms_table[src_router * ks->num_routers + dst_router];
    pk[PK_INJECT_TIME] = pk[PK_INTER_ROUTER] = pk[PK_INTER_GROUP] = -1;
    pk[PK_WAIT_LOCAL] = pk[PK_WAIT_GLOBAL] = pk[PK_SERVICE_SUM] = 0;
    pk[PK_LOCAL_HOPS] = pk[PK_GLOBAL_HOPS] = pk[PK_GROUP_LOCAL_HOPS] = 0;
    pk[PK_PLAN] = 0;
}

/* kernel.promote: the first pair of node port `port`'s tail (not empty)
 * becomes the head of its injection FIFO `iq` (empty), built by the
 * constructor the cell's generator runs — row_fill on a lowered cell,
 * TrafficGenerator._make_packet (Router._make_packet) otherwise — which
 * draws the packet id now. */
static int
promote(KState *ks, RState *rs, InQ *iq, int64_t port)
{
    int64_t node = rs->rid * ks->node_ports + port;
    Tail *tl = node_tail(ks, rs, port);
    int64_t gen_time = tl->e[2 * tl->head], dst = tl->e[2 * tl->head + 1];
    int32_t row;
    if (ks->low.gen != NULL) {
        if ((row = row_alloc(ks)) < 0)
            return -1;
        row_fill(ks, &ks->low, row, node, dst, gen_time);
    }
    else {
        PyObject *args[3], *pkt;
        int i;
        ks->ctr[C_PROMOTE] += 1;
        args[0] = PyLong_FromLongLong((long long)node);
        args[1] = PyLong_FromLongLong((long long)dst);
        args[2] = PyLong_FromLongLong((long long)gen_time);
        pkt = (args[0] && args[1] && args[2])
                  ? PyObject_Vectorcall(rs->make_packet, args, 3, NULL)
                  : NULL;
        for (i = 0; i < 3; i++)
            Py_XDECREF(args[i]);
        if (pkt == NULL)
            return -1;
        row = row_absorb(ks, pkt);
        Py_DECREF(pkt);
        if (row < 0)
            return -1;
    }
    tail_pop(ks, tl);
    return inq_push(iq, row, PK(ks, row)[PK_SIZE]);
}

/* (The row is released with the OP_DELIVER record, when drain_core drops
 * the records it has run.) */
static int
c_deliver(KState *ks, LState *ls, int32_t row, int64_t t)
{
    const int64_t *pk = PK(ks, row);
    int64_t n, xi, inj, parts;
    double x, mean, delta;

    ls->si[SI_TOTAL_DELIVERED] += 1;
    if (!(t >= ls->ws && t < ls->we))
        return 0;
    ls->si[SI_DEL_PHITS] += pk[PK_SIZE];
    n = ls->si[SI_DEL_PACKETS] + 1;
    ls->si[SI_DEL_PACKETS] = n;
    ls->del_router[pk[PK_DST_ROUTER]] += 1;

    xi = t - pk[PK_GEN_TIME];
    x = (double)xi;
    /* Welford update in OnlineStats.add's exact operation order */
    mean = ls->sf[SF_LAT_MEAN];
    delta = x - mean;
    mean += delta / (double)n;
    ls->sf[SF_LAT_MEAN] = mean;
    ls->sf[SF_LAT_M2] += delta * (x - mean);
    if (x < ls->sf[SF_LAT_MIN])
        ls->sf[SF_LAT_MIN] = x;
    if (x > ls->sf[SF_LAT_MAX])
        ls->sf[SF_LAT_MAX] = x;
    inj = pk[PK_INJECT_TIME] - pk[PK_GEN_TIME];
    ls->sf[SF_BD_INJ] += (double)inj;
    ls->sf[SF_BD_LOCAL] += (double)pk[PK_WAIT_LOCAL];
    ls->sf[SF_BD_GLOBAL] += (double)pk[PK_WAIT_GLOBAL];
    ls->sf[SF_BD_BASE] += (double)pk[PK_BASE_LATENCY];
    ls->sf[SF_BD_MIS] += (double)(pk[PK_SERVICE_SUM] - pk[PK_BASE_LATENCY]);
    /* the latency ledger audit of StatsCollector.on_delivery, same message */
    parts = inj + pk[PK_WAIT_LOCAL] + pk[PK_WAIT_GLOBAL] + pk[PK_SERVICE_SUM];
    if (parts != xi) {
        PyErr_Format(PyExc_AssertionError, "latency decomposition broken "
                     "for packet %lld: %lld != %lld (inj=%lld, l=%lld, "
                     "g=%lld, base=%lld, mis=%lld)", (long long)pk[PK_PID],
                     (long long)parts, (long long)xi, (long long)inj,
                     (long long)pk[PK_WAIT_LOCAL], (long long)pk[PK_WAIT_GLOBAL],
                     (long long)pk[PK_BASE_LATENCY],
                     (long long)(pk[PK_SERVICE_SUM] - pk[PK_BASE_LATENCY]));
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* routing-decision twins                                              */
/* ------------------------------------------------------------------ */

/* Every twin fills a Verdict and returns 0, or returns 1 on a branch
 * where the Python reference raises (VC overflow, a degenerate
 * randrange) — leaving packet, store and RNG as a re-run of the
 * reference expects to find them: the caller then runs the
 * reference for its exact exception.  -1 is an error of the twin's own
 * (allocation), with an exception set. */

/* Minimal next hop towards group offset `delta` from position `pos`. */
static inline int64_t
gateway_hop(const Twin *tw, int64_t pos, int64_t delta, int64_t *gw_pos)
{
    int64_t g = tw->gw_router[delta];
    *gw_pos = g;
    if (pos == g)
        return tw->gw_port[delta];
    return tw->first_local + ((g < pos) ? g : g - 1);
}

/* One minimal hop towards router `target` (base.min_hop_port) on the
 * position-based VC of the hop's port class (vc.position_*_vc), or the
 * ejection once there: all of MinimalRouting.decide with `target` the
 * destination router, and the tail of the oblivious and PiggyBack
 * decide()s, whose target the frozen plan fixes.  A pure function of the
 * packet's frozen fields and router/topology constants. */
static int
c_min_walk(KState *ks, RState *rs, const int64_t *pk, int64_t target,
           Verdict *v)
{
    static const int64_t pos_base[3] = {0, 1, 3}; /* vc._POSITION_BASE */
    const Twin *tw = &ks->twin;
    int64_t tg, ti, gh, gw_pos;

    v->action = v->aux = 0;
    v->pure = 1;
    v->guard = GUARD_STABLE;
    if (rs->rid == target) { /* eject_decision(pkt) */
        v->port = pk[PK_DST_NODE_PORT];
        v->vc = 0;
        return 0;
    }
    tg = target / tw->a;
    ti = target % tw->a;
    if (rs->group == tg)
        v->port = tw->first_local + ((ti < rs->pos) ? ti : ti - 1);
    else
        v->port = gateway_hop(tw, rs->pos,
                              pymod(tg - rs->group, tw->groups), &gw_pos);
    gh = pk[PK_GLOBAL_HOPS];
    if (v->port >= tw->first_global) {
        v->vc = gh;
        if (v->vc >= tw->n_global_vcs)
            return 1; /* position_global_vc raises */
    }
    else {
        if (gh < 0 || gh > 2)
            return 1; /* _POSITION_BASE[gh] raises IndexError */
        v->vc = pos_base[gh] + pk[PK_GROUP_LOCAL_HOPS];
        if (v->vc >= tw->n_local_vcs)
            return 1; /* position_local_vc raises */
    }
    return 0;
}

/* C twin of MinimalRouting.decide (repro/routing/minimal.py). */
static int
c_min_decide(KState *ks, RState *rs, int64_t *pk, Verdict *v)
{
    return c_min_walk(ks, rs, pk, pk[PK_DST_ROUTER], v);
}

/* ---- source-routed mechanisms: oblivious Valiant and PiggyBack ------ */

/* Both freeze a plan the first time a packet heads its injection queue
 * (pkt.plan 0 -> 1 minimal, 2 via pkt.inter_router) and walk minimally
 * to the plan's target from then on: the one decide of their Python
 * base, SourceRoutedMechanism (repro/routing/base.py).  A raise in the
 * walk needs no foresight: by then the plan is written and the draws are
 * made exactly as the reference makes them before it raises, so the
 * Python decide() the caller falls back to skips the freeze and raises
 * from the same state.  Only what would raise *inside* the freeze is
 * checked before the first draw. */

/* Record the frozen plan on the packet: via router `inter`, or minimal
 * when `inter` < 0.  Returns the new pkt.plan. */
static int64_t
freeze_plan(int64_t *pk, int64_t inter)
{
    if (inter >= 0)
        pk[PK_INTER_ROUTER] = inter;
    return pk[PK_PLAN] = (inter >= 0) ? 2 : 1;
}

/* The shared tail: minimal towards the intermediate router while
 * plan == 2, towards the destination (ejecting there) when plan == 1. */
static int
c_plan_walk(KState *ks, RState *rs, const int64_t *pk, int64_t plan,
            Verdict *v)
{
    if (plan == 2) {
        int64_t inter = pk[PK_INTER_ROUTER];
        if (inter == rs->rid)
            return 1; /* min_hop_port raises at its target */
        return c_min_walk(ks, rs, pk, inter, v);
    }
    if (plan != 1)
        return 1;
    return c_min_walk(ks, rs, pk, pk[PK_DST_ROUTER], v);
}

/* The groups this router's own global links reach, in port order and
 * without `dst_group` (SourceRoutedMechanism._crg_groups), into
 * tw->cand; returns how many. */
static int64_t
crg_groups(Twin *tw, const RState *rs, int64_t dst_group)
{
    const int64_t *off = tw->go_off + rs->pos * tw->h;
    int64_t n, cnt = 0;
    for (n = 0; n < tw->h; n++) {
        int64_t g = pymod(rs->group + off[n], tw->groups);
        if (g != dst_group)
            tw->cand[cnt++] = g;
    }
    return cnt;
}

/* topo.router_id(g, rng.randrange(a)) */
static inline int64_t
random_router_of(Twin *tw, int64_t g)
{
    return g * tw->a + mt_randbelow(&tw->rng.mt, tw->a, tw->a_bits);
}

/* C twin of ObliviousValiantRouting.decide + _choose_intermediate
 * (repro/routing/oblivious.py), CRG or RRG by the row's source:
 * `rng.choice` over the CRG list is one _randbelow(len), RRG the
 * randrange(groups) rejection loop. */
static int
c_oblivious_decide(KState *ks, RState *rs, int64_t *pk, Verdict *v)
{
    Twin *tw = &ks->twin;
    int64_t plan = pk[PK_PLAN];

    if (plan == 0) {
        int64_t dst_group = pk[PK_DST_GROUP];
        int64_t inter = -1, g;
        if (tw->source == CRG) {
            int64_t cnt = crg_groups(tw, rs, dst_group);
            if (cnt > 0) {
                g = tw->cand[mt_randbelow(&tw->rng.mt, cnt, bit_length(cnt))];
                inter = random_router_of(tw, g);
            }
        }
        else {
            int64_t src_group = pk[PK_SRC_GROUP];
            do
                g = mt_randbelow(&tw->rng.mt, tw->groups, tw->groups_bits);
            while (g == src_group || g == dst_group);
            inter = random_router_of(tw, g);
        }
        plan = freeze_plan(pk, inter);
    }
    return c_plan_walk(ks, rs, pk, plan, v);
}

/* Router.port_total_occ: output FIFO + downstream credits of one port. */
static inline int64_t
port_total_occ(const KState *ks, const RState *rs, int64_t port)
{
    int64_t gp = rs->pb + port, k = rs->kb + port * rs->max_vcs;
    int64_t occ = ks->out_occ[gp], nvc = ks->credit_nvc[gp], i;
    for (i = 0; i < nvc; i++)
        occ += ks->credits_used[k + i];
    return occ;
}

/* PiggyBack's saturation test, `occ > sum / n + t` in the reference's
 * own arithmetic: int / int true division, float addition, and an
 * int-to-float comparison that is exact for occupancies. */
static inline int
over_mean(int64_t occ, int64_t sum, int64_t n, double t)
{
    return (double)occ > (double)sum / (double)n + t;
}

/* The same test on live occupancies (_is_sat / _local_link_saturated):
 * is port `first + idx` of `rs` over the mean of ports
 * [first, first + n) by more than `t`? */
static int
live_over_mean(const KState *ks, const RState *rs, int64_t first, int64_t n,
               int64_t idx, double t)
{
    int64_t sum = 0, occ_idx = 0, i;
    for (i = 0; i < n; i++) {
        int64_t occ = port_total_occ(ks, rs, first + i);
        sum += occ;
        if (i == idx)
            occ_idx = occ;
    }
    return over_mean(occ_idx, sum, n, t);
}

/* PiggybackRouting._refresh: retake the group's snapshot rows when
 * the last one is at least `period` cycles old. */
static void
pb_refresh(KState *ks, int64_t group)
{
    const Twin *tw = &ks->twin;
    int64_t taken = ks->pb_snap_time[group], i, j;
    if (taken >= 0 && ks->now - taken < tw->pb_period)
        return;
    ks->pb_snap_time[group] = ks->now;
    for (i = 0; i < tw->a; i++) {
        const RState *r = &ks->routers[group * tw->a + i];
        int64_t sum = 0;
        for (j = 0; j < tw->h; j++) {
            int64_t occ = port_total_occ(ks, r, tw->first_global + j);
            ks->pb_snap[r->rid * tw->h + j] = occ;
            sum += occ;
        }
        ks->pb_snap_sum[r->rid] = sum;
    }
}

/* PiggybackRouting._saturated_global with `rs` the querier: its own
 * link live, anyone else's from the snapshot. */
static int
pb_saturated_global(KState *ks, const RState *rs, int64_t owner_pos,
                    int64_t j)
{
    const Twin *tw = &ks->twin;
    double t = tw->t_global;
    int64_t owner;
    if (owner_pos == rs->pos)
        return live_over_mean(ks, rs, tw->first_global, tw->h, j, t);
    pb_refresh(ks, rs->group);
    owner = ks->routers[rs->group * tw->a + owner_pos].rid;
    return over_mean(ks->pb_snap[owner * tw->h + j], ks->pb_snap_sum[owner],
                     tw->h, t);
}

/* PiggybackRouting._min_path_saturated for a packet leaving the group:
 * the gateway's global link flagged, or the local hop towards it. */
static int
pb_min_path_saturated(KState *ks, const RState *rs, int64_t dst_group)
{
    const Twin *tw = &ks->twin;
    int64_t delta = pymod(dst_group - rs->group, tw->groups);
    int64_t gw_pos = tw->gw_router[delta];
    if (pb_saturated_global(ks, rs, gw_pos,
                            tw->gw_port[delta] - tw->first_global))
        return 1;
    if (gw_pos == rs->pos)
        return 0;
    /* _local_link_saturated(router, topo.local_port(pos, gw_pos)) */
    return live_over_mean(ks, rs, tw->first_local, tw->a - 1,
                          (gw_pos < rs->pos) ? gw_pos : gw_pos - 1,
                          tw->t_local);
}

/* PiggybackRouting._nonmin_candidate: the Valiant intermediate router
 * into *inter, -1 when every candidate's global link is flagged.
 * Returns 1 — before drawing — where topo.gateway would raise on the
 * router's own group. */
static int
pb_nonmin_candidate(KState *ks, const RState *rs, const int64_t *pk,
                    int64_t dst_group, int64_t *inter)
{
    Twin *tw = &ks->twin;
    int64_t cnt = 0, n;
    if (tw->source == CRG) {
        cnt = crg_groups(tw, rs, dst_group);
        for (n = 0; n < cnt; n++)
            if (tw->cand[n] == rs->group)
                return 1;
    }
    else {
        int64_t src_group = pk[PK_SRC_GROUP];
        if (src_group != rs->group)
            return 1;
        for (n = 0; n < PB_PROBES; n++) {
            int64_t g =
                mt_randbelow(&tw->rng.mt, tw->groups, tw->groups_bits);
            if (g != src_group && g != dst_group)
                tw->cand[cnt++] = g;
        }
    }
    mt_shuffle(&tw->rng.mt, tw->cand, cnt);
    *inter = -1;
    for (n = 0; n < cnt; n++) {
        int64_t g = tw->cand[n];
        int64_t delta = pymod(g - rs->group, tw->groups);
        if (!pb_saturated_global(ks, rs, tw->gw_router[delta],
                                 tw->gw_port[delta] - tw->first_global)) {
            *inter = random_router_of(tw, g);
            break;
        }
    }
    return 0;
}

/* C twin of PiggybackRouting.decide + _choose_intermediate
 * (repro/routing/piggyback.py, the reference): the source decision on
 * the saturation bits — this router's links live, the rest of the group
 * from the snapshot rows of the SoA store, which PiggybackRouting reads
 * and writes too. */
static int
c_piggyback_decide(KState *ks, RState *rs, int64_t *pk, Verdict *v)
{
    int64_t plan = pk[PK_PLAN];

    if (plan == 0) {
        int64_t dst_group = pk[PK_DST_GROUP];
        int64_t inter = -1;
        /* intra-group minimal: nothing to divert */
        if (dst_group != rs->group
            && pb_min_path_saturated(ks, rs, dst_group)
            && pb_nonmin_candidate(ks, rs, pk, dst_group, &inter))
            return 1;
        plan = freeze_plan(pk, inter);
    }
    return c_plan_walk(ks, rs, pk, plan, v);
}

/* OLM (decide's credit-blocked trigger + _try_local_misroute of
 * intransit.py): `v` holds the minimal local hop of a packet that has
 * taken no local hop in this group yet; divert it through a third router
 * when that hop is credit-blocked.  Fills the purity / guard pair either
 * way. */
static int
c_olm(KState *ks, RState *rs, int64_t size, int64_t avoid_pos, Verdict *v)
{
    Twin *tw = &ks->twin;
    int64_t ck = rs->kb + v->port * rs->max_vcs + v->vc;
    int64_t gp = rs->pb + v->port;
    int64_t used = ks->credits_used[ck];
    int64_t best_port = -1;
    double best_frac;
    int n;

    if (!ks->credit_nvc[gp]) {
        v->guard = GUARD_STABLE;
        return 0;
    }
    v->guard = GUARD_CREDITS;
    v->g_idx = ck;
    v->g_val = used;
    /* Opportunistic: only when the minimal hop is blocked, and a group
     * of two has no third router (the sampler bails RNG-free). */
    if (!(used + size > ks->credit_cap[gp]) || tw->a < 3)
        return 0;
    if (ks->credit_cap[gp] == 0)
        return 1; /* the reference divides by it */
    v->pure = 0;
    v->guard = GUARD_EPOCH;
    best_frac = (double)used / (double)ks->credit_cap[gp];
    for (n = 0; n < OLM_PROBES; n++) {
        int64_t w = mt_randbelow(&tw->rng.mt, tw->a, tw->a_bits);
        int64_t port, pk, pg;
        double frac;
        if (w == rs->pos || w == avoid_pos)
            continue;
        port = tw->first_local + ((w < rs->pos) ? w : w - 1);
        pk = rs->kb + port * rs->max_vcs + v->vc;
        pg = rs->pb + port;
        if (ks->credit_nvc[pg]
            && ks->credits_used[pk] + size > ks->credit_cap[pg])
            continue;
        /* an unblocked port with credits has credit_cap >= size > 0 */
        frac = ks->credit_nvc[pg] ? (double)ks->credits_used[pk]
                                        / (double)ks->credit_cap[pg]
                                  : 0.0;
        if (frac < best_frac) {
            best_frac = frac;
            best_port = port;
        }
    }
    if (best_port >= 0) {
        /* same stage VC; the corrective hop will use the escape VC */
        v->port = best_port;
        v->action = 2;
    }
    return 0;
}

/* Stage + escape VC for a hop outside the destination group
 * (repro.routing.vc.stage_local_vc / stage_global_vc).  Returns 1 where
 * stage_global_vc raises. */
static inline int
stage_vc(const Twin *tw, int64_t port, int64_t gh, int64_t glh, int64_t *vc)
{
    if (port >= tw->first_global) {
        *vc = gh;
        return gh >= tw->n_global_vcs;
    }
    if (glh >= 1)
        *vc = tw->n_local_vcs - 1;
    else
        *vc = (gh >= 1) ? 1 : 0;
    return 0;
}

/* The candidate scan of _try_global_misroute: keep the least-occupied
 * first hop that is strictly better than `best_occ` and not
 * credit-blocked.  Raw occupancies order as the reference's out_frac
 * fractions do: every output FIFO has the same capacity. */
typedef struct {
    int64_t best_occ, best_port, best_vc, best_inter;
    int64_t local_vc, size;
    int skip_local;
} Scan;

static inline void
scan_candidate(KState *ks, RState *rs, const Twin *tw, Scan *sc,
               int64_t port, int64_t inter_group)
{
    int64_t vc, gp = rs->pb + port;
    if (port < tw->first_global) {
        if (sc->skip_local)
            return;
        vc = sc->local_vc;
    }
    else
        vc = 0;
    if (ks->out_occ[gp] >= sc->best_occ)
        return;
    if (ks->credit_nvc[gp]
        && ks->credits_used[rs->kb + port * rs->max_vcs + vc] + sc->size
               > ks->credit_cap[gp])
        return;
    sc->best_occ = ks->out_occ[gp];
    sc->best_port = port;
    sc->best_vc = vc;
    sc->best_inter = inter_group;
}

/* C twin of InTransitAdaptiveRouting.decide and the helpers it calls,
 * _try_global_misroute and _try_local_misroute
 * (repro/routing/intransit.py, the reference): same branches in the same
 * order, the same congestion
 * counters read, and — through the in-kernel rng_routing mirror — the
 * same words drawn from the same stream.  The randomised candidate
 * generators (misrouting.nrg_candidates / rrg_candidates) and the CRG
 * filter are fused with the scan; the scan draws nothing, so generating
 * and judging a candidate in one step leaves the stream as the
 * generate-all-then-scan reference does. */
static int
c_intransit_decide(KState *ks, RState *rs, int64_t *pk, Verdict *v)
{
    Twin *tw = &ks->twin;
    int64_t group = rs->group, pos = rs->pos;
    int64_t dst_group = pk[PK_DST_GROUP];
    int64_t glh = pk[PK_GROUP_LOCAL_HOPS];
    int64_t gh, inter, src_group, size, gw_pos;

    v->action = v->aux = 0;
    v->pure = 1;
    v->guard = GUARD_STABLE;

    /* Destination group: minimal local hop (or ejection), with OLM. */
    if (group == dst_group) {
        int64_t ti;
        if (rs->rid == pk[PK_DST_ROUTER]) {
            v->port = pk[PK_DST_NODE_PORT];
            v->vc = 0;
            return 0;
        }
        ti = pk[PK_DST_LOCAL_ROUTER];
        v->port = tw->first_local + ((ti < pos) ? ti : ti - 1);
        v->vc = (glh >= 1) ? tw->n_local_vcs - 1 : 2;
        if (glh == 0)
            return c_olm(ks, rs, pk[PK_SIZE], ti, v);
        return 0;
    }

    gh = pk[PK_GLOBAL_HOPS];
    inter = pk[PK_INTER_GROUP];

    /* Committed diversion: minimal towards the intermediate group. */
    if (inter >= 0) {
        v->port = gateway_hop(tw, pos, pymod(inter - group, tw->groups),
                              &gw_pos);
        return stage_vc(tw, v->port, gh, glh, &v->vc);
    }

    /* Minimal phase towards the destination group. */
    v->port = gateway_hop(tw, pos, pymod(dst_group - group, tw->groups),
                          &gw_pos);
    if (stage_vc(tw, v->port, gh, glh, &v->vc))
        return 1;

    src_group = pk[PK_SRC_GROUP];
    if (group == src_group && gh == 0) {
        /* PAR: global misrouting at injection or after one local hop. */
        int64_t gmin = rs->pb + v->port;
        Scan sc;
        int code, n;
        sc.size = size = pk[PK_SIZE];
        if (glh == 0) {
            /* Source router: proactive trigger on the output FIFO. */
            sc.best_occ = ks->out_occ[gmin];
            if (sc.best_occ < tw->thr_occ) {
                v->guard = GUARD_OUT_OCC;
                v->g_idx = gmin;
                v->g_val = sc.best_occ;
                return 0;
            }
            code = tw->source;
        }
        else {
            /* Second decision point: only when credit-blocked outright. */
            int64_t mk = rs->kb + v->port * rs->max_vcs + v->vc;
            int64_t used = ks->credits_used[mk];
            if (!(ks->credit_nvc[gmin]
                  && used + size > ks->credit_cap[gmin])) {
                if (ks->credit_nvc[gmin]) {
                    v->guard = GUARD_CREDITS;
                    v->g_idx = mk;
                    v->g_val = used;
                }
                return 0;
            }
            sc.best_occ = ks->out_cap[gmin]; /* sentinel: frac < 1.0 */
            code = tw->transit;
        }
        if (code == NRG && (tw->a < 2 || tw->h < 1))
            return 1; /* randrange(0) raises in nrg_candidates */
        sc.local_vc = (glh >= 1) ? tw->n_local_vcs - 1 : 0;
        sc.skip_local = (glh >= 2); /* third local hop forbidden */
        sc.best_port = -1;
        sc.best_vc = sc.best_inter = 0;
        if (code == CRG) { /* this router's own global links */
            const int64_t *port = tw->go_port + pos * tw->h;
            const int64_t *off = tw->go_off + pos * tw->h;
            for (n = 0; n < tw->h; n++) {
                int64_t peer = pymod(group + off[n], tw->groups);
                if (peer != dst_group && peer != src_group)
                    scan_candidate(ks, rs, tw, &sc, port[n], peer);
            }
        }
        else if (code == NRG) { /* via other routers of this group */
            for (n = 0; n < SAMPLE_K; n++) {
                int64_t w = mt_randbelow(&tw->rng.mt, tw->a - 1,
                                         tw->am1_bits);
                int64_t j, peer;
                if (w >= pos)
                    w += 1;
                j = mt_randbelow(&tw->rng.mt, tw->h, tw->h_bits);
                peer = pymod(group + tw->go_off[w * tw->h + j], tw->groups);
                if (peer == dst_group || peer == src_group)
                    continue;
                scan_candidate(ks, rs, tw, &sc,
                               tw->first_local + ((w < pos) ? w : w - 1),
                               peer);
            }
        }
        else { /* RRG: any group */
            for (n = 0; n < SAMPLE_K; n++) {
                int64_t tg = mt_randbelow(&tw->rng.mt, tw->groups,
                                          tw->groups_bits);
                int64_t unused;
                if (tg == group || tg == dst_group || tg == src_group)
                    continue;
                scan_candidate(ks, rs, tw, &sc,
                               gateway_hop(tw, pos,
                                           pymod(tg - group, tw->groups),
                                           &unused),
                               tg);
            }
        }
        v->pure = (code == CRG);
        v->guard = GUARD_EPOCH; /* full candidate scan consulted */
        if (sc.best_port >= 0) {
            v->port = sc.best_port;
            v->vc = sc.best_vc;
            v->action = 1;
            v->aux = sc.best_inter;
        }
        return 0;
    }
    /* Intermediate group: OLM on the hop towards the gateway.  (A
     * minimal global hop reads no congestion state: stable.) */
    if (v->port < tw->first_global && glh == 0)
        return c_olm(ks, rs, pk[PK_SIZE], gw_pos, v);
    return 0;
}

/* routing.decide(pkt, router) in Python, as a Verdict owning the tuple:
 * a contract hook, given the Packet of head `row`.  When a twin stands in
 * for it this is the raising-branch fallback: the reference must see (and
 * may advance) the RNG streams the kernel holds, so they are handed back
 * around the call, and it finds the row as the twin left it. */
static int
py_decide(KState *ks, RState *rs, int32_t row, Verdict *v)
{
    PyObject *pkt = row_obj(ks, row), *dec, *et, *ev, *tb;
    int rc = 0;
    ks->ctr[C_DECIDE] += 1;
    if (pkt == NULL || sync_eq(ks) < 0
        || (rs->twin != TWIN_NONE && kstate_rng_out(ks) < 0))
        return -1;
    dec = call2(rs->decide, pkt, rs->router);
    PyErr_Fetch(&et, &ev, &tb);
    if ((rs->twin != TWIN_NONE && kstate_rng_in(ks) < 0)
        || absorb_inbox(ks) < 0 || row_load(ks, row, pkt) < 0)
        rc = -1;
    if (et != NULL) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
        rc = -1;
    }
    if (rc < 0) {
        Py_XDECREF(dec);
        return -1;
    }
    return verdict_from_py(ks, dec, v);
}

/* The decision for the head of input FIFO `iq` (non-empty), into `v`
 * (which then owns v->dec): the memo's while its guard holds, else a
 * fresh decide — the twin, or the Python method.  A twin's decision is
 * memoized where deciding again would provably return it without a draw:
 * MIN always, oblivious / PiggyBack once the plan is frozen, in-transit
 * when the twin drew nothing (under the guard it handed back).  A Python
 * decide() is never memoized.  `epoch` is the router's congestion epoch
 * read at scan start. */
static int
cached_or_decide(KState *ks, RState *rs, InQ *iq, int64_t epoch, Verdict *v)
{
    Memo *m = &iq->memo;
    int32_t row = iq->head; /* the ring's: a hook can only append */
    int64_t *pk;
    int deferred, store = 0;
#ifndef NDEBUG
    /* a memo is its head's, and the head's row was not recycled under it */
    if (m->row >= 0 && (m->row != row || m->gen != ks->pool.gen[row])) {
        PyErr_Format(PyExc_SystemError, "router %lld: the memo of input key "
                     "%lld names row %d generation %u, its head is row %d "
                     "generation %u", (long long)rs->rid,
                     (long long)(iq - ks->inq - rs->kb), (int)m->row,
                     (unsigned)m->gen, (int)row, (unsigned)ks->pool.gen[row]);
        return -1;
    }
#endif
    if (m->row == row) {
        const Verdict *mv = &m->v;
        if (mv->guard == GUARD_STABLE
            || (mv->guard == GUARD_EPOCH
                    ? mv->g_val == epoch
                    : (mv->guard == GUARD_CREDITS ? ks->credits_used
                                                  : ks->out_occ)[mv->g_idx]
                          == mv->g_val)) {
            *v = *mv;
            ks->ctr[C_MEMO_HITS] += 1;
            return 0;
        }
    }
    v->dec = NULL;
    pk = PK(ks, row);
    switch (rs->twin) {
    case TWIN_MIN:
        deferred = c_min_decide(ks, rs, pk, v);
        store = 1;
        break;
    case TWIN_OBLIVIOUS:
        deferred = c_oblivious_decide(ks, rs, pk, v);
        store = pk[PK_PLAN] != 0;
        break;
    case TWIN_PIGGYBACK:
        deferred = c_piggyback_decide(ks, rs, pk, v);
        store = pk[PK_PLAN] != 0;
        break;
    case TWIN_INTRANSIT:
        deferred = c_intransit_decide(ks, rs, pk, v);
        store = v->pure;
        break;
    default: /* TWIN_NONE */
        deferred = 1;
        break;
    }
    if (deferred)
        return (deferred < 0) ? -1 : py_decide(ks, rs, row, v);
    if (store) {
        m->row = row;
        m->gen = ks->pool.gen[row];
        m->v = *v;
        if (v->guard == GUARD_EPOCH)
            m->v.g_val = epoch;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* phase handlers                                                      */
/* ------------------------------------------------------------------ */

/* Grant the head of input `key` (flat `gk`) to `out_port` (flat `gout`).
 * (An error drops the packet, as a raise in the Python _commit does.) */
static int
c_commit(KState *ks, RState *rs, int64_t out_port, int64_t gout,
         int64_t key, Py_ssize_t gk, const Verdict *v, int64_t now)
{
    int64_t in_port = key / rs->max_vcs;
    int64_t gin = rs->pb + in_port;
    InQ *iq = &ks->inq[gk];
    int64_t size = iq->size, *pk;
    int32_t row = inq_pop(iq); /* the OP_OUT_ARRIVE record's, below */
    iq->memo.row = -1; /* head changed: decision no longer valid */
    /* an injection key stays active while its tail holds pairs: the
     * next scan promotes the first */
    if (iq->head < 0
        && (key >= rs->boundary || node_tail(ks, rs, in_port)->len == 0)
        && ak_discard(ks, rs, key) < 0)
        return -1;
    ks->epoch[rs->rid] += 1;
    ks->in_port_free[gin] = now + rs->internal;
    ks->switch_free[gout] = now + rs->internal;
    ks->out_occ[gout] += size;

    if (in_port < rs->num_node_ports) {
        PK(ks, row)[PK_INJECT_TIME] = now;
        if (ks->low.gen != NULL) {
            /* inlined StatsCollector.on_injection (rs->on_injection) */
            LState *ls = &ks->low;
            ls->si[SI_TOTAL_INJECTED] += 1;
            if (now >= ls->ws && now < ls->we)
                ls->inj_router[rs->rid] += 1;
        }
        else {
            PyObject *now_o = now_obj(ks, now);
            if (now_o == NULL
                || call_hook(ks, C_INJECTION, rs->on_injection, rs->rid_obj,
                             now_o) < 0)
                return -1;
        }
    }
    else {
        pk = PK(ks, row);
        pk[ks->local_in[gin] ? PK_WAIT_LOCAL : PK_WAIT_GLOBAL] +=
            now - pk[PK_T_ENQ];
        ks->in_occ[gk] -= size;
        if (ks->in_occ[gk] < 0) {
            PyErr_Format(ks->flow_err,
                         "router %lld: negative input occupancy "
                         "port %lld vc %lld",
                         (long long)rs->rid, (long long)in_port,
                         (long long)(key - in_port * rs->max_vcs));
            return -1;
        }
        /* credit return to the upstream router */
        if (ks->up_rid[gin] >= 0
            && cal_post(ks, now + rs->internal + ks->link_lat[gin],
                        REC(OP_CREDIT, ks->up_rid[gin], ks->up_port[gin],
                            key - in_port * rs->max_vcs, size)) < 0)
            return -1;
    }

    if (ks->credit_nvc[gout]) {
        int64_t ck = rs->kb + out_port * rs->max_vcs + v->vc;
        ks->credits_used[ck] += size;
        if (ks->credits_used[ck] > ks->credit_cap[gout]) {
            PyErr_Format(ks->flow_err,
                         "router %lld: credit overcommit on port "
                         "%lld vc %lld",
                         (long long)rs->rid, (long long)out_port,
                         (long long)v->vc);
            return -1;
        }
    }

    /* the hop ledger and the diversion bind */
    pk = PK(ks, row);
    if (ks->local_in[gout]) {
        pk[PK_LOCAL_HOPS] += 1;
        if (++pk[PK_GROUP_LOCAL_HOPS] > 2) {
            PyErr_Format(ks->routing_err,
                         "packet %lld took a third local hop in group "
                         "%lld; VC safety would be violated",
                         (long long)pk[PK_PID], (long long)rs->group);
            return -1;
        }
    }
    else if (ks->global_out[gout])
        pk[PK_GLOBAL_HOPS] += 1;
    if (v->action == 1)
        pk[PK_INTER_GROUP] = v->aux;
    pk[PK_SERVICE_SUM] += ks->hop_cost[gout];
    /* switch traversal -> OP_OUT_ARRIVE after the pipeline latency */
    return cal_post(ks, now + rs->pipe_lat,
                    REC(OP_OUT_ARRIVE, rs->rid, out_port, v->vc, row));
}

/* The consolidated allocation pass (kernel.step).  The Python kernel's
 * single-head fast path is by construction byte-identical to the
 * general scan restricted to one key, so only the general scan exists
 * here. */
static int
c_step(KState *ks, RState *rs, int64_t now)
{
    Py_ssize_t n_act, n_dead = 0, n_cand = 0, n_ports = 0;
    int64_t next_time = -1; /* -1 = None */
    int granted = 0, td_active = 0;
    int64_t epoch = ks->epoch[rs->rid];
    const KeyIndex *ix = &rs->ix;
    Py_ssize_t i, w;
    uint64_t bits;
    int rc = -1;

    rs->arb = ARB_NONE;
    if (ix->used == 0)
        return 0;

    /* Snapshot the active keys in the set's own iteration order (the
     * Python kernel iterates the live set; nothing mutates it during
     * the scan, so the snapshot order is identical): the index's live
     * slots, in slot order. */
    for (n_act = 0, w = 0; w <= ix->mask >> 6; w++)
        for (bits = ix->live[w]; bits; bits &= bits - 1)
            ks->scr_keys[n_act++] = ix->slot[(w << 6) + __builtin_ctzll(bits)];
    ks->ctr[C_STEPS] += 1;
    ks->ctr[C_SCAN_KEYS] += n_act;
#ifndef NDEBUG
    { /* debug builds: the snapshot against the set's own iterator */
        Py_ssize_t pos = 0;
        PyObject *k;
        Py_hash_t hash;
        for (i = 0; i >= 0 && _PySet_NextEntry(rs->active_keys, &pos, &k,
                                                &hash);)
            i = (i < n_act && as_ll(k) == ks->scr_keys[i]) ? i + 1 : -1;
        if (i != n_act) {
            PyErr_Format(PyExc_SystemError, "router %lld: the active-key "
                         "index diverged from its set", (long long)rs->rid);
            return -1;
        }
    }
#endif
    memset(ks->td_mask, 0, (size_t)rs->radix);

    for (i = 0; i < n_act; i++) {
        int64_t key = ks->scr_keys[i];
        Py_ssize_t gk = (Py_ssize_t)(rs->kb + key);
        InQ *iq = &ks->inq[gk];
        int is_transit;
        int64_t t_free, out_port, gout, t_sw, size;
        Verdict v;
        if (iq->head < 0) {
            if (key >= rs->boundary
                || node_tail(ks, rs, key / rs->max_vcs)->len == 0) {
                ks->scr_dead[n_dead++] = key;
                continue;
            }
            if (promote(ks, rs, iq, key / rs->max_vcs) < 0)
                goto done;
        }
#ifndef NDEBUG
        if (iq->head != iq->ring.e[iq->ring.head].row
            || iq->size != iq->ring.e[iq->ring.head].t_arr
            || iq->size != PK(ks, iq->head)[PK_SIZE]) {
            PyErr_Format(PyExc_SystemError, "router %lld key %lld: the "
                         "cached head or size diverged from its FIFO",
                         (long long)rs->rid, (long long)key);
            goto done;
        }
#endif
        is_transit = (key >= rs->boundary);
        t_free = ks->in_port_free[ks->key_port[gk]];
        if (t_free > now) {
            if (next_time < 0 || t_free < next_time)
                next_time = t_free;
            if (is_transit && rs->transit_priority) {
                /* still assert this head's demand for priority masking */
                if (cached_or_decide(ks, rs, iq, epoch, &v) < 0)
                    goto done;
                Py_XDECREF(v.dec);
                ks->td_mask[v.port] = 1;
                td_active = 1;
            }
            continue;
        }
        if (cached_or_decide(ks, rs, iq, epoch, &v) < 0)
            goto done;
        out_port = v.port;
        if (is_transit && rs->transit_priority) {
            ks->td_mask[out_port] = 1;
            td_active = 1;
        }
        gout = rs->pb + out_port;
        t_sw = ks->switch_free[gout];
        size = iq->size;
        if (t_sw > now) {
            if (next_time < 0 || t_sw < next_time)
                next_time = t_sw;
        }
        else if (!(ks->out_occ[gout] + size > ks->out_cap[gout]
                   || (ks->credit_nvc[gout]
                       && ks->credits_used[rs->kb + out_port * rs->max_vcs
                                           + v.vc] + size
                              > ks->credit_cap[gout]))) {
            /* candidate: chain it on its output port in first-seen order
             * (the array holds the decision's reference until cleanup;
             * the head stays its FIFO's until c_commit pops it) */
            ks->c_key[n_cand] = key;
            ks->c_v[n_cand] = v;
            ks->c_next[n_cand] = -1;
            if (ks->port_first[out_port] < 0) {
                ks->port_first[out_port] = n_cand;
                ks->order_ports[n_ports++] = out_port;
            }
            else
                ks->c_next[ks->port_last[out_port]] = n_cand;
            ks->port_last[out_port] = n_cand;
            n_cand++;
            continue;
        }
        /* else: woken by release_output / release_credit */
        Py_XDECREF(v.dec);
    }

    for (i = 0; i < n_dead; i++) {
        if (ak_discard(ks, rs, ks->scr_dead[i]) < 0)
            goto done;
    }

    for (i = 0; i < n_ports; i++) {
        int64_t out_port = ks->order_ports[i];
        int64_t gout = rs->pb + out_port;
        Py_ssize_t n_f = 0, w;
        int64_t c;
        int masked = td_active && ks->td_mask[out_port];
        /* filter: an earlier grant may have consumed the input port;
         * strict priority masks injection requests */
        for (c = ks->port_first[out_port]; c >= 0; c = ks->c_next[c]) {
            if (ks->in_port_free[ks->key_port[rs->kb + ks->c_key[c]]] > now)
                continue;
            if (masked && ks->c_key[c] < rs->boundary)
                continue;
            ks->f_idx[n_f++] = c;
        }
        if (n_f == 0)
            continue;
        if (n_f == 1)
            w = ks->f_idx[0];
        else {
            /* select_winner: rotating round-robin from last_grant,
             * transit candidates outranking injections when the
             * priority is on */
            int64_t nkeys = rs->nkeys;
            int64_t base = ks->last_grant[gout] + 1;
            int64_t best = -1, best_d = nkeys;
            int64_t best_t = -1, best_t_d = nkeys;
            Py_ssize_t j;
            for (j = 0; j < n_f; j++) {
                int64_t ck = ks->c_key[ks->f_idx[j]];
                int64_t d = (ck - base) % nkeys;
                if (d < 0)
                    d += nkeys;
                if (d < best_d) {
                    best_d = d;
                    best = ks->f_idx[j];
                    if (rs->transit_priority && ck >= rs->boundary) {
                        best_t_d = d;
                        best_t = ks->f_idx[j];
                    }
                }
                else if (rs->transit_priority && d < best_t_d
                         && ck >= rs->boundary) {
                    best_t_d = d;
                    best_t = ks->f_idx[j];
                }
            }
            w = (best_t >= 0) ? best_t : best;
        }
        ks->last_grant[gout] = ks->c_key[w];
        if (c_commit(ks, rs, out_port, gout, ks->c_key[w],
                     (Py_ssize_t)(rs->kb + ks->c_key[w]), &ks->c_v[w],
                     now) < 0)
            goto done;
        granted = 1;
    }

    if (next_time < 0 && granted && ix->used > 0)
        next_time = now + 1;
    rc = (next_time >= 0) ? arm_step(ks, rs, next_time) : 0;

done:
    for (i = 0; i < n_cand; i++)
        Py_XDECREF(ks->c_v[i].dec);
    /* reset the per-port chains we touched */
    for (i = 0; i < n_ports; i++)
        ks->port_first[ks->order_ports[i]] = -1;
    return rc;
}

static int
c_arrive(KState *ks, RState *rs, int64_t port, int64_t vc, int32_t row,
         int64_t now)
{
    int64_t key = port * rs->max_vcs + vc;
    Py_ssize_t gk = (Py_ssize_t)(rs->kb + key);
    int64_t *pk = PK(ks, row), wake, size = pk[PK_SIZE];
    if (PyList_GET_ITEM(ks->in_q, gk) == Py_None) {
        PyErr_Format(ks->flow_err,
                     "router %lld: arrival on invalid VC (port %lld, "
                     "vc %lld)",
                     (long long)rs->rid, (long long)port, (long long)vc);
        return -1;
    }
    ks->in_occ[gk] += size;
    if (ks->in_occ[gk] > ks->in_cap[gk]) {
        PyErr_Format(ks->flow_err,
                     "router %lld: input buffer overflow on port %lld "
                     "vc %lld: %lld > %lld",
                     (long long)rs->rid, (long long)port, (long long)vc,
                     (long long)ks->in_occ[gk], (long long)ks->in_cap[gk]);
        return -1;
    }
    pk[PK_T_ENQ] = now;
    /* group transitions and source-routed plan updates */
    if (rs->group != pk[PK_CURRENT_GROUP]) {
        pk[PK_CURRENT_GROUP] = rs->group;
        pk[PK_GROUP_LOCAL_HOPS] = 0;
        if (pk[PK_INTER_GROUP] == rs->group)
            pk[PK_INTER_GROUP] = -1; /* intermediate group reached */
    }
    if (pk[PK_PLAN] == 2 && rs->rid == pk[PK_INTER_ROUTER])
        pk[PK_PLAN] = 1; /* intermediate router reached */
    if (inq_push(&ks->inq[gk], row, size) < 0 || ak_add(ks, rs, key) < 0)
        return -1;
    wake = ks->in_port_free[rs->pb + port];
    if (wake < now)
        wake = now;
    return arm_step(ks, rs, wake);
}

static int
c_send(KState *ks, RState *rs, int64_t port, int64_t now)
{
    int64_t gp = rs->pb + port;
    Ring *fifo = &ks->rings[gp];
    FifoEnt e;
    int64_t *pk, size, free_t;
    if (fifo->len == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty output fifo");
        return -1;
    }
    e = fifo->e[fifo->head]; /* its row moves on to a record below */
    fifo->head = (fifo->head + 1) & (fifo->cap - 1);
    fifo->len -= 1;
    pk = PK(ks, e.row);
    pk[ks->global_out[gp] ? PK_WAIT_GLOBAL : PK_WAIT_LOCAL] += now - e.t_arr;
    size = pk[PK_SIZE];
    free_t = now + size;
    ks->link_free[gp] = free_t;
    if (fifo->len == 0)
        ks->out_pumping[gp] = 0;
    /* a busy link merges the tail release with the next transmission */
    if (cal_post(ks, free_t,
                 REC(fifo->len ? OP_LINK : OP_RELEASE, rs->rid, port, size,
                     0)) < 0)
        return -1;
    return cal_post(ks, free_t + ks->link_lat[gp],
                    ks->peer_rid[gp] < 0
                        ? REC(OP_DELIVER, REC_NONE, 0, 0, e.row)
                        : REC(OP_ARRIVE, ks->peer_rid[gp], ks->peer_port[gp],
                              e.vc, e.row));
}

static int
c_output_enqueue(KState *ks, RState *rs, int64_t port, int32_t row,
                 int64_t vc, int64_t now)
{
    int64_t gp = rs->pb + port;
    int64_t dep;
    if (ring_push(&ks->rings[gp], row, vc, now) < 0)
        return -1;
    if (ks->out_pumping[gp])
        return 0;
    dep = ks->link_free[gp];
    if (dep < now)
        dep = now;
    ks->out_pumping[gp] = 1;
    return cal_post(ks, dep, REC(OP_SEND, rs->rid, port, 0, 0));
}

static int
c_release_output(KState *ks, RState *rs, int64_t port, int64_t size,
                 int64_t now)
{
    int64_t gp = rs->pb + port;
    ks->epoch[rs->rid] += 1;
    ks->out_occ[gp] -= size;
    if (ks->out_occ[gp] < 0) {
        PyErr_Format(ks->flow_err,
                     "router %lld: negative output occupancy port %lld",
                     (long long)rs->rid, (long long)port);
        return -1;
    }
    return arm_step(ks, rs, now);
}

static int
c_release_credit(KState *ks, RState *rs, int64_t port, int64_t vc,
                 int64_t size, int64_t now)
{
    int64_t ck = rs->kb + port * rs->max_vcs + vc;
    ks->epoch[rs->rid] += 1;
    ks->credits_used[ck] -= size;
    if (ks->credits_used[ck] < 0) {
        PyErr_Format(ks->flow_err,
                     "router %lld: negative credits port %lld vc %lld",
                     (long long)rs->rid, (long long)port, (long long)vc);
        return -1;
    }
    return arm_step(ks, rs, now);
}

/* ------------------------------------------------------------------ */
/* dispatch                                                            */
/* ------------------------------------------------------------------ */

/* A callback record (OP_CALL, fn, args) kept as its tuple, run exactly as
 * py_drain runs it: fn(*args).  Arbitrary code: the whole state is
 * mirrored out around it.  It is record `taken` - 1 of the cycle-`t`
 * bucket: the ones before it, run already, come back in whole. */
static int
dispatch_tuple(KState *ks, PyObject *rec, int64_t t, Py_ssize_t taken)
{
    PyObject *fn, *args, *res = NULL, *et, *ev, *tb;
    ks->ctr[C_CALL] += 1;
    ks->cal.cur = -1; /* until the state is back in: nothing to finish */
    if (mirror_out(ks) < 0)
        return -1;
    /* owned, as py_drain's loop variable is: the callback may drop the
     * record from its bucket */
    Py_INCREF(rec);
    if ((fn = PyTuple_GetItem(rec, 1)) != NULL
        && (args = PyTuple_GetItem(rec, 2)) != NULL)
        res = PyObject_Call(fn, args, NULL);
    Py_DECREF(rec);
    /* back in, keeping the callback's exception over a mirror's own */
    PyErr_Fetch(&et, &ev, &tb);
    ks->cal.keep_t = t;
    ks->cal.keep = taken;
    if (mirror_in(ks) == 0)
        /* the bucket being drained was rebuilt with the rest */
        ks->cal.cur = cal_find(&ks->cal, t);
    ks->cal.keep = 0;
    if (et != NULL) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    else if (ks->cal.cur < 0 && !PyErr_Occurred())
        PyErr_SetString(PyExc_RuntimeError,
                        "a callback removed the bucket being drained");
    Py_XDECREF(res);
    return (res == NULL || ks->cal.cur < 0) ? -1 : 0;
}

static int
dispatch(KState *ks, const Rec *rec, int64_t t, Py_ssize_t taken,
         Py_ssize_t *extra)
{
    RState *rs;
    PyObject *o;
    if (rec->op == OP_LINK)
        *extra += 1; /* weight 2 */
    if (rec->rid == REC_TUPLE) {
        PyObject *tup = rec->u.obj;
        if (rec->op == OP_CALL)
            return dispatch_tuple(ks, tup, t, taken);
        PyErr_Format(ks->flow_err, "activation record %R (opcode %d, "
                     "target %R): not a router of the store, a field "
                     "that is not an in-range int, or a packet that is not "
                     "a Packet with int64 fields", tup, (int)rec->op,
                     PyTuple_GET_SIZE(tup) > 1 ? PyTuple_GET_ITEM(tup, 1)
                                               : Py_None);
        return -1;
    }
    if (rec->op == OP_GEN) {
        int rc;
        if (ks->low.gen != NULL)
            return c_gen(ks, &ks->low, rec->a, t);
        if ((o = PyLong_FromLong(rec->a)) == NULL)
            return -1;
        rc = call_hook(ks, C_GEN, slot_get(ks->eq, ks->eq_gen), o, NULL);
        Py_DECREF(o);
        return rc;
    }
    if (rec->op == OP_DELIVER) {
        if (ks->low.gen != NULL)
            return c_deliver(ks, &ks->low, (int32_t)rec->u.c, t);
        if ((o = now_obj(ks, t)) == NULL)
            return -1;
        return call_pkt_hook(ks, C_SINK, slot_get(ks->eq, ks->eq_sink),
                             (int32_t)rec->u.c, o);
    }
    rs = &ks->routers[rec->rid];
    switch (rec->op) {
    case OP_STEP:
        if (rs->arb != t)
            return 0; /* stale token (superseded arming) */
        rs->arb = ARB_NONE;
        if (rs->ix.used == 0)
            return 0; /* a release woke an idle router */
        return c_step(ks, rs, t);
    case OP_OUT_ARRIVE:
        return c_output_enqueue(ks, rs, rec->a, (int32_t)rec->u.c, rec->b, t);
    case OP_ARRIVE:
        return c_arrive(ks, rs, rec->a, rec->b, (int32_t)rec->u.c, t);
    case OP_CREDIT:
        return c_release_credit(ks, rs, rec->a, rec->b, rec->u.c, t);
    case OP_RELEASE:
        return c_release_output(ks, rs, rec->a, rec->b, t);
    case OP_SEND:
        return c_send(ks, rs, rec->a, t);
    case OP_LINK: /* tail release + next transmission */
        if (c_release_output(ks, rs, rec->a, rec->b, t) < 0)
            return -1;
        return c_send(ks, rs, rec->a, t);
    default:
        PyErr_SetString(PyExc_RuntimeError, "unknown activation opcode");
        return -1;
    }
}

/* ------------------------------------------------------------------ */
/* KState construction                                                 */
/* ------------------------------------------------------------------ */

/* decide_twin's answers and the twin each names. */
static const struct {
    const char *name;
    int kind;
} TWIN_KINDS[] = {
    {"min", TWIN_MIN},
    {"oblivious", TWIN_OBLIVIOUS},
    {"piggyback", TWIN_PIGGYBACK},
    {"in-transit", TWIN_INTRANSIT},
};

/* topo.global_out[pos] = [(port, group offset)] * h, in port order, as
 * two flat a*h tables (the list is read with the twin's other rows). */
static int
twin_read_global_out(Twin *tw)
{
    PyObject *go = tw->global_out;
    Py_ssize_t i, j;
    tw->go_port = PyMem_Malloc((size_t)(tw->a * tw->h + 1) * sizeof(int64_t));
    tw->go_off = PyMem_Malloc((size_t)(tw->a * tw->h + 1) * sizeof(int64_t));
    if (tw->go_port == NULL || tw->go_off == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (PyList_GET_SIZE(go) != tw->a)
        goto bad_table;
    for (i = 0; i < tw->a; i++) {
        PyObject *row = PyList_GET_ITEM(go, i);
        if (!PyList_Check(row) || PyList_GET_SIZE(row) != tw->h)
            goto bad_table;
        for (j = 0; j < tw->h; j++) {
            PyObject *pair = PyList_GET_ITEM(row, j);
            if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2)
                goto bad_table;
            tw->go_port[i * tw->h + j] = as_ll(PyTuple_GET_ITEM(pair, 0));
            tw->go_off[i * tw->h + j] = as_ll(PyTuple_GET_ITEM(pair, 1));
        }
    }
    return PyErr_Occurred() ? -1 : 0;

bad_table:
    PyErr_SetString(PyExc_TypeError,
                    "topo.global_out is not an a x h table of pairs");
    return -1;
}

/* routing.<...>: the constants the decide twins run on; a row naming
 * twins is read for those only (all but MIN draw and read global links). */
#define DRAWING                                                         \
    ((1 << TWIN_OBLIVIOUS) | (1 << TWIN_PIGGYBACK) | (1 << TWIN_INTRANSIT))
static const Attr TWIN_ATTRS[] = {
    {"topo.a", offsetof(Twin, a), A_I64},
    {"topo.h", offsetof(Twin, h), A_I64},
    {"topo.groups", offsetof(Twin, groups), A_I64},
    {"topo.first_local_port", offsetof(Twin, first_local), A_I64},
    {"topo.first_global_port", offsetof(Twin, first_global), A_I64},
    {"n_local_vcs", offsetof(Twin, n_local_vcs), A_I64},
    {"n_global_vcs", offsetof(Twin, n_global_vcs), A_I64},
    {"topo.gw_router_by_delta", offsetof(Twin, gw_router), A_INTS, L_GROUPS},
    {"topo.gw_port_by_delta", offsetof(Twin, gw_port), A_INTS, L_GROUPS},
    {"topo.global_out", offsetof(Twin, global_out), A_LIST, L_ANY, DRAWING},
    {"rng", offsetof(Twin, rng.rng), A_OBJ, L_ANY, DRAWING},
    {"mechanism.source", offsetof(Twin, source), A_I64, L_ANY, DRAWING},
    {"mechanism.transit", offsetof(Twin, transit), A_I64, L_ANY,
     1 << TWIN_INTRANSIT},
    {"t_local", offsetof(Twin, t_local), A_F64, L_ANY, 1 << TWIN_PIGGYBACK},
    {"t_global", offsetof(Twin, t_global), A_F64, L_ANY, 1 << TWIN_PIGGYBACK},
    {"period", offsetof(Twin, pb_period), A_I64, L_ANY, 1 << TWIN_PIGGYBACK},
    {"threshold", offsetof(Twin, threshold), A_F64, L_ANY,
     1 << TWIN_INTRANSIT},
};

/* Resolve the decide twin of *routing* (repro.routing.factory
 * .decide_twin is the one statement of the selection rule) and read the
 * constants it runs on.  A mechanism without a twin leaves kind ==
 * TWIN_NONE. */
static int
twin_build(KState *ks, PyObject *routing)
{
    Twin *tw = &ks->twin;
    PyObject *mod, *name;
    size_t i;
    int kind = TWIN_NONE;

    tw->routing = Py_NewRef(routing);
    tw->kind = TWIN_NONE;
    mod = PyImport_ImportModule("repro.routing.factory");
    if (mod == NULL)
        return -1;
    name = PyObject_CallMethod(mod, "decide_twin", "(O)", routing);
    Py_DECREF(mod);
    if (name == NULL)
        return -1;
    if (name == Py_None) {
        Py_DECREF(name);
        return 0;
    }
    for (i = 0; i < sizeof(TWIN_KINDS) / sizeof(TWIN_KINDS[0]); i++)
        if (PyUnicode_Check(name)
            && PyUnicode_CompareWithASCIIString(name, TWIN_KINDS[i].name)
                   == 0)
            kind = TWIN_KINDS[i].kind;
    if (kind == TWIN_NONE) {
        PyErr_Format(PyExc_ValueError,
                     "decide_twin named %R, which the kernel has no twin "
                     "for", name);
        Py_DECREF(name);
        return -1;
    }
    Py_DECREF(name);

    if (READ_ATTRS(ks, "routing", routing, tw, TWIN_ATTRS, kind) < 0)
        return -1;
    if (tw->a < 1 || tw->h < 0 || tw->groups != ks->groups
        || tw->h != ks->global_ports || tw->groups > (int64_t)UINT32_MAX
        || tw->a > (int64_t)UINT32_MAX || tw->h > (int64_t)UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "topology shape disagrees with the store or lies "
                        "outside the decide twin's range");
        return -1;
    }
    if (kind != TWIN_MIN) {
        tw->a_bits = bit_length(tw->a);
        tw->am1_bits = bit_length(tw->a - 1);
        tw->h_bits = bit_length(tw->h);
        tw->groups_bits = bit_length(tw->groups);
        tw->cand = PyMem_Malloc(
            (size_t)(tw->h > PB_PROBES ? tw->h : PB_PROBES) * sizeof(int64_t));
        if (tw->cand == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        if (twin_read_global_out(tw) < 0)
            return -1;
    }
    if (kind == TWIN_INTRANSIT) {
        /* The source-router trigger `out_occ / out_cap >= threshold` as
         * `occ >= thr_occ`, in the reference's double arithmetic: every
         * output FIFO has the capacity output_buffer. */
        int64_t cap = ks->out_cap[0];
        for (tw->thr_occ = 0; tw->thr_occ <= cap; tw->thr_occ++)
            if ((double)tw->thr_occ / (double)cap >= tw->threshold)
                break;
    }
    if (kind != TWIN_MIN
        && (tw->source < CRG || tw->source > RRG
            || (kind == TWIN_INTRANSIT
                && (tw->transit < CRG || tw->transit > RRG)))) {
        PyErr_Format(PyExc_ValueError,
                     "routing.mechanism: candidate sets (%lld, %lld) are "
                     "not CRG / NRG / RRG (0 / 1 / 2)",
                     (long long)tw->source, (long long)tw->transit);
        return -1;
    }
    if (kind == TWIN_PIGGYBACK && ks->num_routers != tw->groups * tw->a) {
        PyErr_SetString(PyExc_ValueError,
                        "store does not hold groups x a routers");
        return -1;
    }
    tw->kind = kind;
    return 0;
}

/* Router.<...> (see hardware/router.py): its offsets into the store, its
 * shape, and the mechanism and stats hook Simulation.bind_routing bound. */
static const Attr ROUTER_ATTRS[] = {
    {"kb", offsetof(RState, kb), A_I64},
    {"pb", offsetof(RState, pb), A_I64},
    {"router_id", offsetof(RState, rid), A_I64},
    {"group", offsetof(RState, group), A_I64},
    {"pos", offsetof(RState, pos), A_I64},
    {"injection_boundary", offsetof(RState, boundary), A_I64},
    {"max_vcs", offsetof(RState, max_vcs), A_I64},
    {"nkeys", offsetof(RState, nkeys), A_I64},
    {"radix", offsetof(RState, radix), A_I64},
    {"internal_cycles", offsetof(RState, internal), A_I64},
    {"_num_node_ports", offsetof(RState, num_node_ports), A_I64},
    {"_pipe_lat", offsetof(RState, pipe_lat), A_I64},
    {"transit_priority", offsetof(RState, transit_priority), A_BOOL},
    {"routing", offsetof(RState, routing), A_OBJ},
    {"routing.decide", offsetof(RState, decide), A_OBJ},
    {"_on_injection", offsetof(RState, on_injection), A_OBJ},
    {"_make_packet", offsetof(RState, make_packet), A_OBJ},
    {"active_keys", offsetof(RState, active_keys), A_SET},
    {"out_peer", offsetof(RState, out_peer), A_LIST, L_RADIX},
    {"upstream", offsetof(RState, upstream), A_LIST, L_RADIX},
};

static int
build_rstate(KState *ks, RState *rs, PyObject *r)
{
    rs->router = Py_NewRef(r);
    rs->arb = ARB_NONE;
    if (READ_ATTRS(ks, "Router", r, rs, ROUTER_ATTRS, -1) < 0
        || (rs->rid_obj = PyLong_FromLongLong((long long)rs->rid)) == NULL)
        return -1;
    return 0;
}

/* Router.<name> (out_peer / upstream: per port, (router, port) or None)
 * of `rs`, read with its other attributes, into the flat per-port index
 * tables, -1 where None. */
static int
read_links(KState *ks, const RState *rs, const char *name, PyObject *links,
           int32_t *rid, int32_t *port)
{
    Py_ssize_t i;
    for (i = 0; i < rs->radix; i++) {
        PyObject *link = PyList_GET_ITEM(links, i);
        const RState *peer;
        rid[rs->pb + i] = port[rs->pb + i] = -1;
        if (link == Py_None)
            continue;
        if (!PyTuple_Check(link) || PyTuple_GET_SIZE(link) != 2
            || (peer = router_state(ks, PyTuple_GET_ITEM(link, 0))) == NULL
            || !small_field(PyTuple_GET_ITEM(link, 1), peer->radix,
                            &port[rs->pb + i])) {
            PyErr_Format(PyExc_TypeError, "Router.%s is not a per-port list "
                         "of (router, port) pairs over the store's routers",
                         name);
            return -1;
        }
        rid[rs->pb + i] = (int32_t)peer->rid;
    }
    return 0;
}

/* eq._ckcounters, the int64 block of kernel counters EQ_ATTRS maps, is
 * created on the queue's first compiled drain. */
static int
ensure_counters(PyObject *eq)
{
    static const char zeros[N_CTR * 8];
    PyObject *arr = PyObject_GetAttrString(eq, "_ckcounters"), *mod;
    int rc;
    if (arr == NULL)
        return -1;
    if (arr != Py_None) {
        Py_DECREF(arr);
        return 0;
    }
    Py_DECREF(arr);
    mod = PyImport_ImportModule("array");
    arr = mod ? PyObject_CallMethod(mod, "array", "sy#", "q", zeros,
                                    (Py_ssize_t)sizeof(zeros)) : NULL;
    Py_XDECREF(mod);
    rc = arr ? PyObject_SetAttrString(eq, "_ckcounters", arr) : -1;
    Py_XDECREF(arr);
    return rc;
}

/* EventQueue.<...>: the calendar (the inbox during a drain), the kernel
 * counters and the lowered generator, if any.  (The slots the drain
 * writes are resolved to offsets.) */
static const Attr EQ_ATTRS[] = {
    {"_buckets", offsetof(KState, buckets), A_DICT},
    {"_times", offsetof(KState, times), A_LIST},
    {"_ckcounters", offsetof(KState, ctr), A_BUF_Q, L_CTR},
    {"_lower", offsetof(KState, low.gen), A_OBJ_OPT},
};

/* SoAStore.<...> (see soa.py): its geometry, every flat field the kernel
 * reads or mirrors, and the routers.  The geometry rows come first: the
 * lengths of the others are stated in it. */
#define KEYS(f) {#f, offsetof(KState, f), A_BUF_Q, L_KEYS}
#define PORTS(f) {#f, offsetof(KState, f), A_BUF_Q, L_PORTS}
static const Attr STORE_ATTRS[] = {
    {"num_routers", offsetof(KState, num_routers), A_I64},
    {"radix", offsetof(KState, radix), A_I64},
    {"node_ports", offsetof(KState, node_ports), A_I64},
    {"max_vcs", offsetof(KState, max_vcs), A_I64},
    {"nkeys", offsetof(KState, nkeys), A_I64},
    {"groups", offsetof(KState, groups), A_I64},
    {"global_ports", offsetof(KState, global_ports), A_I64},
    KEYS(in_occ), KEYS(in_cap), KEYS(key_port), KEYS(credits_used),
    PORTS(in_port_free), PORTS(out_occ), PORTS(out_cap), PORTS(switch_free),
    PORTS(link_free), PORTS(out_pumping), PORTS(credit_nvc),
    PORTS(credit_cap), PORTS(last_grant), PORTS(local_in), PORTS(global_out),
    PORTS(link_lat), PORTS(hop_cost),
    {"pb_snap", offsetof(KState, pb_snap), A_BUF_Q, L_RH},
    {"pb_snap_sum", offsetof(KState, pb_snap_sum), A_BUF_Q, L_ROUTERS},
    {"pb_snap_time", offsetof(KState, pb_snap_time), A_BUF_Q, L_GROUPS},
    {"inj_tail_head", offsetof(KState, inj_tail_head), A_BUF_Q, L_NODES},
    {"in_q", offsetof(KState, in_q), A_LIST, L_KEYS},
    {"inj_tail", offsetof(KState, inj_tail), A_LIST, L_NODES},
    {"out_fifo", offsetof(KState, out_fifo), A_LIST, L_PORTS},
    {"routers", offsetof(KState, router_list), A_LIST, L_ROUTERS},
};
#undef KEYS
#undef PORTS

static KState *
kstate_build(PyObject *eq, PyObject *store)
{
    KState *ks = PyMem_Calloc(1, sizeof(KState));
    PyObject *mod = NULL, *tmp = NULL, *kernel_step = NULL;
    PyTypeObject *eq_tp, *r_tp;
    Py_ssize_t i, K, P, N;

    if (ks == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    if (READ_ATTRS(ks, "SoAStore", store, ks, STORE_ATTRS, -1) < 0
        || ensure_counters(eq) < 0
        || READ_ATTRS(ks, "EventQueue", eq, ks, EQ_ATTRS, -1) < 0)
        goto fail;
    if (ks->num_routers < 1 || ks->node_ports < 1
        || ks->node_ports > ks->radix) {
        PyErr_SetString(PyExc_ValueError, "SoAStore holds no routers, or "
                        "node_ports outside [1, radix]");
        goto fail;
    }
    K = ks->num_routers * ks->nkeys;
    P = ks->num_routers * ks->radix;
    N = ks->num_routers * ks->node_ports;

    /* the native forms of the store's lists, the calendar, the memo's
     * epochs and the wiring tables */
    ks->cal.free = ks->cal.cur = -1;
    ks->rings = PyMem_Calloc((size_t)(P ? P : 1), sizeof(Ring));
    ks->inq = PyMem_Calloc((size_t)(K ? K : 1), sizeof(InQ));
    ks->tails = PyMem_Calloc((size_t)(N ? N : 1), sizeof(Tail));
    ks->epoch = PyMem_Calloc((size_t)ks->num_routers, sizeof(int64_t));
    ks->peer_rid = PyMem_Malloc((size_t)(P ? P : 1) * sizeof(int32_t));
    ks->peer_port = PyMem_Malloc((size_t)(P ? P : 1) * sizeof(int32_t));
    ks->up_rid = PyMem_Malloc((size_t)(P ? P : 1) * sizeof(int32_t));
    ks->up_port = PyMem_Malloc((size_t)(P ? P : 1) * sizeof(int32_t));
    if (ks->rings == NULL || ks->inq == NULL || ks->tails == NULL
        || ks->epoch == NULL
        || ks->peer_rid == NULL || ks->peer_port == NULL
        || ks->up_rid == NULL || ks->up_port == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < K; i++)
        ks->inq[i].head = ks->inq[i].memo.row = -1;
    /* the packet pool starts at a row per port: it doubles as it fills */
    ks->pool.free = -1;
    if (cal_rehash(&ks->cal) < 0 || pool_grow(&ks->pool, (int32_t)P) < 0)
        goto fail;

    /* queue slot offsets */
    eq_tp = Py_TYPE(eq);
    if ((ks->eq_now = slot_offset(eq_tp, "now")) < 0
        || (ks->eq_processed = slot_offset(eq_tp, "_processed")) < 0
        || (ks->eq_activations = slot_offset(eq_tp, "_activations")) < 0
        || (ks->eq_sink = slot_offset(eq_tp, "_sink")) < 0
        || (ks->eq_gen = slot_offset(eq_tp, "_gen")) < 0)
        goto fail;

    /* the Packet type and the slot of each row column */
    mod = PyImport_ImportModule("repro.hardware.packet");
    if (mod == NULL)
        goto fail;
    tmp = PyObject_GetAttrString(mod, "Packet");
    Py_CLEAR(mod);
    if (tmp == NULL)
        goto fail;
    ks->packet_type = (PyTypeObject *)tmp;
    tmp = NULL;
    for (i = 0; i < N_PK; i++)
        if ((ks->pk_off[i] = slot_offset(ks->packet_type, PK_NAMES[i])) < 0)
            goto fail;

    /* cached objects */
    mod = PyImport_ImportModule("repro.errors");
    if (mod == NULL)
        goto fail;
    ks->flow_err = PyObject_GetAttrString(mod, "FlowControlError");
    ks->routing_err = PyObject_GetAttrString(mod, "RoutingError");
    Py_CLEAR(mod);
    if (ks->flow_err == NULL || ks->routing_err == NULL)
        goto fail;
    mod = PyImport_ImportModule("repro.engine.kernel");
    if (mod == NULL)
        goto fail;
    kernel_step = PyObject_GetAttrString(mod, "step");
    Py_CLEAR(mod);
    if (kernel_step == NULL)
        goto fail;
    ks->key_objs = PyMem_Calloc((size_t)ks->nkeys, sizeof(PyObject *));
    if (ks->key_objs == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < ks->nkeys; i++)
        if ((ks->key_objs[i] = PyLong_FromSsize_t(i)) == NULL)
            goto fail;

    /* scratch */
    ks->scr_keys = PyMem_Malloc((size_t)ks->nkeys * sizeof(int32_t));
    ks->scr_dead = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->c_key = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->c_v = PyMem_Malloc((size_t)ks->nkeys * sizeof(Verdict));
    ks->c_next = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->f_idx = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->port_first = PyMem_Malloc((size_t)ks->radix * sizeof(int64_t));
    ks->port_last = PyMem_Malloc((size_t)ks->radix * sizeof(int64_t));
    ks->order_ports = PyMem_Malloc((size_t)ks->radix * sizeof(int64_t));
    ks->td_mask = PyMem_Malloc((size_t)ks->radix);
    if (ks->scr_keys == NULL || ks->scr_dead == NULL || ks->c_key == NULL
        || ks->c_v == NULL || ks->c_next == NULL
        || ks->f_idx == NULL || ks->port_first == NULL
        || ks->port_last == NULL || ks->order_ports == NULL
        || ks->td_mask == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < ks->radix; i++)
        ks->port_first[i] = -1;

    /* routers: the drain runs its own pipeline (c_step and the handlers
     * it calls), so a class whose step is not kernel.step — a patch or a
     * subclass — is refused rather than silently bypassed */
    ks->router_type = r_tp = Py_TYPE(PyList_GET_ITEM(ks->router_list, 0));
    if ((tmp = PyObject_GetAttrString((PyObject *)r_tp, "step")) == NULL)
        goto fail;
    if (tmp != kernel_step) {
        PyErr_Format(PyExc_TypeError, "%s.step is %R, not "
                     "repro.engine.kernel.step: the compiled drain runs its "
                     "own router pipeline (use the python backend)",
                     r_tp->tp_name, tmp);
        goto fail;
    }
    Py_CLEAR(tmp);
    Py_CLEAR(kernel_step);
    if ((ks->r_arb_time = slot_offset(r_tp, "_arb_time")) < 0
        || (ks->r_router_id = slot_offset(r_tp, "router_id")) < 0)
        goto fail;
    ks->routers = PyMem_Calloc((size_t)ks->num_routers, sizeof(RState));
    if (ks->routers == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < ks->num_routers; i++) {
        PyObject *r = PyList_GET_ITEM(ks->router_list, i);
        if (Py_TYPE(r) != r_tp) {
            PyErr_SetString(PyExc_RuntimeError,
                            "heterogeneous router types in SoA store");
            goto fail;
        }
        if (build_rstate(ks, &ks->routers[i], r) < 0)
            goto fail;
        /* records and the flat tables address routers by index */
        if (ks->routers[i].rid != i || ks->routers[i].kb != i * ks->nkeys
            || ks->routers[i].pb != i * ks->radix
            || ks->routers[i].radix != ks->radix
            || ks->routers[i].max_vcs != ks->max_vcs
            || ks->routers[i].num_node_ports != ks->node_ports) {
            PyErr_SetString(PyExc_RuntimeError,
                            "router geometry disagrees with the SoA store");
            goto fail;
        }
    }
    /* The decide twin is resolved for the first router's mechanism and
     * applies to every router sharing that object (all of them, in a
     * Simulation). */
    if (twin_build(ks, ks->routers[0].routing) < 0)
        goto fail;
    for (i = 0; i < ks->num_routers; i++) {
        RState *rs = &ks->routers[i];
        rs->twin = (rs->routing == ks->twin.routing) ? ks->twin.kind
                                                     : TWIN_NONE;
        if (read_links(ks, rs, "out_peer", rs->out_peer, ks->peer_rid,
                       ks->peer_port) < 0
            || read_links(ks, rs, "upstream", rs->upstream, ks->up_rid,
                          ks->up_port) < 0)
            goto fail;
    }
    if (ks->low.gen != NULL && lstate_build(ks) < 0)
        goto fail;
    return ks;

fail:
    Py_XDECREF(mod);
    Py_XDECREF(tmp);
    Py_XDECREF(kernel_step);
    kstate_free(ks);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* the drain entry point                                               */
/* ------------------------------------------------------------------ */

/* Resolve (building + caching if needed) the KState of *eq*.  Returns
 * 0 with *out set and a new reference to the capsule that owns it in
 * *cap_out, 1 when the queue has no bound store, -1 on error. */
static int
get_kstate(PyObject *eq, KState **out, PyObject **cap_out)
{
    PyObject *capsule, *soa;
    KState *ks;

    capsule = PyObject_GetAttrString(eq, "_ckstate");
    if (capsule == NULL)
        return -1;
    if (capsule == Py_None) {
        Py_DECREF(capsule);
        soa = PyObject_GetAttrString(eq, "_soa");
        if (soa == NULL)
            return -1;
        if (soa == Py_None) {
            Py_DECREF(soa);
            return 1;
        }
        ks = kstate_build(eq, soa);
        Py_DECREF(soa);
        if (ks == NULL)
            return -1;
        capsule = PyCapsule_New(ks, "repro._ckernel", kstate_capsule_free);
        if (capsule == NULL) {
            kstate_free(ks);
            return -1;
        }
        if (PyObject_SetAttrString(eq, "_ckstate", capsule) < 0) {
            Py_DECREF(capsule);
            return -1;
        }
    }
    else
        ks = (KState *)PyCapsule_GetPointer(capsule, "repro._ckernel");
    if (ks == NULL) {
        Py_DECREF(capsule);
        return -1;
    }
    ks->eq = eq;
    *out = ks;
    *cap_out = capsule;
    return 0;
}

/* The bucket loop: process every activation with time <= t_end.  Leaves
 * ks->now at the last drained cycle — ck_drain advances it to the
 * horizon. */
static int
drain_core(KState *ks, int64_t t_end)
{
    Calendar *c = &ks->cal;
    while (c->hn > 0 && c->heap[0] <= t_end) {
        int64_t t = heap_pop(c);
        Py_ssize_t i = 0, extra = 0, k;
        Bucket *b;
        int failed = 0;
        ks->now = t;
        if ((c->cur = cal_find(c, t)) < 0) {
            PyErr_SetString(PyExc_RuntimeError, "heap time with no bucket");
            return -1;
        }
        /* The bucket may grow during dispatch (same-cycle posting), move
         * (its storage, the pool) and, around a callback, be rebuilt:
         * it is looked up afresh per record, and the record copied. */
        while (c->cur >= 0 && i < c->pool[c->cur].len) {
            Rec rec = c->pool[c->cur].recs[i++];
            if (dispatch(ks, &rec, t, i, &extra) < 0) {
                failed = 1;
                break;
            }
        }
        /* semantic-event accounting (mirrors py_drain's finally): a
         * raised record is consumed, the bucket remainder survives */
        ks->processed += i + extra;
        ks->activations += i;
        if (c->cur < 0)
            return -1; /* dispatch_tuple could not bring the bucket back */
        b = &c->pool[c->cur];
        if (b->len > ks->ctr[C_PEAK_BUCKET])
            ks->ctr[C_PEAK_BUCKET] = b->len;
        if (i > b->len)
            i = b->len; /* a callback shortened it */
        /* the bucket owned the consumed records' tuples, and the rows of
         * the packets they delivered, until now, as the list does in
         * py_drain (a run record's other packet has moved on) */
        for (k = 0; k < i; k++) {
            const Rec *r = &b->recs[k];
            if (r->rid == REC_TUPLE)
                Py_DECREF(r->u.obj);
            else if (r->op == OP_DELIVER
                     && row_release(ks, (int32_t)r->u.c) < 0)
                failed = 1;
        }
        c->npend -= i;
        if (i == b->len)
            cal_close(c, t, c->cur);
        else {
            b->len -= i;
            memmove(b->recs, b->recs + i, (size_t)b->len * sizeof(Rec));
            heap_push(c, t); /* cannot fail: the pop left room */
        }
        c->cur = -1;
        if (failed)
            return -1;
    }
    return 0;
}

static PyObject *
ck_drain(PyObject *self, PyObject *args)
{
    PyObject *eq, *t_end_obj, *capsule;
    KState *ks;
    int64_t t_end;
    int rc;

    if (!PyArg_ParseTuple(args, "OO:drain", &eq, &t_end_obj))
        return NULL;
    t_end = as_ll(t_end_obj);
    if (t_end == -1 && PyErr_Occurred())
        return NULL;
    rc = get_kstate(eq, &ks, &capsule);
    if (rc < 0)
        return NULL;
    if (rc == 1) {
        PyErr_SetString(PyExc_TypeError,
                        "drain() needs a queue bound to an SoA store "
                        "(EventQueue.bind_backend)");
        return NULL;
    }
    /* `capsule` keeps ks alive to the end of this call whatever happens
     * to eq._ckstate meanwhile (a nested drain's error exit clears it) */
    ks->ctr[C_DRAINS] += 1;
    rc = mirror_in(ks);
    if (rc == 0)
        rc = drain_core(ks, t_end);
    if (rc == 0) {
        ks->now = t_end;
        rc = mirror_out(ks);
    }
    else {
        /* hand everything back, keeping the drain's exception; nothing
         * the capsule holds is needed after that, so its native state is
         * freed here rather than when the Simulation is dropped (a later
         * drain rebuilds it) */
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        if (mirror_out(ks) < 0
            || PyObject_SetAttrString(eq, "_ckstate", Py_None) < 0)
            PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    Py_DECREF(capsule);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* counters(eq): the always-on kernel counters of a queue as a dict, None
 * before its first compiled drain. */
static PyObject *
ck_counters(PyObject *self, PyObject *eq)
{
    PyObject *arr = PyObject_GetAttrString(eq, "_ckcounters"), *vals, *out;
    Py_ssize_t i;
    if (arr == NULL || arr == Py_None)
        return arr;
    vals = PySequence_List(arr);
    Py_DECREF(arr);
    out = vals ? PyDict_New() : NULL;
    for (i = 0; out != NULL && i < N_CTR && i < PyList_GET_SIZE(vals); i++)
        if (PyDict_SetItemString(out, CTR_NAMES[i],
                                 PyList_GET_ITEM(vals, i)) < 0)
            Py_CLEAR(out);
    Py_XDECREF(vals);
    return out;
}

/* Test hook: replay a sequence of RNG operations on the in-kernel
 * MT19937 and return the drawn values plus the resulting state, so the
 * RNG-stream equivalence suite can compare against random.Random
 * without running a simulation.  `ops` items: None -> random(), an int
 * k in [1, 32] -> getrandbits(k), a 1-tuple (n,) -> randrange(n) (the
 * index choice() picks from n items), ("shuffle", n) -> list(range(n))
 * after shuffle(). */
static PyObject *
ck_mt_ops(PyObject *self, PyObject *args)
{
    PyObject *state, *ops, *gauss, *seq = NULL, *results = NULL,
             *out_state = NULL, *ret = NULL;
    MtState mt;
    Py_ssize_t i, n;

    if (!PyArg_ParseTuple(args, "OO:mt_ops", &state, &ops))
        return NULL;
    gauss = mt_from_state(state, &mt);
    if (gauss == NULL)
        return NULL;
    seq = PySequence_Fast(ops, "mt_ops expects a sequence of operations");
    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    results = PyList_New(n);
    if (results == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *v;
        if (op == Py_None)
            v = PyFloat_FromDouble(mt_random(&mt));
        else if (PyTuple_Check(op) && PyTuple_GET_SIZE(op) == 2) {
            int64_t len = as_ll(PyTuple_GET_ITEM(op, 1)), k;
            int64_t *x;
            if ((len == -1 && PyErr_Occurred()) || len < 0 || len > 4096
                || !PyUnicode_Check(PyTuple_GET_ITEM(op, 0))
                || PyUnicode_CompareWithASCIIString(PyTuple_GET_ITEM(op, 0),
                                                    "shuffle") != 0) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "mt_ops: expected (\"shuffle\", n) "
                                    "with n in [0, 4096]");
                goto done;
            }
            x = PyMem_Malloc((size_t)(len + 1) * sizeof(int64_t));
            if (x == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            for (k = 0; k < len; k++)
                x[k] = k;
            mt_shuffle(&mt, x, len);
            v = PyList_New((Py_ssize_t)len);
            for (k = 0; v != NULL && k < len; k++) {
                PyObject *item = PyLong_FromLongLong((long long)x[k]);
                if (item == NULL)
                    Py_CLEAR(v);
                else
                    PyList_SET_ITEM(v, (Py_ssize_t)k, item);
            }
            PyMem_Free(x);
        }
        else if (PyTuple_Check(op) && PyTuple_GET_SIZE(op) == 1) {
            int64_t below = as_ll(PyTuple_GET_ITEM(op, 0));
            if ((below == -1 && PyErr_Occurred()) || below < 1
                || below > (int64_t)UINT32_MAX) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "mt_ops: randrange bound must be in "
                                    "[1, 2**32)");
                goto done;
            }
            v = PyLong_FromLongLong(
                (long long)mt_randbelow(&mt, below, bit_length(below)));
        }
        else {
            int64_t k = as_ll(op);
            if ((k == -1 && PyErr_Occurred()) || k < 1 || k > 32) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "mt_ops: getrandbits width must be "
                                    "in [1, 32]");
                goto done;
            }
            v = PyLong_FromUnsignedLong(
                (unsigned long)mt_getrandbits(&mt, (int)k));
        }
        if (v == NULL)
            goto done;
        PyList_SET_ITEM(results, i, v);
    }
    out_state = mt_to_state(&mt, gauss);
    if (out_state != NULL)
        ret = PyTuple_Pack(2, results, out_state);
done:
    Py_XDECREF(seq);
    Py_XDECREF(results);
    Py_XDECREF(out_state);
    return ret;
}

/* The import's sequence: keys 0..63 added (128 slots) and discarded (64
 * dummies), then a window of 8 keys sliding over 600 fresh ones: dummies
 * reused, rebuilds after churn (first smaller, then at the same size). */
static PyObject *
ck_check_set_model(PyObject *self, PyObject *args)
{
    PyObject *ops = Py_None, *seq = NULL, *set = NULL, *ret = NULL;
    KeyIndex ix = {0}, copy = {0};
    Py_ssize_t n, i;
    long long grows = 0, shrinks = 0, purges = 0, reuses = 0;
    if (!PyArg_ParseTuple(args, "|O:check_set_model", &ops)
        || (ops != Py_None
            && (seq = PySequence_Fast(ops, "expected (add, key)s")) == NULL)
        || (set = PySet_New(NULL)) == NULL || ix_alloc(&ix, PySet_MINSIZE) < 0)
        goto done;
    n = seq ? PySequence_Fast_GET_SIZE(seq) : 128 + 2 * 600;
    for (i = 0; i < n; i++) {
        Py_ssize_t mask = ix.mask, fill = ix.fill, used = ix.used, j;
        PyObject *k;
        int add = 0, rc;
        long long key = -1;
        if (seq == NULL) {
            j = (i - 128) / 2 - ((i - 128) % 2 ? 8 : 0);
            add = i < 128 ? i < 64 : (i - 128) % 2 == 0;
            key = i < 128 ? i % 64 : j < 0 ? 4095 : 64 + j * 37 % 4000;
        }
        else if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, i), "pL",
                                   &add, &key))
            key = -1;
        if (key < 0 || key > INT32_MAX) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError, "check_set_model: expected "
                            "(add, key) pairs, key in [0, 2**31)");
            goto done;
        }
        if ((k = PyLong_FromLongLong(key)) == NULL)
            goto done;
        rc = add ? PySet_Add(set, k) : PySet_Discard(set, k);
        Py_DECREF(k);
        if (rc < 0 || (add ? ix_add(&ix, (int32_t)key)
                           : (ix_discard(&ix, (int32_t)key), 0)) < 0
            || ix_copy(&copy, set, NULL, NULL) < 0)
            goto done;
        if (copy.mask != ix.mask || copy.fill != ix.fill
            || copy.used != ix.used || memcmp(copy.slot, ix.slot, IX_BYTES(ix.mask + 1)) != 0) {
            PyErr_Format(PyExc_RuntimeError, "the active-key index is not the "
                         "set table of CPython %s after operation %zd "
                         "(%s %lld)", Py_GetVersion(), i,
                         add ? "add" : "discard", key);
            goto done;
        }
        grows += ix.mask > mask;
        shrinks += ix.mask < mask;
        purges += add && ix.fill < fill;
        reuses += add && ix.used > used && ix.fill == fill && ix.mask == mask;
    }
    ret = Py_BuildValue("{snsLsLsLsL}", "ops", n, "grows", grows, "shrinks",
                        shrinks, "purges", purges, "dummy_reuses", reuses);
done:
    PyMem_Free(ix.slot);
    PyMem_Free(copy.slot);
    Py_XDECREF(set);
    Py_XDECREF(seq);
    return ret;
}

/* The constants the kernel shares with Python, by name. */
#define EV(c) {"repro.engine.events", #c, c}
#define ST(c) {"repro.metrics.collector", #c, c}
static const struct {
    const char *module, *name;
    long value;
} LAYOUT[] = {
    EV(OP_CALL), EV(OP_STEP), EV(OP_ARRIVE), EV(OP_OUT_ARRIVE), EV(OP_SEND),
    EV(OP_LINK), EV(OP_RELEASE), EV(OP_CREDIT), EV(OP_DELIVER), EV(OP_GEN),
    ST(SI_TOTAL_GENERATED), ST(SI_TOTAL_INJECTED), ST(SI_TOTAL_DELIVERED),
    ST(SI_GEN_PHITS), ST(SI_GEN_PACKETS), ST(SI_DEL_PHITS),
    ST(SI_DEL_PACKETS), ST(NSTAT_I), ST(SF_LAT_MEAN), ST(SF_LAT_M2),
    ST(SF_LAT_MIN), ST(SF_LAT_MAX), ST(SF_BD_INJ), ST(SF_BD_LOCAL),
    ST(SF_BD_GLOBAL), ST(SF_BD_BASE), ST(SF_BD_MIS), ST(NSTAT_F),
};
#undef EV
#undef ST

/* PK_NAMES against repro.hardware.packet.Packet.__slots__, by name and
 * count: a field without a column would be dropped each time a row
 * became a Packet.  0, or -1 with a RuntimeError naming the mismatch. */
static int
check_packet_columns(void)
{
    PyObject *mod = PyImport_ImportModule("repro.hardware.packet");
    PyObject *tp = mod ? PyObject_GetAttrString(mod, "Packet") : NULL;
    PyObject *slots = tp ? PyObject_GetAttrString(tp, "__slots__") : NULL;
    PyObject *fast = slots ? PySequence_Fast(slots, "Packet.__slots__ is "
                                             "not a sequence") : NULL;
    Py_ssize_t n, i;
    int f, rc = -1;
    if (fast == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(fast);
    for (i = 0; i < n; i++) {
        PyObject *name = PySequence_Fast_GET_ITEM(fast, i);
        for (f = 0; f < N_PK; f++)
            if (PyUnicode_Check(name)
                && PyUnicode_CompareWithASCIIString(name, PK_NAMES[f]) == 0)
                break;
        if (f == N_PK) {
            PyErr_Format(PyExc_RuntimeError, "repro.hardware.packet.Packet."
                         "%S has no packet-row column in _ckernel.c: rebuild "
                         "the extension", name);
            goto done;
        }
    }
    if (n != N_PK)
        PyErr_Format(PyExc_RuntimeError, "repro.hardware.packet.Packet has "
                     "%zd fields, but _ckernel.c has %d packet-row columns: "
                     "rebuild the extension", n, N_PK);
    else
        rc = 0;
done:
    Py_XDECREF(mod);
    Py_XDECREF(tp);
    Py_XDECREF(slots);
    Py_XDECREF(fast);
    return rc;
}

/* Compare LAYOUT with the Python constants of the same names and the
 * packet-row columns with Packet's fields: the number of names compared,
 * or a RuntimeError naming the first that differs. */
static PyObject *
ck_check_layout(PyObject *self, PyObject *noargs)
{
    size_t i;
    for (i = 0; i < sizeof(LAYOUT) / sizeof(LAYOUT[0]); i++) {
        PyObject *mod = PyImport_ImportModule(LAYOUT[i].module), *v;
        long py;
        if (mod == NULL)
            return NULL;
        v = PyObject_GetAttrString(mod, LAYOUT[i].name);
        Py_DECREF(mod);
        if (v == NULL)
            return NULL;
        py = PyLong_AsLong(v);
        Py_DECREF(v);
        if (py == -1 && PyErr_Occurred())
            return NULL;
        if (py != LAYOUT[i].value)
            return PyErr_Format(PyExc_RuntimeError,
                                "%s.%s is %ld, but _ckernel.c has %ld: "
                                "rebuild the extension",
                                LAYOUT[i].module, LAYOUT[i].name, py,
                                LAYOUT[i].value);
    }
    if (check_packet_columns() < 0)
        return NULL;
    return PyLong_FromSize_t(i + N_PK);
}

static PyMethodDef ckernel_methods[] = {
    {"drain", ck_drain, METH_VARARGS,
     "drain(eq, t_end): process activations with time <= t_end on the "
     "compiled kernel (bit-identical to repro.engine.kernel.py_drain)."},
    {"counters", ck_counters, METH_O,
     "counters(eq): the kernel's always-on counters for this queue — "
     "drains, Python re-entries by kind, inbox records absorbed, full "
     "mirrors, peak pending records, peak bucket length, scans, keys scanned, "
     "active-key index reloads, input-FIFO packets absorbed after a hook, "
     "Packet objects built from packet rows, peak packet rows in use — "
     "or None before its first compiled drain."},
    {"check_set_model", ck_check_set_model, METH_VARARGS,
     "check_set_model(ops=None): (add, key) pairs (None: the import's) on a "
     "fresh set and active-key index, compared after each; RuntimeError, or "
     "the table grows / shrinks / purges / dummy reuses."},
    {"check_layout", ck_check_layout, METH_NOARGS,
     "check_layout(): compare the kernel's OP_* / SI_* / SF_* / NSTAT_* "
     "constants with the Python ones of the same names, and its packet-row "
     "columns with Packet.__slots__; the number of names compared, or "
     "RuntimeError naming the first mismatch."},
    {"mt_ops", ck_mt_ops, METH_VARARGS,
     "mt_ops(state, ops): replay RNG operations (None -> random(), "
     "int k -> getrandbits(k), (n,) -> randrange(n), (\"shuffle\", n) -> "
     "shuffled range(n)) on the in-kernel MT19937; returns "
     "(values, new_state).  Test hook for the RNG-stream equivalence "
     "suite."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.engine._ckernel",
    "Compiled engine kernel (see repro/engine/kernel.py for the "
    "reference implementation and the backend contract).",
    -1,
    ckernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    /* RuntimeErrors, not ImportErrors: resolve_backend says why */
    PyObject *args = PyTuple_New(0);
    PyObject *seen = args ? ck_check_set_model(NULL, args) : NULL;
    Py_XDECREF(args);
    if (seen == NULL)
        return NULL;
    Py_DECREF(seen);
    if ((seen = ck_check_layout(NULL, NULL)) == NULL)
        return NULL;
    Py_DECREF(seen);
    return PyModule_Create(&ckernel_module);
}
