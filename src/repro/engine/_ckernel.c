/* Compiled engine kernel: the calendar-queue drain loop and the router
 * allocation pipeline as a CPython extension.
 *
 * This is a line-for-line translation of the pure-Python kernels in
 * repro/engine/kernel.py (py_drain / step / _commit) and of the router
 * phase handlers in repro/hardware/router.py (arrive, output_enqueue,
 * send, link_step, release_output, release_credit), operating on the
 * typed (array('q'), int64) buffers of repro.engine.soa.SoAStore mapped
 * once through the buffer protocol.
 *
 * Bit-identity contract
 * ---------------------
 * Every observable effect matches the Python kernels exactly:
 *
 * - the drain order (heap of distinct cycles + FIFO buckets with a
 *   growing-list cursor) and the opcode dispatch semantics are the same;
 * - the allocation scan iterates `active_keys` in Python's own set
 *   iteration order (a snapshot taken with the set's iterator), decides
 *   at exactly the same points — through `routing.decide` or its C twin,
 *   which draws the same words from the same stream — and applies the
 *   same decision-memo contract;
 * - arithmetic is int64 throughout, matching the value range of the
 *   Python ints the interpreted kernels produce;
 * - `events_processed` / `activations` accounting, including the
 *   exception path (consume the raising record, keep the bucket
 *   remainder), mirrors py_drain's try/finally.
 *
 * Python is called back for exactly the work that is Python by contract:
 * routing decisions of mechanisms without a twin (every mechanism of
 * repro.routing.factory has one: c_min_decide, c_oblivious_decide,
 * c_piggyback_decide, c_intransit_decide; the modules of repro/routing
 * stay the reference), traffic generation (OP_GEN) and the delivery sink
 * (OP_DELIVER) of cells that are not lowered, generic OP_CALL callbacks,
 * overridden routing hooks and stats injection callbacks.
 * The input/output FIFOs are plain Python lists in both kernels, so
 * queue access compiles to list macros instead of method calls.
 *
 * State shared with Python (packet fields, Router._arb_time, the
 * EventQueue counters) lives in __slots__; the extension resolves the
 * member-descriptor offsets once and reads/writes the slots directly.
 * Everything else round-trips through the same Python objects the
 * interpreted kernels use, so mixed execution (e.g. a Python
 * `Router.inject` posting records while the C drain runs) stays
 * coherent by construction.
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

/* Fixed-arity vectorcalls: the hot-path replacement for the va_list
 * based PyObject_CallFunctionObjArgs (which boxes through object_vacall
 * on every call). */
static inline PyObject *
call1(PyObject *func, PyObject *a)
{
    PyObject *args[1] = {a};
    return PyObject_Vectorcall(func, args, 1, NULL);
}

static inline PyObject *
call2(PyObject *func, PyObject *a, PyObject *b)
{
    PyObject *args[2] = {a, b};
    return PyObject_Vectorcall(func, args, 2, NULL);
}

/* ------------------------------------------------------------------ */
/* int64 heap ops on a Python list of ints (the queue's _times helper   */
/* heap).  Times in the heap are unique (one entry per live bucket), so */
/* any valid binary heap yields the same pop sequence as heapq.         */
/* ------------------------------------------------------------------ */

static int
heap_push(PyObject *heap, PyObject *item)
{
    Py_ssize_t pos, parent;
    PyObject **ob;
    int64_t v;
    if (PyList_Append(heap, item) < 0)
        return -1;
    ob = ((PyListObject *)heap)->ob_item;
    pos = PyList_GET_SIZE(heap) - 1;
    v = as_ll(item);
    while (pos > 0) {
        parent = (pos - 1) >> 1;
        if (v < as_ll(ob[parent])) {
            PyObject *tmp = ob[pos];
            ob[pos] = ob[parent];
            ob[parent] = tmp;
            pos = parent;
        }
        else
            break;
    }
    return 0;
}

/* Pop the minimum; returns a new reference. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject **ob = ((PyListObject *)heap)->ob_item;
    PyObject *ret = ob[0];
    Py_INCREF(ret);
    /* Move the last element to the root, truncate, then sift down. */
    ob[0] = ob[n - 1];
    ob[n - 1] = ret; /* ownership juggling: SetSlice decrefs this one */
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        /* restore best-effort; should not happen for a plain list */
        return ret;
    }
    n -= 1;
    if (n > 1) {
        ob = ((PyListObject *)heap)->ob_item;
        Py_ssize_t pos = 0;
        int64_t v = as_ll(ob[0]);
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && as_ll(ob[child + 1]) < as_ll(ob[child]))
                child += 1;
            if (as_ll(ob[child]) < v) {
                PyObject *tmp = ob[pos];
                ob[pos] = ob[child];
                ob[child] = tmp;
                pos = child;
            }
            else
                break;
        }
    }
    return ret;
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

typedef struct {
    Py_ssize_t size, t_enq, inject_time, wait_local, wait_global,
        service_sum, local_hops, global_hops, group_local_hops,
        current_group, plan, inter_router, inter_group, dst_group, pid,
        gen_time, base_latency, dst_router, src_node, src_router,
        src_group, dst_node, dst_local_router, dst_node_port;
} PacketSlots;

typedef struct {
    PyObject *router;           /* owned */
    PyObject *routing;          /* owned */
    PyObject *decide;           /* owned bound method */
    PyObject *commit_override;  /* owned or NULL (base commit inlined) */
    PyObject *arrival_override; /* owned or NULL (base arrival inlined) */
    PyObject *on_injection;     /* owned */
    PyObject *active_keys;      /* owned set */
    PyObject *token;            /* owned (OP_STEP, router) */
    PyObject *send_recs, *link_recs, *rel_recs, *out_peer; /* owned lists */
    PyObject *rid_obj;          /* owned */
    PyObject *py_step;          /* owned bound method, or NULL: C step */
    int64_t kb, pb, rid, group, boundary, max_vcs, nkeys, radix;
    int64_t cache_policy, transit_priority, internal, num_node_ports,
        psize, pipe_lat, pos;
    int twin;                   /* TWIN_*: which decide() this router runs */
} RState;

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

/* candidates sampled per decision by NRG / RRG (misrouting.SAMPLE_K),
 * routers probed by the OLM sampler (_try_local_misroute) and groups
 * probed by PiggyBack's RRG (_nonmin_candidate) */
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
    int64_t *go_port, *go_off; /* owned, a*h: topo.global_out[pos][j] */
    int64_t *cand;       /* owned scratch, max(h, PB_PROBES) groups */
    RngMirror rng;       /* rng_routing, in-kernel during a drain */
    /* oblivious and PiggyBack: the variant */
    int crg;             /* 1 "crg", 0 "rrg" */
    /* PiggyBack: its thresholds and each group state's own constants */
    double t_local;
    int64_t *pb_period;  /* owned, `groups` entries */
    double *pb_t_global; /* owned, `groups` entries */
    /* in-transit */
    int64_t thr_occ;     /* integer form of the source-router threshold */
    int code_source, code_transit; /* 0 CRG, 1 NRG, 2 RRG */
} Twin;

/* What a twin hands back besides the decision: the purity / guard pair
 * the Python reference leaves in last_decide_pure / last_decide_guard. */
#define GUARD_OUT_OCC 0  /* (0, idx, val): valid while out_occ[idx] == val */
#define GUARD_CREDITS 1  /* (1, idx, val): while credits_used[idx] == val */
#define GUARD_EPOCH 2    /* None: valid for the router's congestion epoch */
#define GUARD_STABLE 3   /* (): read no congestion state */

typedef struct {
    int64_t port, vc, action, aux;
    int pure;            /* consumed no RNG */
    int guard;           /* GUARD_* */
    int64_t g_idx, g_val;
} Verdict;

/* ---- lowered OP_GEN / OP_DELIVER fast path ------------------------- */

/* Stat slot layout of the flat accumulators on the SoA store; must
 * match the SI_* / SF_* constants in repro/engine/soa.py. */
#define SI_TOTAL_GENERATED 0
#define SI_TOTAL_INJECTED 1
#define SI_TOTAL_DELIVERED 2
#define SI_GEN_PHITS 3
#define SI_GEN_PACKETS 4
#define SI_DEL_PHITS 5
#define SI_DEL_PACKETS 6

#define SF_LAT_MEAN 0
#define SF_LAT_M2 1
#define SF_LAT_MIN 2
#define SF_LAT_MAX 3
#define SF_BD_INJ 4
#define SF_BD_LOCAL 5
#define SF_BD_GLOBAL 6
#define SF_BD_BASE 7
#define SF_BD_MIS 8

/* The C twin of repro.engine.kernel.LowerState: built from eq._lower
 * when the KState is constructed.  Scalars and the pattern descriptor
 * are unpacked into struct fields; the stat accumulators and the
 * min-service table are buffer views; the traffic RNG runs in-kernel
 * (RngMirror) between lstate_sync_in / lstate_sync_out. */
typedef struct {
    PyObject *lower;       /* owned: the Python LowerState */
    RngMirror rng;         /* rng_traffic, in-kernel during a drain */
    PyObject *owner;       /* owned: the Simulation (for _pid) */
    PyObject *packet_type; /* owned */
    PyObject *gen_recs;    /* owned list of (OP_GEN, node) records */
    PyObject *psize_obj;   /* owned int */
    Py_buffer ms_view, si_view, sf_view, inj_view, del_view;
    int64_t *ms_table;     /* R*R contention-free service costs */
    int64_t *si;           /* the NSTAT_I block */
    double *sf;            /* the NSTAT_F block */
    int64_t *inj_router, *del_router; /* router_id-indexed */
    int64_t R, p, a, psize, end_time, ws, we, num_nodes;
    double log_q;
    int has_log_q;
    int64_t pid;           /* mirrored from owner._pid per drain */
    /* descriptor (see TrafficPattern.lower) */
    int kind;              /* 0 uniform, 1 adversarial, 2 advc, 3 perm */
    int64_t n1, offset, per_group, groups;
    int n1_bits, pg_bits, off_bits;
    int64_t *offsets;      /* owned, advc */
    Py_ssize_t n_off;
    int64_t *perm;         /* owned, permutation (num_nodes entries) */
} LState;

static void lstate_free(LState *ls);

#define N_VIEWS 21

typedef struct {
    /* EventQueue slot offsets */
    Py_ssize_t eq_now, eq_processed, eq_activations, eq_sink, eq_gen;
    /* typed buffer views (held for the KState lifetime) */
    Py_buffer views[N_VIEWS];
    int nviews;
    /* per-key */
    int64_t *in_occ, *in_cap, *key_port, *credits_used;
    /* per-port */
    int64_t *in_port_free, *out_occ, *out_cap, *switch_free, *link_free,
        *out_pumping, *credit_nvc, *credit_cap, *last_grant, *local_in,
        *global_out, *link_lat, *hop_cost;
    /* per-router */
    int64_t *cong_epoch;
    /* PiggyBack snapshot rows: R*h, R, groups (see soa.py) */
    int64_t *pb_snap, *pb_snap_sum, *pb_snap_time;
    /* object-valued store fields (owned lists) */
    PyObject *in_q, *dc_pkt, *dc_dec, *dc_cond, *credit_recs, *out_fifo;
    /* queue structures (owned; the same objects the slots hold) */
    PyObject *buckets, *times;
    Py_ssize_t num_routers, radix, max_vcs, nkeys;
    PacketSlots ps;
    Py_ssize_t r_arb_time;
    RState *routers;
    /* pointer -> RState open-addressing hash */
    void **h_keys;
    RState **h_vals;
    Py_ssize_t h_mask;
    /* cached immortal-ish objects */
    PyObject **key_objs;  /* nkeys ints 0..nkeys-1 */
    PyObject **port_objs; /* radix ints */
    PyObject **vc_objs;   /* max_vcs ints */
    PyObject *op_out_arrive, *op_credit, *op_link, *op_release,
        *op_arrive, *op_deliver;
    PyObject *s_last_decide_pure, *s_last_decide_guard;
    PyObject *flow_err, *routing_err;
    PyObject *router_mod; /* for the dynamic CHECK_INVARIANTS flag */
    int chk;              /* CHECK_INVARIANTS, refreshed per drain call */
    /* step scratch (step never nests: decide cannot re-enter the drain) */
    int64_t *scr_keys;    /* nkeys: active-key snapshot */
    int64_t *scr_dead;    /* nkeys */
    int64_t *c_key;       /* nkeys candidate keys */
    PyObject **c_pkt;     /* nkeys owned */
    PyObject **c_dec;     /* nkeys owned */
    int64_t *c_next;      /* nkeys: per-output chain links */
    int64_t *port_first, *port_last; /* radix */
    int64_t *order_ports; /* radix: first-seen output order */
    uint8_t *td_mask;     /* radix: transit-demand membership */
    int64_t *f_idx;       /* nkeys: filtered candidate scratch */
    /* one-entry post-target memo: the bucket list `buckets` currently
     * maps to `post_cache_t` (owned ref; INT64_MIN = invalid).  Only
     * valid within one drain_core call — reset at its entry, dropped
     * when the bucket is drained and deleted. */
    int64_t post_cache_t;
    PyObject *post_cache_bucket;
    /* lowered OP_GEN / OP_DELIVER fast path (NULL when not lowered) */
    LState *low;
    Twin twin;
    int64_t now;          /* eq.now of the bucket being drained */
} KState;

static void
rstate_clear(RState *rs)
{
    Py_XDECREF(rs->router);
    Py_XDECREF(rs->routing);
    Py_XDECREF(rs->decide);
    Py_XDECREF(rs->commit_override);
    Py_XDECREF(rs->arrival_override);
    Py_XDECREF(rs->on_injection);
    Py_XDECREF(rs->active_keys);
    Py_XDECREF(rs->token);
    Py_XDECREF(rs->send_recs);
    Py_XDECREF(rs->link_recs);
    Py_XDECREF(rs->rel_recs);
    Py_XDECREF(rs->out_peer);
    Py_XDECREF(rs->rid_obj);
    Py_XDECREF(rs->py_step);
}

static void
twin_clear(Twin *tw)
{
    Py_CLEAR(tw->routing);
    PyMem_Free(tw->gw_router);
    PyMem_Free(tw->gw_port);
    PyMem_Free(tw->go_port);
    PyMem_Free(tw->go_off);
    PyMem_Free(tw->cand);
    PyMem_Free(tw->pb_period);
    PyMem_Free(tw->pb_t_global);
    rng_clear(&tw->rng);
}

static void
kstate_free(KState *ks)
{
    Py_ssize_t i;
    if (ks == NULL)
        return;
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
    if (ks->port_objs != NULL) {
        for (i = 0; i < ks->radix; i++)
            Py_XDECREF(ks->port_objs[i]);
        PyMem_Free(ks->port_objs);
    }
    if (ks->vc_objs != NULL) {
        for (i = 0; i < ks->max_vcs; i++)
            Py_XDECREF(ks->vc_objs[i]);
        PyMem_Free(ks->vc_objs);
    }
    Py_XDECREF(ks->post_cache_bucket);
    Py_XDECREF(ks->in_q);
    Py_XDECREF(ks->dc_pkt);
    Py_XDECREF(ks->dc_dec);
    Py_XDECREF(ks->dc_cond);
    Py_XDECREF(ks->credit_recs);
    Py_XDECREF(ks->out_fifo);
    Py_XDECREF(ks->buckets);
    Py_XDECREF(ks->times);
    Py_XDECREF(ks->op_out_arrive);
    Py_XDECREF(ks->op_credit);
    Py_XDECREF(ks->op_link);
    Py_XDECREF(ks->op_release);
    Py_XDECREF(ks->op_arrive);
    Py_XDECREF(ks->op_deliver);
    Py_XDECREF(ks->s_last_decide_pure);
    Py_XDECREF(ks->s_last_decide_guard);
    Py_XDECREF(ks->flow_err);
    Py_XDECREF(ks->routing_err);
    Py_XDECREF(ks->router_mod);
    PyMem_Free(ks->h_keys);
    PyMem_Free(ks->h_vals);
    PyMem_Free(ks->scr_keys);
    PyMem_Free(ks->scr_dead);
    PyMem_Free(ks->c_key);
    PyMem_Free(ks->c_pkt);
    PyMem_Free(ks->c_dec);
    PyMem_Free(ks->c_next);
    PyMem_Free(ks->port_first);
    PyMem_Free(ks->port_last);
    PyMem_Free(ks->order_ports);
    PyMem_Free(ks->td_mask);
    PyMem_Free(ks->f_idx);
    lstate_free(ks->low);
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

/* map an array('q') store field to an int64_t* */
static int64_t *
map_buffer(KState *ks, PyObject *store, const char *name, Py_ssize_t expect)
{
    PyObject *obj = PyObject_GetAttrString(store, name);
    Py_buffer *view;
    if (obj == NULL)
        return NULL;
    view = &ks->views[ks->nviews];
    if (PyObject_GetBuffer(obj, view, PyBUF_CONTIG) < 0) {
        Py_DECREF(obj);
        return NULL;
    }
    Py_DECREF(obj);
    if (view->itemsize != 8 || view->len != expect * 8) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError,
                     "SoAStore.%s is not an int64 buffer of %zd items "
                     "(is the store typed?)", name, expect);
        return NULL;
    }
    ks->nviews += 1;
    return (int64_t *)view->buf;
}

static PyObject *
get_list(PyObject *store, const char *name)
{
    PyObject *obj = PyObject_GetAttrString(store, name);
    if (obj == NULL)
        return NULL;
    if (!PyList_CheckExact(obj)) {
        Py_DECREF(obj);
        PyErr_Format(PyExc_TypeError, "SoAStore.%s is not a list", name);
        return NULL;
    }
    return obj;
}

static int64_t
get_ll_attr(PyObject *obj, const char *name, int *err)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    int64_t r;
    if (v == NULL) {
        *err = 1;
        return 0;
    }
    r = (int64_t)PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred())
        *err = 1;
    Py_DECREF(v);
    return r;
}

/* ------------------------------------------------------------------ */
/* LState: the lowered generator/sink twin                             */
/* ------------------------------------------------------------------ */

static void
lstate_free(LState *ls)
{
    if (ls == NULL)
        return;
    Py_XDECREF(ls->lower);
    rng_clear(&ls->rng);
    Py_XDECREF(ls->owner);
    Py_XDECREF(ls->packet_type);
    Py_XDECREF(ls->gen_recs);
    Py_XDECREF(ls->psize_obj);
    PyMem_Free(ls->offsets);
    PyMem_Free(ls->perm);
    PyBuffer_Release(&ls->ms_view);
    PyBuffer_Release(&ls->si_view);
    PyBuffer_Release(&ls->sf_view);
    PyBuffer_Release(&ls->inj_view);
    PyBuffer_Release(&ls->del_view);
    PyMem_Free(ls);
}

/* Map an array('q')/array('d') attribute of `lower` into `view`. */
static void *
lstate_map(PyObject *lower, const char *name, Py_buffer *view)
{
    PyObject *obj = PyObject_GetAttrString(lower, name);
    if (obj == NULL)
        return NULL;
    if (PyObject_GetBuffer(obj, view, PyBUF_CONTIG) < 0) {
        Py_DECREF(obj);
        return NULL;
    }
    Py_DECREF(obj);
    if (view->itemsize != 8) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError,
                     "LowerState.%s is not an 8-byte-item buffer "
                     "(is the store typed?)", name);
        return NULL;
    }
    return view->buf;
}

/* Copy an int tuple attribute into a fresh int64 array (*n_out items;
 * an empty tuple yields a valid zero-length allocation). */
static int64_t *
lstate_ints(PyObject *lower, const char *name, Py_ssize_t *n_out)
{
    PyObject *tup = PyObject_GetAttrString(lower, name);
    int64_t *out;
    Py_ssize_t i, n;
    if (tup == NULL)
        return NULL;
    if (!PyTuple_CheckExact(tup)) {
        Py_DECREF(tup);
        PyErr_Format(PyExc_TypeError, "LowerState.%s is not a tuple",
                     name);
        return NULL;
    }
    n = PyTuple_GET_SIZE(tup);
    out = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (out == NULL) {
        Py_DECREF(tup);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        out[i] = as_ll(PyTuple_GET_ITEM(tup, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(tup);
            PyMem_Free(out);
            return NULL;
        }
    }
    Py_DECREF(tup);
    *n_out = n;
    return out;
}

static LState *
lstate_build(PyObject *lower)
{
    LState *ls = PyMem_Calloc(1, sizeof(LState));
    PyObject *mod = NULL, *item = NULL;
    int err = 0;

    if (ls == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    Py_INCREF(lower);
    ls->lower = lower;
    ls->rng.rng = PyObject_GetAttrString(lower, "rng");
    ls->owner = PyObject_GetAttrString(lower, "owner");
    ls->gen_recs = PyObject_GetAttrString(lower, "gen_recs");
    if (ls->rng.rng == NULL || ls->owner == NULL || ls->gen_recs == NULL)
        goto fail;
    if (!PyList_CheckExact(ls->gen_recs)) {
        PyErr_SetString(PyExc_TypeError,
                        "LowerState.gen_recs is not a list");
        goto fail;
    }
    ls->R = get_ll_attr(lower, "R", &err);
    ls->p = get_ll_attr(lower, "p", &err);
    ls->a = get_ll_attr(lower, "a", &err);
    ls->psize = get_ll_attr(lower, "psize", &err);
    ls->end_time = get_ll_attr(lower, "end_time", &err);
    ls->ws = get_ll_attr(lower, "ws", &err);
    ls->we = get_ll_attr(lower, "we", &err);
    ls->num_nodes = get_ll_attr(lower, "num_nodes", &err);
    if (err)
        goto fail;
    item = PyObject_GetAttrString(lower, "log_q");
    if (item == NULL)
        goto fail;
    if (item == Py_None)
        ls->has_log_q = 0;
    else {
        ls->log_q = PyFloat_AsDouble(item);
        if (ls->log_q == -1.0 && PyErr_Occurred())
            goto fail;
        ls->has_log_q = 1;
    }
    Py_CLEAR(item);

    if ((ls->ms_table =
             (int64_t *)lstate_map(lower, "ms_table", &ls->ms_view))
            == NULL
        || (ls->si = (int64_t *)lstate_map(lower, "si", &ls->si_view))
               == NULL
        || (ls->sf = (double *)lstate_map(lower, "sf", &ls->sf_view))
               == NULL
        || (ls->inj_router =
                (int64_t *)lstate_map(lower, "inj_router", &ls->inj_view))
               == NULL
        || (ls->del_router =
                (int64_t *)lstate_map(lower, "del_router", &ls->del_view))
               == NULL)
        goto fail;
    if (ls->ms_view.len != ls->R * ls->R * 8) {
        PyErr_SetString(PyExc_TypeError,
                        "LowerState.ms_table has the wrong shape");
        goto fail;
    }

    /* descriptor */
    ls->kind = (int)get_ll_attr(lower, "_kind", &err);
    ls->n1 = get_ll_attr(lower, "_n1", &err);
    ls->n1_bits = (int)get_ll_attr(lower, "_n1_bits", &err);
    ls->offset = get_ll_attr(lower, "_offset", &err);
    ls->per_group = get_ll_attr(lower, "_per_group", &err);
    ls->pg_bits = (int)get_ll_attr(lower, "_pg_bits", &err);
    ls->groups = get_ll_attr(lower, "_groups", &err);
    ls->off_bits = (int)get_ll_attr(lower, "_off_bits", &err);
    if (err)
        goto fail;
    if ((ls->offsets = lstate_ints(lower, "_offsets", &ls->n_off)) == NULL)
        goto fail;
    {
        Py_ssize_t n_perm;
        if ((ls->perm = lstate_ints(lower, "_perm", &n_perm)) == NULL)
            goto fail;
        if (ls->kind == 3 && n_perm != (Py_ssize_t)ls->num_nodes) {
            PyErr_SetString(PyExc_TypeError,
                            "LowerState._perm has the wrong length");
            goto fail;
        }
    }
    /* The draws below shift by (32 - bits): descriptors guarantee
     * 1 <= bits <= 32 (patterns refuse to lower wider draws). */
    if (ls->kind < 0 || ls->kind > 3
        || (ls->kind == 0 && (ls->n1_bits < 1 || ls->n1_bits > 32))
        || ((ls->kind == 1 || ls->kind == 2)
            && (ls->pg_bits < 1 || ls->pg_bits > 32))
        || (ls->kind == 2 && (ls->off_bits < 1 || ls->off_bits > 32))) {
        PyErr_SetString(PyExc_ValueError,
                        "malformed pattern lowering descriptor");
        goto fail;
    }

    ls->psize_obj = PyLong_FromLongLong((long long)ls->psize);
    if (ls->psize_obj == NULL)
        goto fail;
    mod = PyImport_ImportModule("repro.hardware.packet");
    if (mod == NULL)
        goto fail;
    ls->packet_type = PyObject_GetAttrString(mod, "Packet");
    Py_CLEAR(mod);
    if (ls->packet_type == NULL)
        goto fail;
    return ls;

fail:
    Py_XDECREF(mod);
    Py_XDECREF(item);
    lstate_free(ls);
    return NULL;
}

/* Take rng_traffic and the owner's packet-id counter into the kernel at
 * drain entry. */
static int
lstate_sync_in(LState *ls)
{
    int err = 0;
    if (rng_load(&ls->rng) < 0)
        return -1;
    ls->pid = get_ll_attr(ls->owner, "_pid", &err);
    return err ? -1 : 0;
}

/* Hand both back to the Python side at drain exit. */
static int
lstate_sync_out(LState *ls)
{
    PyObject *pid_obj;
    int rc;
    if (rng_store(&ls->rng) < 0)
        return -1;
    pid_obj = PyLong_FromLongLong((long long)ls->pid);
    if (pid_obj == NULL)
        return -1;
    rc = PyObject_SetAttrString(ls->owner, "_pid", pid_obj);
    Py_DECREF(pid_obj);
    return rc;
}

/* Take every RNG stream this run consumes in C into the kernel (drain
 * entry, and after a fallback into Python code that may draw) ... */
static int
kstate_rng_in(KState *ks)
{
    if (ks->low != NULL && lstate_sync_in(ks->low) < 0)
        return -1;
    if (ks->twin.rng.rng != NULL && rng_load(&ks->twin.rng) < 0)
        return -1;
    return 0;
}

/* ... and hand them back (drain exit, error exit, before a fallback). */
static int
kstate_rng_out(KState *ks)
{
    int rc = 0;
    if (ks->low != NULL && lstate_sync_out(ks->low) < 0)
        rc = -1;
    if (ks->twin.rng.rng != NULL && rng_store(&ks->twin.rng) < 0)
        rc = -1;
    return rc;
}

/* ------------------------------------------------------------------ */
/* pointer hash: router PyObject* -> RState*                           */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t
ptr_slot(KState *ks, void *p)
{
    uintptr_t h = ((uintptr_t)p) >> 4;
    h *= (uintptr_t)0x9E3779B97F4A7C15ULL;
    return (Py_ssize_t)(h >> 17) & ks->h_mask;
}

static int
ptr_insert(KState *ks, void *p, RState *rs)
{
    Py_ssize_t i = ptr_slot(ks, p);
    while (ks->h_keys[i] != NULL) {
        if (ks->h_keys[i] == p) {
            PyErr_SetString(PyExc_RuntimeError,
                            "duplicate router object in SoA store");
            return -1;
        }
        i = (i + 1) & ks->h_mask;
    }
    ks->h_keys[i] = p;
    ks->h_vals[i] = rs;
    return 0;
}

static inline RState *
ptr_lookup(KState *ks, void *p)
{
    Py_ssize_t i = ptr_slot(ks, p);
    while (ks->h_keys[i] != NULL) {
        if (ks->h_keys[i] == p)
            return ks->h_vals[i];
        i = (i + 1) & ks->h_mask;
    }
    return NULL;
}

/* ------------------------------------------------------------------ */
/* posting                                                             */
/* ------------------------------------------------------------------ */

/* Append `rec` (borrowed) to the cycle-`t` bucket.  Mirrors
 * EventQueue.post / the routers' inlined posting blocks. */
static int
ck_post(KState *ks, int64_t t, PyObject *rec)
{
    PyObject *key, *bucket;
    if (t == ks->post_cache_t)
        return PyList_Append(ks->post_cache_bucket, rec);
    key = PyLong_FromLongLong((long long)t);
    if (key == NULL)
        return -1;
    bucket = PyDict_GetItemWithError(ks->buckets, key);
    if (bucket != NULL) {
        int r = PyList_Append(bucket, rec);
        if (r == 0) {
            Py_INCREF(bucket);
            Py_XSETREF(ks->post_cache_bucket, bucket);
            ks->post_cache_t = t;
        }
        Py_DECREF(key);
        return r;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    bucket = PyList_New(1);
    if (bucket == NULL) {
        Py_DECREF(key);
        return -1;
    }
    Py_INCREF(rec);
    PyList_SET_ITEM(bucket, 0, rec);
    if (PyDict_SetItem(ks->buckets, key, bucket) < 0) {
        Py_DECREF(bucket);
        Py_DECREF(key);
        return -1;
    }
    Py_XSETREF(ks->post_cache_bucket, bucket); /* steal the fresh ref */
    ks->post_cache_t = t;
    if (heap_push(ks->times, key) < 0) {
        Py_DECREF(key);
        return -1;
    }
    Py_DECREF(key);
    return 0;
}

/* Inlined schedule_arb(target): arm the router's activation token at
 * `target` unless an earlier-or-equal arming is pending. */
static int
arm_step(KState *ks, RState *rs, int64_t target)
{
    PyObject *arb = slot_get(rs->router, ks->r_arb_time);
    if (arb != NULL && arb != Py_None && as_ll(arb) <= target)
        return 0;
    if (slot_set_ll(rs->router, ks->r_arb_time, target) < 0)
        return -1;
    return ck_post(ks, target, rs->token);
}

/* ------------------------------------------------------------------ */
/* lowered OP_GEN / OP_DELIVER handlers (twins of LowerState.gen /     */
/* LowerState.deliver in repro/engine/kernel.py)                       */
/* ------------------------------------------------------------------ */

static int
c_gen(KState *ks, LState *ls, PyObject *rec, int64_t t, PyObject *t_obj)
{
    int64_t node, dst, src_router, dst_router, key, gap;
    PyObject *pkt, *q;
    RState *rs;

    if (t >= ls->end_time)
        return 0;
    node = as_ll(PyTuple_GET_ITEM(rec, 1));

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

    src_router = node / ls->p;
    dst_router = dst / ls->p;
    ls->pid += 1;

    {
        /* Direct-slot twin of Packet.__init__(pid, size, src_node,
         * src_router, src_group, dst_node, dst_router, dst_group,
         * dst_local_router, dst_node_port, gen_time, base_latency):
         * tp_alloc leaves every slot NULL, then each store below
         * mirrors one assignment (including the derived defaults), so
         * the object is indistinguishable from a constructor call
         * without bouncing through the interpreted __init__ per
         * packet. */
        PyTypeObject *tp = (PyTypeObject *)ls->packet_type;
        PyObject *sg_obj, *v;
        pkt = tp->tp_alloc(tp, 0);
        if (pkt == NULL)
            return -1;
#define PKT_SET(slot, expr)                                             \
        do {                                                            \
            v = (expr);                                                 \
            if (v == NULL) {                                            \
                Py_DECREF(pkt);                                         \
                return -1;                                              \
            }                                                           \
            slot_set(pkt, ks->ps.slot, v);                              \
        } while (0)
        PKT_SET(pid, PyLong_FromLongLong((long long)ls->pid));
        PKT_SET(size, Py_NewRef(ls->psize_obj));
        PKT_SET(src_node, Py_NewRef(PyTuple_GET_ITEM(rec, 1)));
        PKT_SET(src_router, PyLong_FromLongLong((long long)src_router));
        sg_obj = PyLong_FromLongLong((long long)(src_router / ls->a));
        PKT_SET(src_group, sg_obj);
        PKT_SET(current_group, Py_NewRef(sg_obj));
        PKT_SET(dst_node, PyLong_FromLongLong((long long)dst));
        PKT_SET(dst_router, PyLong_FromLongLong((long long)dst_router));
        PKT_SET(dst_group,
                PyLong_FromLongLong((long long)(dst_router / ls->a)));
        PKT_SET(dst_local_router,
                PyLong_FromLongLong((long long)(dst_router % ls->a)));
        PKT_SET(dst_node_port,
                PyLong_FromLongLong((long long)(dst % ls->p)));
        PKT_SET(gen_time, Py_NewRef(t_obj));
        PKT_SET(t_enq, Py_NewRef(t_obj));
        PKT_SET(base_latency,
                PyLong_FromLongLong(
                    (long long)ls->ms_table[src_router * ls->R
                                            + dst_router]));
        PKT_SET(inject_time, PyLong_FromLong(-1));
        PKT_SET(inter_router, PyLong_FromLong(-1));
        PKT_SET(inter_group, PyLong_FromLong(-1));
        PKT_SET(wait_local, PyLong_FromLong(0));
        PKT_SET(wait_global, PyLong_FromLong(0));
        PKT_SET(service_sum, PyLong_FromLong(0));
        PKT_SET(local_hops, PyLong_FromLong(0));
        PKT_SET(global_hops, PyLong_FromLong(0));
        PKT_SET(group_local_hops, PyLong_FromLong(0));
        PKT_SET(plan, PyLong_FromLong(0));
#undef PKT_SET
        /* Every slot holds an int for the packet's whole life, so it
         * can never close a reference cycle: untrack it and the young
         * generation stops paying a traversal per live packet. */
        PyObject_GC_UnTrack(pkt);
    }

    ls->si[SI_TOTAL_GENERATED] += 1;
    if (t >= ls->ws && t < ls->we) {
        ls->si[SI_GEN_PHITS] += ls->psize;
        ls->si[SI_GEN_PACKETS] += 1;
    }

    /* inlined Router.inject(node % p, pkt, t); Packet.__init__ already
     * set t_enq = gen_time = t */
    rs = &ks->routers[src_router];
    key = (node % ls->p) * rs->max_vcs;
    q = PyList_GET_ITEM(ks->in_q, rs->kb + key);
    {
        int ar = PyList_Append(q, pkt);
        Py_DECREF(pkt);
        if (ar < 0)
            return -1;
    }
    if (PySet_Add(rs->active_keys, ks->key_objs[key]) < 0)
        return -1;
    if (arm_step(ks, rs, t) < 0)
        return -1;

    /* inlined geometric_gap over the precomputed log(1 - p) */
    if (!ls->has_log_q)
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
    return ck_post(ks, t + gap, rec);
}

static int
c_deliver(KState *ks, LState *ls, PyObject *pkt, int64_t t)
{
    int64_t n, xi;
    double x, mean, delta;

    ls->si[SI_TOTAL_DELIVERED] += 1;
    if (!(t >= ls->ws && t < ls->we))
        return 0;
    ls->si[SI_DEL_PHITS] += slot_ll(pkt, ks->ps.size);
    n = ls->si[SI_DEL_PACKETS] + 1;
    ls->si[SI_DEL_PACKETS] = n;
    ls->del_router[slot_ll(pkt, ks->ps.dst_router)] += 1;

    xi = t - slot_ll(pkt, ks->ps.gen_time);
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
    {
        int64_t base = slot_ll(pkt, ks->ps.base_latency);
        ls->sf[SF_BD_INJ] += (double)(slot_ll(pkt, ks->ps.inject_time)
                                      - slot_ll(pkt, ks->ps.gen_time));
        ls->sf[SF_BD_LOCAL] += (double)slot_ll(pkt, ks->ps.wait_local);
        ls->sf[SF_BD_GLOBAL] += (double)slot_ll(pkt, ks->ps.wait_global);
        ls->sf[SF_BD_BASE] += (double)base;
        ls->sf[SF_BD_MIS] +=
            (double)(slot_ll(pkt, ks->ps.service_sum) - base);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* decision memo (mirrors the inlined cache blocks in kernel.step)     */
/* ------------------------------------------------------------------ */

/* dc_pkt/dc_dec/dc_cond[gk] = pkt/dec/cond; steals the ref to `cond`. */
static int
set_memo(KState *ks, Py_ssize_t gk, PyObject *pkt, PyObject *dec,
         PyObject *cond)
{
    Py_INCREF(pkt);
    PyList_SetItem(ks->dc_pkt, gk, pkt);
    Py_INCREF(dec);
    PyList_SetItem(ks->dc_dec, gk, dec);
    PyList_SetItem(ks->dc_cond, gk, cond);
    return 0;
}

/* ------------------------------------------------------------------ */
/* routing-decision twins                                              */
/* ------------------------------------------------------------------ */

/* Every twin fills a Verdict and returns 0, or returns 1 on a branch
 * where the Python reference raises (VC overflow, a degenerate
 * randrange) or cannot return — leaving packet, store and RNG as a
 * re-run of the reference expects to find them: the caller then runs the
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
c_min_walk(KState *ks, RState *rs, PyObject *pkt, int64_t target, Verdict *v)
{
    static const int64_t pos_base[3] = {0, 1, 3}; /* vc._POSITION_BASE */
    const Twin *tw = &ks->twin;
    int64_t tg, ti, gh, gw_pos;

    v->action = v->aux = 0;
    v->pure = 1;
    v->guard = GUARD_STABLE;
    if (rs->rid == target) { /* eject_decision(pkt) */
        v->port = slot_ll(pkt, ks->ps.dst_node_port);
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
    gh = slot_ll(pkt, ks->ps.global_hops);
    if (v->port >= tw->first_global) {
        v->vc = gh;
        if (v->vc >= tw->n_global_vcs)
            return 1; /* position_global_vc raises */
    }
    else {
        if (gh < 0 || gh > 2)
            return 1; /* _POSITION_BASE[gh] raises IndexError */
        v->vc = pos_base[gh] + slot_ll(pkt, ks->ps.group_local_hops);
        if (v->vc >= tw->n_local_vcs)
            return 1; /* position_local_vc raises */
    }
    return 0;
}

/* C twin of MinimalRouting.decide (repro/routing/minimal.py). */
static int
c_min_decide(KState *ks, RState *rs, PyObject *pkt, Verdict *v)
{
    return c_min_walk(ks, rs, pkt, slot_ll(pkt, ks->ps.dst_router), v);
}

/* ---- source-routed mechanisms: oblivious Valiant and PiggyBack ------ */

/* Both freeze a plan the first time a packet heads its injection queue
 * (pkt.plan 0 -> 1 minimal, 2 via pkt.inter_router) and walk minimally
 * to the plan's target from then on.  A raise in the walk needs no
 * foresight: by then the plan is written and the draws are made exactly
 * as the reference makes them before it raises, so the Python decide()
 * the caller falls back to skips the freeze and raises from the same
 * state.  Only what would raise (or never return) *inside* the freeze is
 * checked before the first draw. */

/* Record the frozen plan on the packet: via router `inter`, or minimal
 * when `inter` < 0.  Returns the new pkt.plan, -1 on error. */
static int64_t
freeze_plan(KState *ks, PyObject *pkt, int64_t inter)
{
    if (inter >= 0 && slot_set_ll(pkt, ks->ps.inter_router, inter) < 0)
        return -1;
    if (slot_set_ll(pkt, ks->ps.plan, (inter >= 0) ? 2 : 1) < 0)
        return -1;
    return (inter >= 0) ? 2 : 1;
}

/* The shared tail: minimal towards the intermediate router while
 * plan == 2, towards the destination (ejecting there) when plan == 1. */
static int
c_plan_walk(KState *ks, RState *rs, PyObject *pkt, int64_t plan, Verdict *v)
{
    if (plan == 2) {
        int64_t inter = slot_ll(pkt, ks->ps.inter_router);
        if (inter == rs->rid)
            return 1; /* min_hop_port raises at its target */
        return c_min_walk(ks, rs, pkt, inter, v);
    }
    if (plan != 1)
        return 1;
    return c_min_walk(ks, rs, pkt, slot_ll(pkt, ks->ps.dst_router), v);
}

/* The groups this router's own global links reach, in port order and
 * without `dst_group` (the CRG list of _choose_intermediate and
 * _nonmin_candidate), into tw->cand; returns how many. */
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
 * (repro/routing/oblivious.py): `rng.choice` over the CRG list is one
 * _randbelow(len), RRG the randrange(groups) rejection loop. */
static int
c_oblivious_decide(KState *ks, RState *rs, PyObject *pkt, Verdict *v)
{
    Twin *tw = &ks->twin;
    int64_t plan = slot_ll(pkt, ks->ps.plan);

    if (plan == 0) {
        int64_t dst_group = slot_ll(pkt, ks->ps.dst_group);
        int64_t inter = -1, g;
        if (tw->crg) {
            int64_t cnt = crg_groups(tw, rs, dst_group);
            if (cnt > 0) {
                g = tw->cand[mt_randbelow(&tw->rng.mt, cnt, bit_length(cnt))];
                inter = random_router_of(tw, g);
            }
        }
        else {
            int64_t src_group = slot_ll(pkt, ks->ps.src_group);
            if (tw->groups < ((src_group == dst_group) ? 2 : 3))
                return 1; /* no third group: the reference loops forever */
            do
                g = mt_randbelow(&tw->rng.mt, tw->groups, tw->groups_bits);
            while (g == src_group || g == dst_group);
            inter = random_router_of(tw, g);
        }
        if ((plan = freeze_plan(ks, pkt, inter)) < 0)
            return -1;
    }
    return c_plan_walk(ks, rs, pkt, plan, v);
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

/* PiggybackGroupState._refresh: retake the group's snapshot rows when
 * the last one is at least `period` cycles old. */
static void
pb_refresh(KState *ks, int64_t group)
{
    const Twin *tw = &ks->twin;
    int64_t taken = ks->pb_snap_time[group], i, j;
    if (taken >= 0 && ks->now - taken < tw->pb_period[group])
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

/* PiggybackGroupState.saturated_global with `rs` the querier: its own
 * link live, anyone else's from the snapshot. */
static int
pb_saturated_global(KState *ks, const RState *rs, int64_t owner_pos,
                    int64_t j)
{
    const Twin *tw = &ks->twin;
    double t = tw->pb_t_global[rs->group];
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
pb_nonmin_candidate(KState *ks, const RState *rs, PyObject *pkt,
                    int64_t dst_group, int64_t *inter)
{
    Twin *tw = &ks->twin;
    int64_t cnt = 0, n;
    if (tw->crg) {
        cnt = crg_groups(tw, rs, dst_group);
        for (n = 0; n < cnt; n++)
            if (tw->cand[n] == rs->group)
                return 1;
    }
    else {
        int64_t src_group = slot_ll(pkt, ks->ps.src_group);
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

/* C twin of PiggybackRouting.decide (repro/routing/piggyback.py, the
 * reference): the source decision on the saturation bits — this router's
 * links live, the rest of the group from the snapshot rows of the SoA
 * store, which PiggybackGroupState reads and writes too. */
static int
c_piggyback_decide(KState *ks, RState *rs, PyObject *pkt, Verdict *v)
{
    int64_t plan = slot_ll(pkt, ks->ps.plan);

    if (plan == 0) {
        int64_t dst_group = slot_ll(pkt, ks->ps.dst_group);
        int64_t inter = -1;
        /* intra-group minimal: nothing to divert */
        if (dst_group != rs->group
            && pb_min_path_saturated(ks, rs, dst_group)
            && pb_nonmin_candidate(ks, rs, pkt, dst_group, &inter))
            return 1;
        if ((plan = freeze_plan(ks, pkt, inter)) < 0)
            return -1;
    }
    return c_plan_walk(ks, rs, pkt, plan, v);
}

/* OLM (the inlined precheck + _try_local_misroute of intransit.py):
 * `v` holds the minimal local hop of a packet that has taken no local
 * hop in this group yet; divert it through a third router when that hop
 * is credit-blocked.  Fills the purity / guard pair either way. */
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

/* Stage + escape VC for a hop outside the destination group (the
 * inlined repro.routing.vc staging of intransit.py).  Returns 1 where
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

/* The global-misroute candidate scan of the PAR branch: keep the
 * least-occupied first hop that is strictly better than `best_occ` and
 * not credit-blocked. */
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

/* C twin of InTransitAdaptiveRouting.decide (repro/routing/intransit.py,
 * the reference): same branches in the same order, the same congestion
 * counters read, and — through the in-kernel rng_routing mirror — the
 * same words drawn from the same stream.  The randomised candidate
 * generators (misrouting.nrg_candidates / rrg_candidates) and the CRG
 * filter are fused with the scan; the scan draws nothing, so generating
 * and judging a candidate in one step leaves the stream as the
 * generate-all-then-scan reference does. */
static int
c_intransit_decide(KState *ks, RState *rs, PyObject *pkt, Verdict *v)
{
    Twin *tw = &ks->twin;
    const PacketSlots *ps = &ks->ps;
    int64_t group = rs->group, pos = rs->pos;
    int64_t dst_group = slot_ll(pkt, ps->dst_group);
    int64_t glh = slot_ll(pkt, ps->group_local_hops);
    int64_t gh, inter, src_group, size, gw_pos;

    v->action = v->aux = 0;
    v->pure = 1;
    v->guard = GUARD_STABLE;

    /* Destination group: minimal local hop (or ejection), with OLM. */
    if (group == dst_group) {
        int64_t ti;
        if (rs->rid == slot_ll(pkt, ps->dst_router)) {
            v->port = slot_ll(pkt, ps->dst_node_port);
            v->vc = 0;
            return 0;
        }
        ti = slot_ll(pkt, ps->dst_local_router);
        v->port = tw->first_local + ((ti < pos) ? ti : ti - 1);
        v->vc = (glh >= 1) ? tw->n_local_vcs - 1 : 2;
        if (glh == 0)
            return c_olm(ks, rs, slot_ll(pkt, ps->size), ti, v);
        return 0;
    }

    gh = slot_ll(pkt, ps->global_hops);
    inter = slot_ll(pkt, ps->inter_group);

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

    src_group = slot_ll(pkt, ps->src_group);
    if (group == src_group && gh == 0) {
        /* PAR: global misrouting at injection or after one local hop. */
        int64_t gmin = rs->pb + v->port;
        Scan sc;
        int code, n;
        sc.size = size = slot_ll(pkt, ps->size);
        if (glh == 0) {
            /* Source router: proactive trigger on the output FIFO. */
            sc.best_occ = ks->out_occ[gmin];
            if (sc.best_occ < tw->thr_occ) {
                v->guard = GUARD_OUT_OCC;
                v->g_idx = gmin;
                v->g_val = sc.best_occ;
                return 0;
            }
            code = tw->code_source;
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
            code = tw->code_transit;
        }
        if (code == 1 && (tw->a < 2 || tw->h < 1))
            return 1; /* randrange(0) raises in nrg_candidates */
        sc.local_vc = (glh >= 1) ? tw->n_local_vcs - 1 : 0;
        sc.skip_local = (glh >= 2); /* third local hop forbidden */
        sc.best_port = -1;
        sc.best_vc = sc.best_inter = 0;
        if (code == 0) { /* CRG: this router's own global links */
            const int64_t *port = tw->go_port + pos * tw->h;
            const int64_t *off = tw->go_off + pos * tw->h;
            for (n = 0; n < tw->h; n++) {
                int64_t peer = pymod(group + off[n], tw->groups);
                if (peer != dst_group && peer != src_group)
                    scan_candidate(ks, rs, tw, &sc, port[n], peer);
            }
        }
        else if (code == 1) { /* NRG: via other routers of this group */
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
        v->pure = (code == 0);
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
        return c_olm(ks, rs, slot_ll(pkt, ps->size), gw_pos, v);
    return 0;
}

/* Small non-negative int as a new reference, from the prebuilt tables
 * where it is a port / VC. */
static inline PyObject *
small_int(PyObject **table, Py_ssize_t n, int64_t value)
{
    if (value >= 0 && value < n)
        return Py_NewRef(table[value]);
    return PyLong_FromLongLong((long long)value);
}

/* The decision tuple (out_port, out_vc, action, aux) of a Verdict. */
static PyObject *
verdict_tuple(KState *ks, const Verdict *v)
{
    PyObject *dec = PyTuple_New(4);
    int j;
    if (dec == NULL)
        return NULL;
    PyTuple_SET_ITEM(dec, 0, small_int(ks->port_objs, ks->radix, v->port));
    PyTuple_SET_ITEM(dec, 1, small_int(ks->vc_objs, ks->max_vcs, v->vc));
    PyTuple_SET_ITEM(dec, 2, PyLong_FromLongLong((long long)v->action));
    PyTuple_SET_ITEM(dec, 3, PyLong_FromLongLong((long long)v->aux));
    for (j = 0; j < 4; j++) {
        if (PyTuple_GET_ITEM(dec, j) == NULL) {
            Py_DECREF(dec); /* the tuple releases the items it got */
            return NULL;
        }
    }
    return dec;
}

/* The dc_cond memo condition for a pure twin verdict (new reference):
 * None, the epoch, or the (kind, flat index, value) guard tuple — the
 * same three forms the Python kernel stores. */
static PyObject *
verdict_cond(const Verdict *v, int64_t epoch)
{
    if (v->guard == GUARD_STABLE)
        return Py_NewRef(Py_None);
    if (v->guard == GUARD_EPOCH)
        return PyLong_FromLongLong((long long)epoch);
    /* the hot case (every below-threshold source-router decision):
     * built by hand, Py_BuildValue would parse its format per call */
    {
        PyObject *cond = PyTuple_New(3);
        if (cond == NULL)
            return NULL;
        PyTuple_SET_ITEM(cond, 0, PyLong_FromLong(v->guard));
        PyTuple_SET_ITEM(cond, 1, PyLong_FromLongLong((long long)v->g_idx));
        PyTuple_SET_ITEM(cond, 2, PyLong_FromLongLong((long long)v->g_val));
        if (PyTuple_GET_ITEM(cond, 1) == NULL
            || PyTuple_GET_ITEM(cond, 2) == NULL)
            Py_CLEAR(cond);
        return cond;
    }
}

/* routing.decide(pkt, router) in Python.  When a twin stands in for it
 * this is the raising-branch fallback: the reference must see (and may
 * advance) the RNG streams the kernel holds, so they are handed back
 * around the call. */
static PyObject *
py_decide(KState *ks, RState *rs, PyObject *pkt)
{
    PyObject *dec, *et, *ev, *tb;
    if (rs->twin == TWIN_NONE)
        return call2(rs->decide, pkt, rs->router);
    if (kstate_rng_out(ks) < 0)
        return NULL;
    dec = call2(rs->decide, pkt, rs->router);
    PyErr_Fetch(&et, &ev, &tb);
    if (kstate_rng_in(ks) < 0 && et == NULL) {
        Py_XDECREF(dec);
        return NULL;
    }
    if (et != NULL) {
        PyErr_Clear();
        PyErr_Restore(et, ev, tb);
    }
    return dec;
}

/* The dc_cond condition under which the decision just returned by the
 * Python decide() may be reused (cache policy 3, outside the committed
 * diversion): read off last_decide_pure / last_decide_guard.  Returns 0
 * with *cond NULL when the call consumed RNG, -1 on error. */
static int
py_decide_cond(KState *ks, RState *rs, int64_t epoch, PyObject **cond)
{
    PyObject *pure = PyObject_GetAttr(rs->routing, ks->s_last_decide_pure);
    PyObject *g;
    int is_pure;
    *cond = NULL;
    if (pure == NULL)
        return -1;
    is_pure = PyObject_IsTrue(pure);
    Py_DECREF(pure);
    if (is_pure <= 0)
        return is_pure;
    g = PyObject_GetAttr(rs->routing, ks->s_last_decide_guard);
    if (g == NULL)
        return -1;
    if (g == Py_None) {
        Py_DECREF(g);
        *cond = PyLong_FromLongLong((long long)epoch);
    }
    else if (PyTuple_GET_SIZE(g) > 0)
        *cond = g; /* single-counter guard (steal ref) */
    else {
        /* GUARD_STABLE: frozen-pure decision */
        Py_DECREF(g);
        *cond = Py_NewRef(Py_None);
    }
    return (*cond == NULL) ? -1 : 0;
}

/* The memoized decision for the head `pkt` at flat key `gk`, or a fresh
 * decide (twin or Python) with the cache-policy write-back.  Returns a
 * new reference, NULL on error.  `epoch` is the router's congestion
 * epoch read at scan start. */
static PyObject *
cached_or_decide(KState *ks, RState *rs, Py_ssize_t gk, PyObject *pkt,
                 int64_t epoch)
{
    PyObject *dec = NULL;
    Verdict v;
    int deferred;
    if (PyList_GET_ITEM(ks->dc_pkt, gk) == pkt) {
        PyObject *cond = PyList_GET_ITEM(ks->dc_cond, gk);
        int valid;
        if (cond == Py_None)
            valid = 1;
        else if (PyTuple_CheckExact(cond)) {
            int64_t c1 = as_ll(PyTuple_GET_ITEM(cond, 1));
            int64_t have = as_ll(PyTuple_GET_ITEM(cond, 0))
                               ? ks->credits_used[c1]
                               : ks->out_occ[c1];
            valid = (have == as_ll(PyTuple_GET_ITEM(cond, 2)));
        }
        else
            valid = (as_ll(cond) == epoch);
        if (valid) {
            dec = PyList_GET_ITEM(ks->dc_dec, gk);
            Py_INCREF(dec);
            return dec;
        }
    }
    switch (rs->twin) {
    case TWIN_MIN:
        deferred = c_min_decide(ks, rs, pkt, &v);
        break;
    case TWIN_OBLIVIOUS:
        deferred = c_oblivious_decide(ks, rs, pkt, &v);
        break;
    case TWIN_PIGGYBACK:
        deferred = c_piggyback_decide(ks, rs, pkt, &v);
        break;
    case TWIN_INTRANSIT:
        deferred = c_intransit_decide(ks, rs, pkt, &v);
        break;
    default: /* TWIN_NONE */
        deferred = 1;
        break;
    }
    if (deferred < 0)
        return NULL;
    dec = deferred ? py_decide(ks, rs, pkt) : verdict_tuple(ks, &v);
    if (dec == NULL)
        return NULL;
    switch (rs->cache_policy) {
    case 1:
        set_memo(ks, gk, pkt, dec, Py_NewRef(Py_None));
        break;
    case 2:
        if (slot_ll(pkt, ks->ps.plan))
            set_memo(ks, gk, pkt, dec, Py_NewRef(Py_None));
        break;
    case 3:
        if (slot_ll(pkt, ks->ps.inter_group) >= 0
            && rs->group != slot_ll(pkt, ks->ps.dst_group)) {
            set_memo(ks, gk, pkt, dec, Py_NewRef(Py_None));
        }
        else {
            PyObject *cond = NULL;
            if (!deferred) {
                if (v.pure && (cond = verdict_cond(&v, epoch)) == NULL) {
                    Py_DECREF(dec);
                    return NULL;
                }
            }
            else if (py_decide_cond(ks, rs, epoch, &cond) < 0) {
                Py_DECREF(dec);
                return NULL;
            }
            if (cond != NULL)
                set_memo(ks, gk, pkt, dec, cond);
        }
        break;
    default:
        break;
    }
    return dec;
}

/* ------------------------------------------------------------------ */
/* phase handlers                                                      */
/* ------------------------------------------------------------------ */

static int
c_commit(KState *ks, RState *rs, int64_t out_port, int64_t gout,
         int64_t key, Py_ssize_t gk, PyObject *pkt, PyObject *dec,
         int64_t now, PyObject *now_obj)
{
    int64_t in_port = key / rs->max_vcs;
    int64_t gin = rs->pb + in_port;
    int64_t out_vc = as_ll(PyTuple_GET_ITEM(dec, 1));
    int64_t size = slot_ll(pkt, ks->ps.size);
    PyObject *q = PyList_GET_ITEM(ks->in_q, gk);
    Py_ssize_t qlen;
    if (PyList_SetSlice(q, 0, 1, NULL) < 0)
        return -1;
    qlen = PyList_GET_SIZE(q);
    if (qlen < 0)
        return -1;
    if (qlen == 0
        && PySet_Discard(rs->active_keys, ks->key_objs[key]) < 0)
        return -1;
    PyList_SetItem(ks->dc_pkt, gk, Py_NewRef(Py_None));
    ks->cong_epoch[rs->rid] += 1;
    ks->in_port_free[gin] = now + rs->internal;
    ks->switch_free[gout] = now + rs->internal;
    ks->out_occ[gout] += size;

    if (in_port < rs->num_node_ports) {
        Py_INCREF(now_obj);
        slot_set(pkt, ks->ps.inject_time, now_obj);
        if (ks->low != NULL) {
            /* inlined LowerState.on_injection (which is what
             * rs->on_injection is bound to on a lowered run) */
            LState *ls = ks->low;
            ls->si[SI_TOTAL_INJECTED] += 1;
            if (now >= ls->ws && now < ls->we)
                ls->inj_router[rs->rid] += 1;
        }
        else {
            PyObject *res = PyObject_CallFunctionObjArgs(
                rs->on_injection, rs->rid_obj, now_obj, NULL);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
        }
    }
    else {
        int64_t wait = now - slot_ll(pkt, ks->ps.t_enq);
        PyObject *rec;
        if (wait) {
            Py_ssize_t woff =
                ks->local_in[gin] ? ks->ps.wait_local : ks->ps.wait_global;
            if (slot_set_ll(pkt, woff, slot_ll(pkt, woff) + wait) < 0)
                return -1;
        }
        ks->in_occ[gk] -= size;
        if (ks->chk && ks->in_occ[gk] < 0) {
            PyErr_Format(ks->flow_err,
                         "router %lld: negative input occupancy "
                         "port %lld vc %lld",
                         (long long)rs->rid, (long long)in_port,
                         (long long)(key - in_port * rs->max_vcs));
            return -1;
        }
        rec = PyList_GET_ITEM(ks->credit_recs, gk);
        if (rec != Py_None) {
            int64_t t = now + rs->internal + ks->link_lat[gin];
            int r;
            if (size != rs->psize) {
                PyObject *size_obj = PyLong_FromLongLong((long long)size);
                PyObject *fresh;
                if (size_obj == NULL)
                    return -1;
                fresh = PyTuple_Pack(5, ks->op_credit,
                                     PyTuple_GET_ITEM(rec, 1),
                                     PyTuple_GET_ITEM(rec, 2),
                                     PyTuple_GET_ITEM(rec, 3), size_obj);
                Py_DECREF(size_obj);
                if (fresh == NULL)
                    return -1;
                r = ck_post(ks, t, fresh);
                Py_DECREF(fresh);
            }
            else
                r = ck_post(ks, t, rec);
            if (r < 0)
                return -1;
        }
    }

    if (ks->credit_nvc[gout]) {
        int64_t ck = rs->kb + out_port * rs->max_vcs + out_vc;
        ks->credits_used[ck] += size;
        if (ks->chk && ks->credits_used[ck] > ks->credit_cap[gout]) {
            PyErr_Format(ks->flow_err,
                         "router %lld: credit overcommit on port "
                         "%lld vc %lld",
                         (long long)rs->rid, (long long)out_port,
                         (long long)out_vc);
            return -1;
        }
    }

    if (rs->commit_override == NULL) {
        /* Inlined RoutingMechanism.commit (hop ledger + diversion). */
        if (ks->local_in[gout]) {
            int64_t glh = slot_ll(pkt, ks->ps.group_local_hops) + 1;
            if (slot_set_ll(pkt, ks->ps.local_hops,
                            slot_ll(pkt, ks->ps.local_hops) + 1) < 0)
                return -1;
            if (slot_set_ll(pkt, ks->ps.group_local_hops, glh) < 0)
                return -1;
            if (glh > 2) {
                PyErr_Format(ks->routing_err,
                             "packet %lld took a third local hop in group "
                             "%lld; VC safety would be violated",
                             (long long)slot_ll(pkt, ks->ps.pid),
                             (long long)rs->group);
                return -1;
            }
        }
        else if (ks->global_out[gout]) {
            if (slot_set_ll(pkt, ks->ps.global_hops,
                            slot_ll(pkt, ks->ps.global_hops) + 1) < 0)
                return -1;
        }
        if (as_ll(PyTuple_GET_ITEM(dec, 2)) == 1) {
            PyObject *aux = PyTuple_GET_ITEM(dec, 3);
            Py_INCREF(aux);
            slot_set(pkt, ks->ps.inter_group, aux);
        }
    }
    else {
        PyObject *res = PyObject_CallFunctionObjArgs(
            rs->commit_override, pkt, rs->router, dec, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    if (slot_set_ll(pkt, ks->ps.service_sum,
                    slot_ll(pkt, ks->ps.service_sum)
                        + ks->hop_cost[gout]) < 0)
        return -1;
    {
        /* switch traversal -> OP_OUT_ARRIVE after the pipeline latency */
        PyObject *rec = PyTuple_Pack(5, ks->op_out_arrive, rs->router,
                                     ks->port_objs[out_port], pkt,
                                     ks->vc_objs[out_vc]);
        int r;
        if (rec == NULL)
            return -1;
        r = ck_post(ks, now + rs->pipe_lat, rec);
        Py_DECREF(rec);
        if (r < 0)
            return -1;
    }
    return 0;
}

/* The consolidated allocation pass (kernel.step).  The Python kernel's
 * single-head fast path is by construction byte-identical to the
 * general scan restricted to one key, so only the general scan exists
 * here. */
static int
c_step(KState *ks, RState *rs, int64_t now, PyObject *now_obj)
{
    PyObject *set = rs->active_keys;
    Py_ssize_t n_act, n_dead = 0, n_cand = 0, n_ports = 0;
    int64_t next_time = -1; /* -1 = None */
    int granted = 0, td_active = 0;
    int64_t epoch = ks->cong_epoch[rs->rid];
    Py_ssize_t i;
    int rc = -1;

    slot_set(rs->router, ks->r_arb_time, Py_NewRef(Py_None));
    n_act = PySet_GET_SIZE(set);
    if (n_act == 0)
        return 0;

    /* Snapshot the active keys in the set's own iteration order (the
     * Python kernel iterates the live set; nothing mutates it during
     * the scan, so the snapshot order is identical).  _PySet_NextEntry
     * walks the same table in the same order as the set iterator,
     * without the iterator object or per-item calls. */
    if (PySet_CheckExact(set)) {
        Py_ssize_t pos = 0, j = 0;
        PyObject *k;
        Py_hash_t hash;
        while (_PySet_NextEntry(set, &pos, &k, &hash))
            ks->scr_keys[j++] = as_ll(k);
        n_act = j;
    }
    else {
        PyObject *it = PyObject_GetIter(set);
        PyObject *k;
        Py_ssize_t j = 0;
        if (it == NULL)
            return -1;
        while ((k = PyIter_Next(it)) != NULL) {
            ks->scr_keys[j++] = as_ll(k);
            Py_DECREF(k);
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            return -1;
        n_act = j;
    }
    memset(ks->td_mask, 0, (size_t)rs->radix);

    for (i = 0; i < n_act; i++) {
        int64_t key = ks->scr_keys[i];
        Py_ssize_t gk = (Py_ssize_t)(rs->kb + key);
        PyObject *q = PyList_GET_ITEM(ks->in_q, gk);
        Py_ssize_t qlen = PyList_GET_SIZE(q);
        int is_transit;
        int64_t t_free, out_port, gout, t_sw, size;
        PyObject *pkt, *dec;
        if (qlen == 0) {
            ks->scr_dead[n_dead++] = key;
            continue;
        }
        is_transit = (key >= rs->boundary);
        t_free = ks->in_port_free[ks->key_port[gk]];
        if (t_free > now) {
            if (next_time < 0 || t_free < next_time)
                next_time = t_free;
            if (is_transit && rs->transit_priority) {
                /* still assert this head's demand for priority masking */
                pkt = Py_NewRef(PyList_GET_ITEM(q, 0));
                dec = cached_or_decide(ks, rs, gk, pkt, epoch);
                Py_DECREF(pkt);
                if (dec == NULL)
                    goto done;
                ks->td_mask[as_ll(PyTuple_GET_ITEM(dec, 0))] = 1;
                td_active = 1;
                Py_DECREF(dec);
            }
            continue;
        }
        pkt = Py_NewRef(PyList_GET_ITEM(q, 0));
        dec = cached_or_decide(ks, rs, gk, pkt, epoch);
        if (dec == NULL) {
            Py_DECREF(pkt);
            goto done;
        }
        out_port = as_ll(PyTuple_GET_ITEM(dec, 0));
        if (is_transit && rs->transit_priority) {
            ks->td_mask[out_port] = 1;
            td_active = 1;
        }
        gout = rs->pb + out_port;
        t_sw = ks->switch_free[gout];
        if (t_sw > now) {
            if (next_time < 0 || t_sw < next_time)
                next_time = t_sw;
            Py_DECREF(pkt);
            Py_DECREF(dec);
            continue;
        }
        size = slot_ll(pkt, ks->ps.size);
        if (ks->out_occ[gout] + size > ks->out_cap[gout]
            || (ks->credit_nvc[gout]
                && ks->credits_used[rs->kb + out_port * rs->max_vcs
                                    + as_ll(PyTuple_GET_ITEM(dec, 1))]
                           + size
                       > ks->credit_cap[gout])) {
            /* woken by release_output / release_credit */
            Py_DECREF(pkt);
            Py_DECREF(dec);
            continue;
        }
        /* candidate: chain it on its output port in first-seen order */
        ks->c_key[n_cand] = key;
        ks->c_pkt[n_cand] = pkt; /* holds the refs until cleanup */
        ks->c_dec[n_cand] = dec;
        ks->c_next[n_cand] = -1;
        if (ks->port_first[out_port] < 0) {
            ks->port_first[out_port] = n_cand;
            ks->order_ports[n_ports++] = out_port;
        }
        else
            ks->c_next[ks->port_last[out_port]] = n_cand;
        ks->port_last[out_port] = n_cand;
        n_cand++;
    }

    for (i = 0; i < n_dead; i++) {
        if (PySet_Discard(set, ks->key_objs[ks->scr_dead[i]]) < 0)
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
                     (Py_ssize_t)(rs->kb + ks->c_key[w]), ks->c_pkt[w],
                     ks->c_dec[w], now, now_obj) < 0)
            goto done;
        granted = 1;
    }

    {
        int64_t t;
        if (next_time >= 0)
            t = next_time;
        else if (granted && PySet_GET_SIZE(set) > 0)
            t = now + 1;
        else {
            rc = 0;
            goto done;
        }
        /* _arb_time is None throughout a pass: arm unconditionally */
        if (slot_set_ll(rs->router, ks->r_arb_time, t) < 0)
            goto done;
        if (ck_post(ks, t, rs->token) < 0)
            goto done;
        rc = 0;
    }

done:
    for (i = 0; i < n_cand; i++) {
        Py_DECREF(ks->c_pkt[i]);
        Py_DECREF(ks->c_dec[i]);
    }
    /* reset the per-port chains we touched */
    for (i = 0; i < n_ports; i++)
        ks->port_first[ks->order_ports[i]] = -1;
    return rc;
}

static int
c_arrive(KState *ks, RState *rs, int64_t port, int64_t vc, PyObject *pkt,
         int64_t now, PyObject *now_obj)
{
    int64_t key = port * rs->max_vcs + vc;
    Py_ssize_t gk = (Py_ssize_t)(rs->kb + key);
    PyObject *q = PyList_GET_ITEM(ks->in_q, gk);
    PyObject *res;
    int64_t wake;
    if (q == Py_None) {
        PyErr_Format(ks->flow_err,
                     "router %lld: arrival on invalid VC (port %lld, "
                     "vc %lld)",
                     (long long)rs->rid, (long long)port, (long long)vc);
        return -1;
    }
    ks->in_occ[gk] += slot_ll(pkt, ks->ps.size);
    if (ks->chk && ks->in_occ[gk] > ks->in_cap[gk]) {
        PyErr_Format(ks->flow_err,
                     "router %lld: input buffer overflow on port %lld "
                     "vc %lld: %lld > %lld",
                     (long long)rs->rid, (long long)port, (long long)vc,
                     (long long)ks->in_occ[gk], (long long)ks->in_cap[gk]);
        return -1;
    }
    Py_INCREF(now_obj);
    slot_set(pkt, ks->ps.t_enq, now_obj);
    if (rs->arrival_override == NULL) {
        /* Inlined RoutingMechanism.on_arrival. */
        if (rs->group != slot_ll(pkt, ks->ps.current_group)) {
            if (slot_set_ll(pkt, ks->ps.current_group, rs->group) < 0)
                return -1;
            if (slot_set_ll(pkt, ks->ps.group_local_hops, 0) < 0)
                return -1;
            if (slot_ll(pkt, ks->ps.inter_group) == rs->group
                && slot_set_ll(pkt, ks->ps.inter_group, -1) < 0)
                return -1;
        }
        if (slot_ll(pkt, ks->ps.plan) == 2
            && rs->rid == slot_ll(pkt, ks->ps.inter_router)
            && slot_set_ll(pkt, ks->ps.plan, 1) < 0)
            return -1;
    }
    else {
        res = PyObject_CallFunctionObjArgs(rs->arrival_override, pkt,
                                           rs->router,
                                           ks->port_objs[port], NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    if (PyList_Append(q, pkt) < 0)
        return -1;
    if (PySet_Add(rs->active_keys, ks->key_objs[key]) < 0)
        return -1;
    wake = ks->in_port_free[rs->pb + port];
    if (wake < now)
        wake = now;
    return arm_step(ks, rs, wake);
}

static int
c_send(KState *ks, RState *rs, int64_t port, int64_t now, PyObject *now_obj)
{
    int64_t gp = rs->pb + port;
    PyObject *fifo = PyList_GET_ITEM(ks->out_fifo, gp);
    PyObject *entry;
    PyObject *pkt, *vc, *rec, *peer;
    int64_t t_arr, wait, size, free_t;
    Py_ssize_t flen;
    int r;
    if (PyList_GET_SIZE(fifo) == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty output fifo");
        return -1;
    }
    entry = PyList_GET_ITEM(fifo, 0);
    Py_INCREF(entry);
    if (PyList_SetSlice(fifo, 0, 1, NULL) < 0) {
        Py_DECREF(entry);
        return -1;
    }
    pkt = PyTuple_GET_ITEM(entry, 0);
    vc = PyTuple_GET_ITEM(entry, 1);
    t_arr = as_ll(PyTuple_GET_ITEM(entry, 2));
    wait = now - t_arr;
    if (wait) {
        Py_ssize_t woff =
            ks->global_out[gp] ? ks->ps.wait_global : ks->ps.wait_local;
        if (slot_set_ll(pkt, woff, slot_ll(pkt, woff) + wait) < 0)
            goto fail;
    }
    size = slot_ll(pkt, ks->ps.size);
    free_t = now + size;
    ks->link_free[gp] = free_t;
    flen = PyList_GET_SIZE(fifo);
    if (flen > 0) {
        /* busy link: merged tail release + next transmission */
        if (size == rs->psize) {
            rec = PyList_GET_ITEM(rs->link_recs, port);
            Py_INCREF(rec);
        }
        else {
            PyObject *size_obj = PyLong_FromLongLong((long long)size);
            if (size_obj == NULL)
                goto fail;
            rec = PyTuple_Pack(4, ks->op_link, rs->router,
                               ks->port_objs[port], size_obj);
            Py_DECREF(size_obj);
            if (rec == NULL)
                goto fail;
        }
    }
    else {
        ks->out_pumping[gp] = 0;
        if (size == rs->psize) {
            rec = PyList_GET_ITEM(rs->rel_recs, port);
            Py_INCREF(rec);
        }
        else {
            PyObject *size_obj = PyLong_FromLongLong((long long)size);
            if (size_obj == NULL)
                goto fail;
            rec = PyTuple_Pack(4, ks->op_release, rs->router,
                               ks->port_objs[port], size_obj);
            Py_DECREF(size_obj);
            if (rec == NULL)
                goto fail;
        }
    }
    r = ck_post(ks, free_t, rec);
    Py_DECREF(rec);
    if (r < 0)
        goto fail;
    peer = PyList_GET_ITEM(rs->out_peer, port);
    if (peer == Py_None)
        rec = PyTuple_Pack(2, ks->op_deliver, pkt);
    else
        rec = PyTuple_Pack(5, ks->op_arrive, PyTuple_GET_ITEM(peer, 0),
                           PyTuple_GET_ITEM(peer, 1), vc, pkt);
    if (rec == NULL)
        goto fail;
    r = ck_post(ks, free_t + ks->link_lat[gp], rec);
    Py_DECREF(rec);
    if (r < 0)
        goto fail;
    Py_DECREF(entry);
    return 0;
fail:
    Py_DECREF(entry);
    return -1;
}

static int
c_output_enqueue(KState *ks, RState *rs, int64_t port, PyObject *pkt,
                 PyObject *vc, int64_t now, PyObject *now_obj)
{
    int64_t gp = rs->pb + port;
    PyObject *fifo = PyList_GET_ITEM(ks->out_fifo, gp);
    PyObject *entry = PyTuple_Pack(3, pkt, vc, now_obj);
    int64_t dep;
    if (entry == NULL)
        return -1;
    {
        int ar = PyList_Append(fifo, entry);
        Py_DECREF(entry);
        if (ar < 0)
            return -1;
    }
    if (ks->out_pumping[gp])
        return 0;
    dep = ks->link_free[gp];
    if (dep < now)
        dep = now;
    ks->out_pumping[gp] = 1;
    return ck_post(ks, dep, PyList_GET_ITEM(rs->send_recs, port));
}

static int
c_release_output(KState *ks, RState *rs, int64_t port, int64_t size,
                 int64_t now)
{
    int64_t gp = rs->pb + port;
    ks->cong_epoch[rs->rid] += 1;
    ks->out_occ[gp] -= size;
    if (ks->chk && ks->out_occ[gp] < 0) {
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
    ks->cong_epoch[rs->rid] += 1;
    ks->credits_used[ck] -= size;
    if (ks->chk && ks->credits_used[ck] < 0) {
        PyErr_Format(ks->flow_err,
                     "router %lld: negative credits port %lld vc %lld",
                     (long long)rs->rid, (long long)port, (long long)vc);
        return -1;
    }
    return arm_step(ks, rs, now);
}

static int
c_link_step(KState *ks, RState *rs, int64_t port, int64_t size, int64_t now,
            PyObject *now_obj)
{
    int64_t gp = rs->pb + port;
    ks->cong_epoch[rs->rid] += 1;
    ks->out_occ[gp] -= size;
    if (ks->chk && ks->out_occ[gp] < 0) {
        PyErr_Format(ks->flow_err,
                     "router %lld: negative output occupancy port %lld",
                     (long long)rs->rid, (long long)port);
        return -1;
    }
    if (arm_step(ks, rs, now) < 0)
        return -1;
    return c_send(ks, rs, port, now, now_obj);
}

/* ------------------------------------------------------------------ */
/* dispatch                                                            */
/* ------------------------------------------------------------------ */

/* Generic Python-level dispatch for records whose target object is not
 * a registered router (defensive; a bound simulation never produces
 * these, but OP_CALL callbacks could post anything). */
static int
dispatch_fallback(KState *ks, PyObject *rec, int64_t op, PyObject *t_obj)
{
    PyObject *r = PyTuple_GET_ITEM(rec, 1);
    PyObject *res = NULL;
    switch (op) {
    case 1: { /* OP_STEP with the _arb_time dirty-mark protocol */
        PyObject *arb = PyObject_GetAttrString(r, "_arb_time");
        int eq;
        if (arb == NULL)
            return -1;
        eq = PyObject_RichCompareBool(arb, t_obj, Py_EQ);
        Py_DECREF(arb);
        if (eq < 0)
            return -1;
        if (eq) {
            PyObject *ak;
            int truthy;
            if (PyObject_SetAttrString(r, "_arb_time", Py_None) < 0)
                return -1;
            ak = PyObject_GetAttrString(r, "active_keys");
            if (ak == NULL)
                return -1;
            truthy = PyObject_IsTrue(ak);
            Py_DECREF(ak);
            if (truthy < 0)
                return -1;
            if (truthy)
                res = PyObject_CallMethod(r, "step", "O", t_obj);
            else
                return 0;
        }
        else
            return 0;
        break;
    }
    case 3:
        res = PyObject_CallMethod(r, "output_enqueue", "OOOO",
                                  PyTuple_GET_ITEM(rec, 2),
                                  PyTuple_GET_ITEM(rec, 3),
                                  PyTuple_GET_ITEM(rec, 4), t_obj);
        break;
    case 2:
        res = PyObject_CallMethod(r, "arrive", "OOOO",
                                  PyTuple_GET_ITEM(rec, 2),
                                  PyTuple_GET_ITEM(rec, 3),
                                  PyTuple_GET_ITEM(rec, 4), t_obj);
        break;
    case 7:
        res = PyObject_CallMethod(r, "release_credit", "OOOO",
                                  PyTuple_GET_ITEM(rec, 2),
                                  PyTuple_GET_ITEM(rec, 3),
                                  PyTuple_GET_ITEM(rec, 4), t_obj);
        break;
    case 6:
        res = PyObject_CallMethod(r, "release_output", "OOO",
                                  PyTuple_GET_ITEM(rec, 2),
                                  PyTuple_GET_ITEM(rec, 3), t_obj);
        break;
    case 4:
        res = PyObject_CallMethod(r, "send", "OO",
                                  PyTuple_GET_ITEM(rec, 2), t_obj);
        break;
    case 5:
        res = PyObject_CallMethod(r, "link_step", "OOO",
                                  PyTuple_GET_ITEM(rec, 2),
                                  PyTuple_GET_ITEM(rec, 3), t_obj);
        break;
    default:
        PyErr_SetString(PyExc_RuntimeError, "unknown activation opcode");
        return -1;
    }
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static int
dispatch(KState *ks, PyObject *eq, PyObject *rec, int64_t t,
         PyObject *t_obj, Py_ssize_t *extra)
{
    int64_t op = as_ll(PyTuple_GET_ITEM(rec, 0));
    RState *rs;
    if (op == 0) { /* OP_CALL: generic callback */
        PyObject *res = PyObject_Call(PyTuple_GET_ITEM(rec, 1),
                                      PyTuple_GET_ITEM(rec, 2), NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    if (op == 9) { /* OP_GEN */
        PyObject *gen, *res;
        if (ks->low != NULL)
            return c_gen(ks, ks->low, rec, t, t_obj);
        gen = slot_get(eq, ks->eq_gen);
        res = PyObject_CallFunctionObjArgs(
            gen, PyTuple_GET_ITEM(rec, 1), NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    if (op == 8) { /* OP_DELIVER */
        PyObject *sink, *res;
        if (ks->low != NULL)
            return c_deliver(ks, ks->low, PyTuple_GET_ITEM(rec, 1), t);
        sink = slot_get(eq, ks->eq_sink);
        res = PyObject_CallFunctionObjArgs(
            sink, PyTuple_GET_ITEM(rec, 1), t_obj, NULL);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    rs = ptr_lookup(ks, PyTuple_GET_ITEM(rec, 1));
    if (rs == NULL) {
        if (op == 5)
            *extra += 1;
        return dispatch_fallback(ks, rec, op, t_obj);
    }
    switch (op) {
    case 1: { /* OP_STEP */
        PyObject *arb = slot_get(rs->router, ks->r_arb_time);
        if (arb != NULL && arb != Py_None && as_ll(arb) == t) {
            slot_set(rs->router, ks->r_arb_time, Py_NewRef(Py_None));
            if (PySet_GET_SIZE(rs->active_keys) > 0) {
                if (rs->py_step != NULL) {
                    PyObject *res = PyObject_CallFunctionObjArgs(
                        rs->py_step, t_obj, NULL);
                    if (res == NULL)
                        return -1;
                    Py_DECREF(res);
                    return 0;
                }
                return c_step(ks, rs, t, t_obj);
            }
        }
        return 0;
    }
    case 3:
        return c_output_enqueue(ks, rs,
                                as_ll(PyTuple_GET_ITEM(rec, 2)),
                                PyTuple_GET_ITEM(rec, 3),
                                PyTuple_GET_ITEM(rec, 4), t, t_obj);
    case 2:
        return c_arrive(ks, rs, as_ll(PyTuple_GET_ITEM(rec, 2)),
                        as_ll(PyTuple_GET_ITEM(rec, 3)),
                        PyTuple_GET_ITEM(rec, 4), t, t_obj);
    case 7:
        return c_release_credit(ks, rs, as_ll(PyTuple_GET_ITEM(rec, 2)),
                                as_ll(PyTuple_GET_ITEM(rec, 3)),
                                as_ll(PyTuple_GET_ITEM(rec, 4)), t);
    case 6:
        return c_release_output(ks, rs, as_ll(PyTuple_GET_ITEM(rec, 2)),
                                as_ll(PyTuple_GET_ITEM(rec, 3)), t);
    case 4:
        return c_send(ks, rs, as_ll(PyTuple_GET_ITEM(rec, 2)), t, t_obj);
    case 5: /* OP_LINK: weight 2 */
        *extra += 1;
        return c_link_step(ks, rs, as_ll(PyTuple_GET_ITEM(rec, 2)),
                           as_ll(PyTuple_GET_ITEM(rec, 3)), t, t_obj);
    default:
        PyErr_SetString(PyExc_RuntimeError, "unknown activation opcode");
        return -1;
    }
}

/* ------------------------------------------------------------------ */
/* KState construction                                                 */
/* ------------------------------------------------------------------ */

static int64_t *
attr_ints(PyObject *obj, const char *name, Py_ssize_t n)
{
    /* Copy an int-sequence attribute into a fresh int64 array of
     * exactly `n` entries. */
    PyObject *seq = PyObject_GetAttrString(obj, name);
    PyObject *fast;
    int64_t *out;
    Py_ssize_t i;
    if (seq == NULL)
        return NULL;
    fast = PySequence_Fast(seq, "gateway table is not a sequence");
    Py_DECREF(seq);
    if (fast == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s has unexpected length", name);
        return NULL;
    }
    out = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        out[i] = as_ll(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            PyMem_Free(out);
            return NULL;
        }
    }
    Py_DECREF(fast);
    return out;
}

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
 * two flat a*h tables. */
static int
twin_read_global_out(Twin *tw, PyObject *topo)
{
    PyObject *go = PyObject_GetAttrString(topo, "global_out");
    Py_ssize_t i, j;
    if (go == NULL)
        return -1;
    tw->go_port = PyMem_Malloc((size_t)(tw->a * tw->h + 1) * sizeof(int64_t));
    tw->go_off = PyMem_Malloc((size_t)(tw->a * tw->h + 1) * sizeof(int64_t));
    if (tw->go_port == NULL || tw->go_off == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (!PyList_Check(go) || PyList_GET_SIZE(go) != tw->a)
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
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(go);
    return 0;

bad_table:
    PyErr_SetString(PyExc_TypeError,
                    "topo.global_out is not an a x h table of pairs");
fail:
    Py_DECREF(go);
    return -1;
}

/* float(obj.<name>) */
static double
get_double_attr(PyObject *obj, const char *name, int *err)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    double d;
    if (v == NULL) {
        *err = 1;
        return 0.0;
    }
    d = PyFloat_AsDouble(v);
    if (d == -1.0 && PyErr_Occurred())
        *err = 1;
    Py_DECREF(v);
    return d;
}

/* What the PiggyBack twin runs on besides the shared tables: the
 * mechanism's local threshold, each PiggybackGroupState's period and
 * global threshold, and the snapshot rows of the store. */
static int
twin_read_piggyback(KState *ks, PyObject *store, PyObject *routing)
{
    Twin *tw = &ks->twin;
    PyObject *states = PyObject_GetAttrString(routing, "groups_state");
    Py_ssize_t g;
    int err = 0;
    if (states == NULL)
        return -1;
    if (!PyList_Check(states) || PyList_GET_SIZE(states) != tw->groups) {
        Py_DECREF(states);
        PyErr_SetString(PyExc_TypeError,
                        "routing.groups_state is not a list of one "
                        "state per group");
        return -1;
    }
    tw->pb_period = PyMem_Malloc((size_t)tw->groups * sizeof(int64_t));
    tw->pb_t_global = PyMem_Malloc((size_t)tw->groups * sizeof(double));
    if (tw->pb_period == NULL || tw->pb_t_global == NULL) {
        Py_DECREF(states);
        PyErr_NoMemory();
        return -1;
    }
    for (g = 0; g < tw->groups; g++) {
        PyObject *state = PyList_GET_ITEM(states, g);
        tw->pb_period[g] = get_ll_attr(state, "period", &err);
        tw->pb_t_global[g] = get_double_attr(state, "t_global", &err);
    }
    Py_DECREF(states);
    tw->t_local = get_double_attr(routing, "t_local", &err);
    if (err)
        return -1;
    ks->pb_snap = map_buffer(ks, store, "pb_snap",
                             ks->num_routers * (Py_ssize_t)tw->h);
    ks->pb_snap_sum = map_buffer(ks, store, "pb_snap_sum", ks->num_routers);
    ks->pb_snap_time =
        map_buffer(ks, store, "pb_snap_time", (Py_ssize_t)tw->groups);
    if (ks->pb_snap == NULL || ks->pb_snap_sum == NULL
        || ks->pb_snap_time == NULL)
        return -1;
    if (ks->num_routers != tw->groups * tw->a) {
        PyErr_SetString(PyExc_ValueError,
                        "store does not hold groups x a routers");
        return -1;
    }
    return 0;
}

/* Resolve the decide twin of *routing* (repro.routing.factory
 * .decide_twin is the one statement of the selection rule) and read the
 * constants it runs on.  A mechanism without a twin leaves kind ==
 * TWIN_NONE. */
static int
twin_build(KState *ks, PyObject *store, PyObject *routing)
{
    Twin *tw = &ks->twin;
    PyObject *mod, *name, *topo = NULL, *variant;
    size_t i;
    int err = 0, kind = TWIN_NONE;

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

    topo = PyObject_GetAttrString(routing, "topo");
    if (topo == NULL)
        return -1;
    tw->a = get_ll_attr(topo, "a", &err);
    tw->h = get_ll_attr(topo, "h", &err);
    tw->groups = get_ll_attr(topo, "groups", &err);
    tw->first_local = get_ll_attr(topo, "first_local_port", &err);
    tw->first_global = get_ll_attr(topo, "first_global_port", &err);
    tw->n_local_vcs = get_ll_attr(routing, "n_local_vcs", &err);
    tw->n_global_vcs = get_ll_attr(routing, "n_global_vcs", &err);
    if (err)
        goto fail;
    if (tw->a < 1 || tw->h < 0 || tw->groups < 1
        || tw->groups > (int64_t)UINT32_MAX || tw->a > (int64_t)UINT32_MAX
        || tw->h > (int64_t)UINT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "topology shape outside the decide twin's range");
        goto fail;
    }
    tw->gw_router =
        attr_ints(topo, "gw_router_by_delta", (Py_ssize_t)tw->groups);
    tw->gw_port = attr_ints(topo, "gw_port_by_delta", (Py_ssize_t)tw->groups);
    if (tw->gw_router == NULL || tw->gw_port == NULL)
        goto fail;
    if (kind == TWIN_MIN)
        goto done;

    /* Every other twin draws from rng_routing and reads this router's
     * global links (CRG, in all three families). */
    tw->a_bits = bit_length(tw->a);
    tw->am1_bits = bit_length(tw->a - 1);
    tw->h_bits = bit_length(tw->h);
    tw->groups_bits = bit_length(tw->groups);
    if (twin_read_global_out(tw, topo) < 0)
        goto fail;
    tw->cand = PyMem_Malloc(
        (size_t)(tw->h > PB_PROBES ? tw->h : PB_PROBES) * sizeof(int64_t));
    if (tw->cand == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    tw->rng.rng = PyObject_GetAttrString(routing, "rng");
    if (tw->rng.rng == NULL)
        goto fail;
    if (kind == TWIN_INTRANSIT) {
        tw->thr_occ = get_ll_attr(routing, "_thr_occ", &err);
        tw->code_source = (int)get_ll_attr(routing, "_code_source", &err);
        tw->code_transit = (int)get_ll_attr(routing, "_code_transit", &err);
        if (err)
            goto fail;
    }
    else { /* oblivious and PiggyBack come in two variants */
        variant = PyObject_GetAttrString(routing, "variant");
        if (variant == NULL)
            goto fail;
        tw->crg = PyUnicode_Check(variant)
                  && PyUnicode_CompareWithASCIIString(variant, "crg") == 0;
        Py_DECREF(variant);
        if (kind == TWIN_PIGGYBACK
            && twin_read_piggyback(ks, store, routing) < 0)
            goto fail;
    }
done:
    Py_DECREF(topo);
    tw->kind = kind;
    return 0;

fail:
    Py_XDECREF(topo);
    return -1;
}

static int
build_rstate(KState *ks, RState *rs, PyObject *r, PyObject *kernel_step)
{
    int err = 0;
    PyObject *hot2, *hot_in, *step_attr, *item;
    memset(rs, 0, sizeof(*rs));
    Py_INCREF(r);
    rs->router = r;
    rs->kb = get_ll_attr(r, "kb", &err);
    rs->pb = get_ll_attr(r, "pb", &err);
    rs->rid = get_ll_attr(r, "router_id", &err);
    rs->group = get_ll_attr(r, "group", &err);
    rs->boundary = get_ll_attr(r, "injection_boundary", &err);
    rs->max_vcs = get_ll_attr(r, "max_vcs", &err);
    rs->nkeys = get_ll_attr(r, "nkeys", &err);
    rs->radix = get_ll_attr(r, "radix", &err);
    rs->internal = get_ll_attr(r, "internal_cycles", &err);
    rs->num_node_ports = get_ll_attr(r, "_num_node_ports", &err);
    rs->psize = get_ll_attr(r, "_psize", &err);
    rs->pipe_lat = get_ll_attr(r, "_pipe_lat", &err);
    rs->pos = get_ll_attr(r, "pos", &err);
    if (err)
        return -1;
    item = PyObject_GetAttrString(r, "transit_priority");
    if (item == NULL)
        return -1;
    rs->transit_priority = PyObject_IsTrue(item);
    Py_DECREF(item);
    rs->routing = PyObject_GetAttrString(r, "routing");
    if (rs->routing == NULL || rs->routing == Py_None) {
        PyErr_SetString(PyExc_RuntimeError,
                        "router has no routing mechanism bound "
                        "(Simulation wiring incomplete)");
        return -1;
    }
    rs->decide = PyObject_GetAttrString(rs->routing, "decide");
    if (rs->decide == NULL)
        return -1;
    rs->cache_policy = get_ll_attr(rs->routing, "cache_policy", &err);
    if (err)
        return -1;
    /* The decide twin was resolved for the first router's mechanism and
     * applies to every router sharing that object (all of them, in a
     * Simulation). */
    rs->twin = (rs->routing == ks->twin.routing) ? ks->twin.kind : TWIN_NONE;
    /* Overridden hooks were detected by _bind_hot: _hot2[16] is the
     * commit override (or None), _hot_in[2] the arrival override. */
    hot2 = PyObject_GetAttrString(r, "_hot2");
    if (hot2 == NULL)
        return -1;
    if (!PyTuple_CheckExact(hot2)) {
        Py_DECREF(hot2);
        PyErr_SetString(PyExc_RuntimeError,
                        "router._bind_hot() has not run");
        return -1;
    }
    item = PyTuple_GET_ITEM(hot2, 16);
    rs->commit_override = (item == Py_None) ? NULL : Py_NewRef(item);
    Py_DECREF(hot2);
    hot_in = PyObject_GetAttrString(r, "_hot_in");
    if (hot_in == NULL)
        return -1;
    item = PyTuple_GET_ITEM(hot_in, 2);
    rs->arrival_override = (item == Py_None) ? NULL : Py_NewRef(item);
    Py_DECREF(hot_in);
    rs->on_injection = PyObject_GetAttrString(r, "_on_injection");
    rs->active_keys = PyObject_GetAttrString(r, "active_keys");
    rs->token = PyObject_GetAttrString(r, "_token");
    rs->send_recs = PyObject_GetAttrString(r, "_send_recs");
    rs->link_recs = PyObject_GetAttrString(r, "_link_recs");
    rs->rel_recs = PyObject_GetAttrString(r, "_rel_recs");
    rs->out_peer = PyObject_GetAttrString(r, "out_peer");
    if (rs->on_injection == NULL || rs->active_keys == NULL
        || rs->token == NULL || rs->send_recs == NULL
        || rs->link_recs == NULL || rs->rel_recs == NULL
        || rs->out_peer == NULL)
        return -1;
    if (!PySet_Check(rs->active_keys)) {
        PyErr_SetString(PyExc_TypeError, "active_keys is not a set");
        return -1;
    }
    rs->rid_obj = PyLong_FromLongLong((long long)rs->rid);
    if (rs->rid_obj == NULL)
        return -1;
    /* A router whose class overrides step gets the Python method. */
    step_attr = PyObject_GetAttrString((PyObject *)Py_TYPE(r), "step");
    if (step_attr == NULL)
        return -1;
    if (step_attr == kernel_step)
        rs->py_step = NULL;
    else {
        rs->py_step = PyObject_GetAttrString(r, "step");
        if (rs->py_step == NULL) {
            Py_DECREF(step_attr);
            return -1;
        }
    }
    Py_DECREF(step_attr);
    return 0;
}

static KState *
kstate_build(PyObject *eq, PyObject *store)
{
    KState *ks = PyMem_Calloc(1, sizeof(KState));
    PyObject *mod = NULL, *routers = NULL, *tmp = NULL;
    PyTypeObject *eq_tp, *pkt_tp, *r_tp;
    PyObject *kernel_step = NULL;
    Py_ssize_t i, K, P;
    int err = 0;

    if (ks == NULL) {
        PyErr_NoMemory();
        return NULL;
    }

    /* store geometry */
    ks->num_routers = (Py_ssize_t)get_ll_attr(store, "num_routers", &err);
    ks->radix = (Py_ssize_t)get_ll_attr(store, "radix", &err);
    ks->max_vcs = (Py_ssize_t)get_ll_attr(store, "max_vcs", &err);
    ks->nkeys = (Py_ssize_t)get_ll_attr(store, "nkeys", &err);
    if (err)
        goto fail;
    tmp = PyObject_GetAttrString(store, "typed");
    if (tmp == NULL)
        goto fail;
    if (!PyObject_IsTrue(tmp)) {
        Py_CLEAR(tmp);
        PyErr_SetString(PyExc_RuntimeError,
                        "compiled drain requires a typed SoA store "
                        "(SoAStore(..., typed=True))");
        goto fail;
    }
    Py_CLEAR(tmp);
    K = ks->num_routers * ks->nkeys;
    P = ks->num_routers * ks->radix;

    /* typed buffers */
    if ((ks->in_occ = map_buffer(ks, store, "in_occ", K)) == NULL
        || (ks->in_cap = map_buffer(ks, store, "in_cap", K)) == NULL
        || (ks->key_port = map_buffer(ks, store, "key_port", K)) == NULL
        || (ks->credits_used =
                map_buffer(ks, store, "credits_used", K)) == NULL
        || (ks->in_port_free =
                map_buffer(ks, store, "in_port_free", P)) == NULL
        || (ks->out_occ = map_buffer(ks, store, "out_occ", P)) == NULL
        || (ks->out_cap = map_buffer(ks, store, "out_cap", P)) == NULL
        || (ks->switch_free =
                map_buffer(ks, store, "switch_free", P)) == NULL
        || (ks->link_free = map_buffer(ks, store, "link_free", P)) == NULL
        || (ks->out_pumping =
                map_buffer(ks, store, "out_pumping", P)) == NULL
        || (ks->credit_nvc =
                map_buffer(ks, store, "credit_nvc", P)) == NULL
        || (ks->credit_cap =
                map_buffer(ks, store, "credit_cap", P)) == NULL
        || (ks->last_grant =
                map_buffer(ks, store, "last_grant", P)) == NULL
        || (ks->local_in = map_buffer(ks, store, "local_in", P)) == NULL
        || (ks->global_out =
                map_buffer(ks, store, "global_out", P)) == NULL
        || (ks->link_lat = map_buffer(ks, store, "link_lat", P)) == NULL
        || (ks->hop_cost = map_buffer(ks, store, "hop_cost", P)) == NULL
        || (ks->cong_epoch =
                map_buffer(ks, store, "cong_epoch", ks->num_routers))
               == NULL)
        goto fail;

    /* object-valued store fields */
    if ((ks->in_q = get_list(store, "in_q")) == NULL
        || (ks->dc_pkt = get_list(store, "dc_pkt")) == NULL
        || (ks->dc_dec = get_list(store, "dc_dec")) == NULL
        || (ks->dc_cond = get_list(store, "dc_cond")) == NULL
        || (ks->credit_recs = get_list(store, "credit_recs")) == NULL
        || (ks->out_fifo = get_list(store, "out_fifo")) == NULL)
        goto fail;

    /* queue structures + slot offsets */
    eq_tp = Py_TYPE(eq);
    if ((ks->eq_now = slot_offset(eq_tp, "now")) < 0
        || (ks->eq_processed = slot_offset(eq_tp, "_processed")) < 0
        || (ks->eq_activations = slot_offset(eq_tp, "_activations")) < 0
        || (ks->eq_sink = slot_offset(eq_tp, "_sink")) < 0
        || (ks->eq_gen = slot_offset(eq_tp, "_gen")) < 0)
        goto fail;
    ks->buckets = PyObject_GetAttrString(eq, "_buckets");
    ks->times = PyObject_GetAttrString(eq, "_times");
    if (ks->buckets == NULL || ks->times == NULL)
        goto fail;
    if (!PyDict_CheckExact(ks->buckets) || !PyList_CheckExact(ks->times)) {
        PyErr_SetString(PyExc_TypeError,
                        "EventQueue internals have unexpected types");
        goto fail;
    }

    /* Packet slot offsets */
    mod = PyImport_ImportModule("repro.hardware.packet");
    if (mod == NULL)
        goto fail;
    tmp = PyObject_GetAttrString(mod, "Packet");
    Py_CLEAR(mod);
    if (tmp == NULL)
        goto fail;
    pkt_tp = (PyTypeObject *)tmp;
    {
        PacketSlots *ps = &ks->ps;
        if ((ps->size = slot_offset(pkt_tp, "size")) < 0
            || (ps->t_enq = slot_offset(pkt_tp, "t_enq")) < 0
            || (ps->inject_time = slot_offset(pkt_tp, "inject_time")) < 0
            || (ps->wait_local = slot_offset(pkt_tp, "wait_local")) < 0
            || (ps->wait_global = slot_offset(pkt_tp, "wait_global")) < 0
            || (ps->service_sum = slot_offset(pkt_tp, "service_sum")) < 0
            || (ps->local_hops = slot_offset(pkt_tp, "local_hops")) < 0
            || (ps->global_hops = slot_offset(pkt_tp, "global_hops")) < 0
            || (ps->group_local_hops =
                    slot_offset(pkt_tp, "group_local_hops")) < 0
            || (ps->current_group =
                    slot_offset(pkt_tp, "current_group")) < 0
            || (ps->plan = slot_offset(pkt_tp, "plan")) < 0
            || (ps->inter_router = slot_offset(pkt_tp, "inter_router")) < 0
            || (ps->inter_group = slot_offset(pkt_tp, "inter_group")) < 0
            || (ps->dst_group = slot_offset(pkt_tp, "dst_group")) < 0
            || (ps->pid = slot_offset(pkt_tp, "pid")) < 0
            || (ps->gen_time = slot_offset(pkt_tp, "gen_time")) < 0
            || (ps->base_latency =
                    slot_offset(pkt_tp, "base_latency")) < 0
            || (ps->dst_router = slot_offset(pkt_tp, "dst_router")) < 0
            || (ps->src_node = slot_offset(pkt_tp, "src_node")) < 0
            || (ps->src_router = slot_offset(pkt_tp, "src_router")) < 0
            || (ps->src_group = slot_offset(pkt_tp, "src_group")) < 0
            || (ps->dst_node = slot_offset(pkt_tp, "dst_node")) < 0
            || (ps->dst_local_router =
                    slot_offset(pkt_tp, "dst_local_router")) < 0
            || (ps->dst_node_port =
                    slot_offset(pkt_tp, "dst_node_port")) < 0) {
            Py_CLEAR(tmp);
            goto fail;
        }
    }
    Py_CLEAR(tmp);

    /* cached objects */
    mod = PyImport_ImportModule("repro.errors");
    if (mod == NULL)
        goto fail;
    ks->flow_err = PyObject_GetAttrString(mod, "FlowControlError");
    ks->routing_err = PyObject_GetAttrString(mod, "RoutingError");
    Py_CLEAR(mod);
    if (ks->flow_err == NULL || ks->routing_err == NULL)
        goto fail;
    ks->router_mod = PyImport_ImportModule("repro.hardware.router");
    if (ks->router_mod == NULL)
        goto fail;
    mod = PyImport_ImportModule("repro.engine.kernel");
    if (mod == NULL)
        goto fail;
    kernel_step = PyObject_GetAttrString(mod, "step");
    Py_CLEAR(mod);
    if (kernel_step == NULL)
        goto fail;
    ks->s_last_decide_pure = PyUnicode_InternFromString("last_decide_pure");
    ks->s_last_decide_guard =
        PyUnicode_InternFromString("last_decide_guard");
    ks->op_out_arrive = PyLong_FromLong(3);
    ks->op_credit = PyLong_FromLong(7);
    ks->op_link = PyLong_FromLong(5);
    ks->op_release = PyLong_FromLong(6);
    ks->op_arrive = PyLong_FromLong(2);
    ks->op_deliver = PyLong_FromLong(8);
    if (ks->s_last_decide_pure == NULL || ks->s_last_decide_guard == NULL
        || ks->op_out_arrive == NULL || ks->op_credit == NULL
        || ks->op_link == NULL || ks->op_release == NULL
        || ks->op_arrive == NULL || ks->op_deliver == NULL)
        goto fail;
    ks->key_objs = PyMem_Calloc((size_t)ks->nkeys, sizeof(PyObject *));
    ks->port_objs = PyMem_Calloc((size_t)ks->radix, sizeof(PyObject *));
    ks->vc_objs = PyMem_Calloc((size_t)ks->max_vcs, sizeof(PyObject *));
    if (ks->key_objs == NULL || ks->port_objs == NULL
        || ks->vc_objs == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < ks->nkeys; i++)
        if ((ks->key_objs[i] = PyLong_FromSsize_t(i)) == NULL)
            goto fail;
    for (i = 0; i < ks->radix; i++)
        if ((ks->port_objs[i] = PyLong_FromSsize_t(i)) == NULL)
            goto fail;
    for (i = 0; i < ks->max_vcs; i++)
        if ((ks->vc_objs[i] = PyLong_FromSsize_t(i)) == NULL)
            goto fail;

    /* scratch */
    ks->scr_keys = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->scr_dead = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->c_key = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->c_pkt = PyMem_Malloc((size_t)ks->nkeys * sizeof(PyObject *));
    ks->c_dec = PyMem_Malloc((size_t)ks->nkeys * sizeof(PyObject *));
    ks->c_next = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->f_idx = PyMem_Malloc((size_t)ks->nkeys * sizeof(int64_t));
    ks->port_first = PyMem_Malloc((size_t)ks->radix * sizeof(int64_t));
    ks->port_last = PyMem_Malloc((size_t)ks->radix * sizeof(int64_t));
    ks->order_ports = PyMem_Malloc((size_t)ks->radix * sizeof(int64_t));
    ks->td_mask = PyMem_Malloc((size_t)ks->radix);
    if (ks->scr_keys == NULL || ks->scr_dead == NULL || ks->c_key == NULL
        || ks->c_pkt == NULL || ks->c_dec == NULL || ks->c_next == NULL
        || ks->f_idx == NULL || ks->port_first == NULL
        || ks->port_last == NULL || ks->order_ports == NULL
        || ks->td_mask == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < ks->radix; i++)
        ks->port_first[i] = -1;

    /* routers */
    routers = PyObject_GetAttrString(store, "routers");
    if (routers == NULL)
        goto fail;
    if (!PyList_CheckExact(routers)
        || PyList_GET_SIZE(routers) != ks->num_routers) {
        PyErr_SetString(PyExc_RuntimeError,
                        "SoAStore.routers is not wired (Simulation "
                        "construction incomplete)");
        goto fail;
    }
    r_tp = Py_TYPE(PyList_GET_ITEM(routers, 0));
    if ((ks->r_arb_time = slot_offset(r_tp, "_arb_time")) < 0)
        goto fail;
    ks->routers = PyMem_Calloc((size_t)ks->num_routers, sizeof(RState));
    if (ks->routers == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    {
        Py_ssize_t cap = 1;
        while (cap < 2 * ks->num_routers)
            cap <<= 1;
        ks->h_mask = cap - 1;
        ks->h_keys = PyMem_Calloc((size_t)cap, sizeof(void *));
        ks->h_vals = PyMem_Calloc((size_t)cap, sizeof(RState *));
        if (ks->h_keys == NULL || ks->h_vals == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    tmp = PyObject_GetAttrString(PyList_GET_ITEM(routers, 0), "routing");
    if (tmp == NULL || twin_build(ks, store, tmp) < 0)
        goto fail;
    Py_CLEAR(tmp);
    for (i = 0; i < ks->num_routers; i++) {
        PyObject *r = PyList_GET_ITEM(routers, i);
        if (Py_TYPE(r) != r_tp) {
            PyErr_SetString(PyExc_RuntimeError,
                            "heterogeneous router types in SoA store");
            goto fail;
        }
        if (build_rstate(ks, &ks->routers[i], r, kernel_step) < 0)
            goto fail;
        if (ptr_insert(ks, r, &ks->routers[i]) < 0)
            goto fail;
    }
    Py_CLEAR(routers);
    Py_CLEAR(kernel_step);

    /* lowered OP_GEN / OP_DELIVER fast path: bound per event queue */
    tmp = PyObject_GetAttrString(eq, "_lower");
    if (tmp == NULL)
        goto fail;
    if (tmp != Py_None) {
        ks->low = lstate_build(tmp);
        if (ks->low == NULL)
            goto fail;
    }
    Py_CLEAR(tmp);
    return ks;

fail:
    Py_XDECREF(mod);
    Py_XDECREF(tmp);
    Py_XDECREF(routers);
    Py_XDECREF(kernel_step);
    kstate_free(ks);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* the drain entry point                                               */
/* ------------------------------------------------------------------ */

/* Resolve (building + caching if needed) the KState of *eq*.  Returns
 * 0 with *out set, 1 when the queue has no bound store (caller must
 * fall back to the Python kernel), -1 on error. */
static int
get_kstate(PyObject *eq, KState **out)
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
    Py_DECREF(capsule);
    if (ks == NULL)
        return -1;
    /* refresh the dynamic invariant-check flag once per drain call */
    {
        PyObject *flag =
            PyObject_GetAttrString(ks->router_mod, "CHECK_INVARIANTS");
        if (flag == NULL)
            return -1;
        ks->chk = PyObject_IsTrue(flag);
        Py_DECREF(flag);
        if (ks->chk < 0)
            return -1;
    }
    *out = ks;
    return 0;
}

/* The bucket loop: process every activation with time <= t_end.  Leaves
 * eq.now at the last drained cycle — ck_drain advances it to the
 * horizon. */
static int
drain_core(KState *ks, PyObject *eq, int64_t t_end)
{
    /* Python code may have rebuilt buckets since the last drain. */
    ks->post_cache_t = INT64_MIN;
    Py_CLEAR(ks->post_cache_bucket);
    while (PyList_GET_SIZE(ks->times) > 0
           && as_ll(PyList_GET_ITEM(ks->times, 0)) <= t_end) {
        PyObject *t_obj = heap_pop(ks->times);
        PyObject *bucket;
        int64_t t;
        Py_ssize_t i = 0, extra = 0, n;
        int failed = 0;
        if (t_obj == NULL)
            return -1;
        t = as_ll(t_obj);
        bucket = PyDict_GetItemWithError(ks->buckets, t_obj);
        if (bucket == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError,
                                "heap time with no bucket");
            Py_DECREF(t_obj);
            return -1;
        }
        Py_INCREF(bucket);
        Py_INCREF(t_obj);
        slot_set(eq, ks->eq_now, t_obj);
        ks->now = t;
        n = PyList_GET_SIZE(bucket);
        for (;;) {
            while (i < n) {
                /* The bucket may grow during dispatch (same-cycle
                 * posting); GET_ITEM is re-read through the list object
                 * so reallocation is safe, and the record is pinned
                 * across the dispatch call. */
                PyObject *rec = PyList_GET_ITEM(bucket, i);
                Py_INCREF(rec);
                i += 1;
                if (dispatch(ks, eq, rec, t, t_obj, &extra) < 0) {
                    Py_DECREF(rec);
                    failed = 1;
                    goto finish_bucket;
                }
                Py_DECREF(rec);
            }
            n = PyList_GET_SIZE(bucket);
            if (i == n)
                break;
        }
    finish_bucket:
        /* semantic-event accounting (mirrors py_drain's finally): a
         * raised record is consumed, the bucket remainder survives */
        slot_set_ll(eq, ks->eq_processed,
                    slot_ll(eq, ks->eq_processed) + i + extra);
        slot_set_ll(eq, ks->eq_activations,
                    slot_ll(eq, ks->eq_activations) + i);
        if (i == PyList_GET_SIZE(bucket)) {
            if (t == ks->post_cache_t) {
                ks->post_cache_t = INT64_MIN;
                Py_CLEAR(ks->post_cache_bucket);
            }
            if (PyDict_DelItem(ks->buckets, t_obj) < 0)
                failed = 1;
        }
        else {
            if (PyList_SetSlice(bucket, 0, i, NULL) < 0)
                failed = 1;
            else if (heap_push(ks->times, t_obj) < 0)
                failed = 1;
        }
        Py_DECREF(bucket);
        Py_DECREF(t_obj);
        if (failed)
            return -1;
    }
    return 0;
}

/* Call py_drain(eq, t_end_obj) — the defensive fallback for a queue
 * with no bound store. */
static PyObject *
fallback_py_drain(PyObject *eq, PyObject *t_end_obj)
{
    PyObject *mod, *py_drain, *res;
    mod = PyImport_ImportModule("repro.engine.kernel");
    if (mod == NULL)
        return NULL;
    py_drain = PyObject_GetAttrString(mod, "py_drain");
    Py_DECREF(mod);
    if (py_drain == NULL)
        return NULL;
    res = PyObject_CallFunctionObjArgs(py_drain, eq, t_end_obj, NULL);
    Py_DECREF(py_drain);
    return res;
}

static PyObject *
ck_drain(PyObject *self, PyObject *args)
{
    PyObject *eq, *t_end_obj;
    KState *ks;
    int64_t t_end;
    int got;

    if (!PyArg_ParseTuple(args, "OO:drain", &eq, &t_end_obj))
        return NULL;
    t_end = as_ll(t_end_obj);
    if (t_end == -1 && PyErr_Occurred())
        return NULL;
    got = get_kstate(eq, &ks);
    if (got < 0)
        return NULL;
    if (got == 1)
        return fallback_py_drain(eq, t_end_obj);
    if (kstate_rng_in(ks) < 0)
        return NULL;
    if (drain_core(ks, eq, t_end) < 0) {
        /* hand the streams back, keeping the drain's exception */
        PyObject *et, *ev, *tb;
        PyErr_Fetch(&et, &ev, &tb);
        if (kstate_rng_out(ks) < 0)
            PyErr_Clear();
        PyErr_Restore(et, ev, tb);
        return NULL;
    }
    if (kstate_rng_out(ks) < 0)
        return NULL;
    Py_INCREF(t_end_obj);
    slot_set(eq, ks->eq_now, t_end_obj);
    Py_RETURN_NONE;
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

static PyMethodDef ckernel_methods[] = {
    {"drain", ck_drain, METH_VARARGS,
     "drain(eq, t_end): process activations with time <= t_end on the "
     "compiled kernel (bit-identical to repro.engine.kernel.py_drain)."},
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
    return PyModule_Create(&ckernel_module);
}
