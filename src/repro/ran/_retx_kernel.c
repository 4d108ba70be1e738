/* Native slot-engine kernels: one shared library, three entry points.
 *
 * repro_session_run — the whole CQI-period loop of one lone session
 * (the "native" engine of simulator.py): per period the rank EWMA and
 * hysteresis, CQI->MCS with the OLLA offset, the TBS pair, the per-slot
 * HARQ walk with `_scalar_slot` semantics and the OLLA update, writing
 * the SlotTrace columns in place; a completed run also forward-fills
 * the CQI column like `_forward_fill_cqi`.
 *
 * repro_retx_period — the cohort tensor engine's retransmission walk:
 * one call advances every dirty column of a single CQI period.  It
 * still takes numpy-evaluated decode-error rows from its caller.
 *
 * repro_ar1_add — one stationary AR(1) fading component added into the
 * caller's SINR buffer (repro.channel.fading.Ar1Fading.add_to): the
 * chunked scaled-prefix-sum scan of `_ar1_scan_const`, op for op, on
 * the power tables numpy computed (`ar1_power_tables`).
 *
 * Byte-identity with the Python engines rests on three rules:
 *
 * - Decode-error probabilities only ever decide a comparison, and every
 *   such decision is certified.  The trace carries no probability:
 *   p_err feeds `uniform >= p` for a new transmission and
 *   `retx_uniform >= min(1, hint * scale)` for a retransmission.  The
 *   session kernel evaluates p with libm exp (p_err_libm, the only
 *   transcendental call here), whose last bit may differ from numpy's
 *   SIMD exp on some inputs, so a decision is taken only when the
 *   uniform lies outside P_ERR_GUARD_REL * p + P_ERR_GUARD_ABS of p
 *   (simulator.py; the measured gap is ~5e-16 relative, far inside).
 *   Otherwise the kernel un-commits the period and returns; the caller
 *   fills that period's exact numpy values and resumes, and periods so
 *   filled decide on the exact values with no guard.
 * - Every floating-point expression transliterates the Python one in
 *   evaluation order — (1-b)*ewma + b*meas, delta + acks*up -
 *   nacks*down with its clamp, min(1, p*scale), the in-place logistic
 *   argument of BlerModel, the AR(1) scan's (b*w)/P, running sum and
 *   P*(prev+s) — and the library is built with -ffp-contract=off so no
 *   multiply-add is fused.  nearbyint() rounds half to even, exactly
 *   like Python's round().  The AR(1) powers a^k are never evaluated
 *   here: they arrive as the very tables the numpy scan divides by.
 * - Due slots of pending retransmissions are strictly increasing in
 *   push order (every push is slot + rtt with at most one push per
 *   slot), so the engines' due-slot min-heap is a plain FIFO lane.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Whole-session kernel                                               */
/* ------------------------------------------------------------------ */

/* Field order is mirrored by repro.ran._native.SessionArgs. */
typedef struct {
    /* Session constants. */
    int64_t n_slots, period, n_periods;
    const uint8_t *usable, *special;
    const double *uniforms, *retx_uniforms;
    /* Per-period measurement chain, hoisted by the caller: measured
     * SINR, CQI, family (0 primary, 1 DCI 1_0 fallback), DCI format,
     * grant size and its index on the stacked TBS grant axis. */
    const double *measured;
    const int64_t *cqi, *fb, *dci, *prb, *grant;
    /* Link-adaptation tables. */
    const int64_t *mcs_lut;         /* (2, n_cqi, n_off) */
    int64_t n_cqi, n_off, off_lo;
    const int64_t *mod_lut;         /* (2, n_mcs) */
    int64_t n_mcs;
    const int64_t *tb_full, *tb_special; /* (2, n_grants, n_mcs, max_layers) */
    int64_t n_grants, max_layers;
    /* Rank adaptation: candidate rank k + 2 needs ewma >= rank_up[k],
     * or >= rank_keep[k] when the previous rank already reached it. */
    const double *rank_up, *rank_keep;
    int64_t n_rank_steps, rank_max;
    double beta, one_minus_beta;
    /* OLLA. */
    int64_t olla_enabled;
    double olla_up, olla_down, olla_lo, olla_hi;
    /* HARQ. */
    int64_t rtt, max_attempts;
    double retx_scale;
    /* Decode-error model: spectral efficiency per (family, mcs) (2,
     * n_mcs), sustainable efficiency per slot, the logistic's bias and
     * slope, and the decision guard. */
    const double *eff_lut, *eff_cap;
    double bias, slope, guard_rel, guard_abs;
    /* Exact numpy p_err: exact[i] is valid iff have[i / period]. */
    const double *exact;
    const uint8_t *have;
    /* Retransmission FIFO, capacity n_slots (one push per slot at most);
     * q_src is the slot of the block's first transmission. */
    int64_t *q_due, *q_tbs, *q_att, *q_src;
    double *q_p;
    /* Trace columns, written in place. */
    uint8_t *scheduled, *is_retx, *error;
    int64_t *n_prb, *n_re, *mcs_index, *modulation_order, *layers;
    int64_t *tbs_bits, *delivered_bits, *cqi_out, *dci_format;
    /* Resumable state. */
    int64_t next_period, q_head, q_tail, rank;
    double ewma, delta;
    /* Set on return 1: the period whose exact p_err the caller must
     * fill, and its (family * n_mcs + mcs) key. */
    int64_t need_period, need_key;
} repro_session_t;

/* BlerModel.error_probability_given_capacity for one slot: the argument
 * by numpy's in-place op sequence (bit-identical IEEE ops), then libm
 * exp, which may round differently from numpy's — callers guard every
 * decision taken on the result with `uncertain`. */
static inline double p_err_libm(double eff, double cap, double bias, double slope)
{
    double x = eff - cap;
    x -= bias;
    x /= slope;
    x = -x;
    return 1.0 / (exp(x) + 1.0);
}

/* Whether `u >= p` might decide differently on numpy's p. */
static inline int uncertain(double u, double p, double rel, double abs_tol)
{
    return fabs(u - p) <= rel * p + abs_tol;
}

/* _forward_fill_cqi: every slot without a positive CQI takes the last
 * positive one before it; slots before the first positive CQI take that
 * first one.  A column with no positive CQI is left alone. */
static void forward_fill_cqi(int64_t *cqi, int64_t n)
{
    int64_t first = 0;
    while (first < n && cqi[first] <= 0)
        first++;
    if (first == n)
        return;
    int64_t last = cqi[first];
    for (int64_t i = 0; i < first; i++)
        cqi[i] = last;
    for (int64_t i = first + 1; i < n; i++) {
        if (cqi[i] > 0)
            last = cqi[i];
        else
            cqi[i] = last;
    }
}

/* Runs periods from s->next_period on.  Returns 0 when the session is
 * complete (CQI column forward-filled), 1 when the caller must fill the exact p_err of period
 * s->need_period first (s->next_period is then the period to resume
 * at, nothing of it committed). */
int64_t repro_session_run(repro_session_t *s)
{
    const int64_t n_slots = s->n_slots, period = s->period, n_mcs = s->n_mcs;
    const int64_t max_layers = s->max_layers;
    const int64_t rtt = s->rtt, max_attempts = s->max_attempts;
    const double scale = s->retx_scale;
    const double bias = s->bias, slope = s->slope;
    const double g_rel = s->guard_rel, g_abs = s->guard_abs;
    const uint8_t *usable = s->usable, *special = s->special, *have = s->have;
    const double *uni = s->uniforms, *rxu = s->retx_uniforms;
    const double *cap = s->eff_cap, *exact = s->exact;
    int64_t *q_due = s->q_due, *q_tbs = s->q_tbs, *q_att = s->q_att;
    int64_t *q_src = s->q_src;
    double *q_p = s->q_p;
    uint8_t *o_sched = s->scheduled, *o_retx = s->is_retx, *o_err = s->error;
    int64_t *o_prb = s->n_prb, *o_re = s->n_re, *o_mcs = s->mcs_index;
    int64_t *o_mod = s->modulation_order, *o_lay = s->layers;
    int64_t *o_tbs = s->tbs_bits, *o_dlv = s->delivered_bits;
    int64_t *o_cqi = s->cqi_out, *o_dci = s->dci_format;
    int64_t head = s->q_head, tail = s->q_tail, rank = s->rank;
    double ewma = s->ewma, delta = s->delta;
    int64_t rc = 0;
    int64_t p;

    for (p = s->next_period; p < s->n_periods; p++) {
        const int64_t start = p * period;
        const int64_t stop = start + period < n_slots ? start + period : n_slots;
        const int64_t cqi = s->cqi[p], f = s->fb[p];
        /* Period-start state, restored if a decision is uncertain. */
        const int64_t head0 = head, tail0 = tail, rank0 = rank;
        const double ewma0 = ewma;

        /* CQI -> MCS through the OLLA offset (round half to even). */
        int64_t offset = s->olla_enabled ? (int64_t)nearbyint(delta) : 0;
        int64_t mcs = s->mcs_lut[(f * s->n_cqi + cqi) * s->n_off + offset - s->off_lo];
        int64_t key = f * n_mcs + mcs;
        const double eff = s->eff_lut[key];
        const int exact_p = have[p];

        /* Rank: EWMA of the measured SINR, thresholds with hysteresis. */
        double meas = s->measured[p];
        ewma = p == 0 ? meas : s->one_minus_beta * ewma + s->beta * meas;
        int64_t cand = 1;
        for (int64_t k = 0; k < s->n_rank_steps; k++) {
            double thr = k + 2 <= rank ? s->rank_keep[k] : s->rank_up[k];
            if (ewma >= thr)
                cand = k + 2;
        }
        rank = cand < s->rank_max ? cand : s->rank_max;
        const int64_t lay = rank < max_layers ? rank : max_layers;

        const int64_t t = ((f * s->n_grants + s->grant[p]) * n_mcs + mcs)
                          * max_layers + lay - 1;
        const int64_t tf = s->tb_full[t], ts = s->tb_special[t];
        const int64_t prb = s->prb[p], re = prb * 12;
        const int64_t mod = s->mod_lut[key], dci = s->dci[p];

        /* Per-slot walk: _scalar_slot. */
        int64_t acks = 0, nacks = 0, need = -1, need_key = 0;
        for (int64_t i = start; i < stop; i++) {
            if (!usable[i])
                continue;
            const int sp = special[i];
            int64_t tbs;
            uint8_t ok;
            if (head < tail && q_due[head] <= i && !(sp && q_tbs[head] > ts)) {
                /* Serve the due retransmission: it displaces new data.
                 * Its hint is exact once the origin period is filled. */
                const int64_t src = q_src[head], src_p = src / period;
                const int exact_src = have[src_p];
                const double hint = exact_src ? exact[src] : q_p[head];
                double pr = hint * scale;
                if (!(pr < 1.0))
                    pr = 1.0;
                if (!exact_src && uncertain(rxu[i], pr, g_rel, g_abs)) {
                    need = src_p;
                    need_key = s->fb[src_p] * n_mcs + o_mcs[src];
                    break;
                }
                ok = rxu[i] >= pr;
                tbs = q_tbs[head];
                const int64_t att = q_att[head];
                head++;
                o_retx[i] = 1;
                if (!ok && att + 1 < max_attempts) {
                    q_due[tail] = i + rtt;
                    q_tbs[tail] = tbs;
                    q_att[tail] = att + 1;
                    q_src[tail] = src;
                    q_p[tail] = hint;
                    tail++;
                }
            } else {
                tbs = sp ? ts : tf;
                if (tbs <= 0)
                    continue;
                const double pe = exact_p ? exact[i] : p_err_libm(eff, cap[i], bias, slope);
                if (!exact_p && uncertain(uni[i], pe, g_rel, g_abs)) {
                    need = p;
                    need_key = key;
                    break;
                }
                ok = uni[i] >= pe;
                if (ok) {
                    acks++;
                } else {
                    nacks++;
                    q_due[tail] = i + rtt;
                    q_tbs[tail] = tbs;
                    q_att[tail] = 1;
                    q_src[tail] = i;
                    q_p[tail] = pe;
                    tail++;
                }
            }
            o_sched[i] = 1;
            o_prb[i] = prb;
            o_re[i] = re;
            o_mcs[i] = mcs;
            o_mod[i] = mod;
            o_lay[i] = lay;
            o_tbs[i] = tbs;
            o_cqi[i] = cqi;
            o_dci[i] = dci;
            if (ok)
                o_dlv[i] = tbs;
            else
                o_err[i] = 1;
        }

        if (need >= 0) {
            /* Un-commit the period: its state and its trace slots (the
             * trace starts zeroed) go back to how the period found them. */
            const size_t m = (size_t)(stop - start);
            head = head0;
            tail = tail0;
            rank = rank0;
            ewma = ewma0;
            memset(o_sched + start, 0, m);
            memset(o_retx + start, 0, m);
            memset(o_err + start, 0, m);
            memset(o_prb + start, 0, m * sizeof(int64_t));
            memset(o_re + start, 0, m * sizeof(int64_t));
            memset(o_mcs + start, 0, m * sizeof(int64_t));
            memset(o_mod + start, 0, m * sizeof(int64_t));
            memset(o_lay + start, 0, m * sizeof(int64_t));
            memset(o_tbs + start, 0, m * sizeof(int64_t));
            memset(o_dlv + start, 0, m * sizeof(int64_t));
            memset(o_cqi + start, 0, m * sizeof(int64_t));
            memset(o_dci + start, 0, m * sizeof(int64_t));
            s->need_period = need;
            s->need_key = need_key;
            rc = 1;
            break;
        }

        /* OLLA: net update over the period's new transmissions. */
        if (s->olla_enabled) {
            double d = delta + (double)acks * s->olla_up - (double)nacks * s->olla_down;
            delta = d < s->olla_lo ? s->olla_lo : d > s->olla_hi ? s->olla_hi : d;
        }
    }
    s->next_period = p;
    s->q_head = head;
    s->q_tail = tail;
    s->rank = rank;
    s->ewma = ewma;
    s->delta = delta;
    if (rc == 0)
        forward_fill_cqi(s->cqi_out, n_slots);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Cohort retransmission kernel                                       */
/* ------------------------------------------------------------------ */

/* One call advances every dirty column of a single CQI period.  The
 * per-column walk is a transliteration of the per-session vectorized
 * engine's retransmission handling (`_VectorizedEngine.run_period` /
 * `_fallback_slot` in simulator.py): the cursor visits each slot of
 * the period, serving due retransmissions at eligible slots (the
 * shared retx_fits_slot rule), transmitting new data at special slots
 * that cannot carry an oversized due block (the deferral rule), and
 * committing maximal clean sub-segments bounded by the due head and
 * the first fresh NACK's re-arm point.
 *
 * Lane state is the caller's struct-of-arrays (due / tbs / att / p
 * rows per column, strictly increasing due order): pops advance a head
 * offset, pushes append at the tail, and the row is compacted before
 * returning.  The caller guarantees lane capacity >= pending count +
 * period length (each slot queues at most one block).
 *
 * Outputs: per-column ack/nack counts over new transmissions, committed
 * sub-segments as (col, lo, hi) triples and served/deferred events as
 * (col, slot, tbs, ok, is_retx) rows, in within-column
 * (chronological) order, for the tensor engine's flush.
 */
int64_t repro_retx_period(
    /* batched columns */
    int64_t nb, const int64_t *bidx, int64_t start, int64_t stop,
    /* lane state: (n_cols, cap) row-major, pending count per column */
    int64_t cap, int64_t *due, int64_t *tbs, int64_t *att, double *ph,
    int64_t *pn, int64_t far_sentinel,
    /* per-call batched inputs: (nb, m) fresh-failure mask, per-column
     * transmit case and grant sizes */
    const uint8_t *failm, const int64_t *caseb,
    const int64_t *tbsf, const int64_t *tbss,
    /* cohort constants */
    int64_t n_slots, const double *retx2, const uint8_t *decoded2,
    const double *perr2, int64_t perr_stride,
    const int64_t *cum4, const uint8_t *usable, const uint8_t *special,
    int64_t rtt, double scale, int64_t max_attempts,
    /* outputs */
    int64_t *acks, int64_t *nacks,
    int64_t *seg_col, int64_t *seg_lo, int64_t *seg_hi,
    int64_t *ev_col, int64_t *ev_slot, int64_t *ev_tbs,
    uint8_t *ev_ok, uint8_t *ev_retx,
    int64_t *counts /* {n_segments, n_events} */)
{
    int64_t m = stop - start;
    int64_t ns = 0, ne = 0;

    for (int64_t k = 0; k < nb; k++) {
        int64_t c = bidx[k];
        int64_t *due_r = due + c * cap;
        int64_t *tbs_r = tbs + c * cap;
        int64_t *att_r = att + c * cap;
        double *ph_r = ph + c * cap;
        int64_t head = 0;
        int64_t count = pn[c];
        int64_t tail = count;

        const uint8_t *fm = failm + k * m;
        const int64_t *cum = cum4 + caseb[k] * (n_slots + 1);
        int64_t tf = tbsf[k], ts = tbss[k];
        const double *rx = retx2 + c * n_slots;
        const uint8_t *dec = decoded2 + c * n_slots;
        const double *pe = perr2 + c * perr_stride;

        /* e = period-relative position of the next fresh-NACK
         * candidate (kept normalized: fm[e] set, or e == m). */
        int64_t e = 0;
        while (e < m && !fm[e])
            e++;

        int64_t i = start;
        int64_t a = 0, nk = 0;
        while (i < stop) {
            if (count > 0 && due_r[head] <= i) {
                /* Retransmission window: per-slot fallback until the
                 * due block is served or deferred past. */
                if (usable[i]) {
                    int is_sp = special[i];
                    int64_t htbs = tbs_r[head];
                    if (!(is_sp && htbs > ts)) {
                        /* Serve the due head (retx_fits_slot). */
                        int64_t hatt = att_r[head];
                        double hp = ph_r[head];
                        double pr = hp * scale;
                        if (!(pr < 1.0))
                            pr = 1.0;
                        uint8_t ok = rx[i] >= pr;
                        ev_col[ne] = c;
                        ev_slot[ne] = i;
                        ev_tbs[ne] = htbs;
                        ev_ok[ne] = ok;
                        ev_retx[ne] = 1;
                        ne++;
                        head++;
                        count--;
                        if (!ok && hatt + 1 < max_attempts) {
                            due_r[tail] = i + rtt;
                            tbs_r[tail] = htbs;
                            att_r[tail] = hatt + 1;
                            ph_r[tail] = hp;
                            tail++;
                            count++;
                        }
                    } else if (ts > 0) {
                        /* Deferral: the special slot carries new data
                         * while the oversized block waits. */
                        int64_t j = i - start;
                        uint8_t ok = dec[i];
                        ev_col[ne] = c;
                        ev_slot[ne] = i;
                        ev_tbs[ne] = ts;
                        ev_ok[ne] = ok;
                        ev_retx[ne] = 0;
                        ne++;
                        if (ok) {
                            a++;
                        } else {
                            due_r[tail] = i + rtt;
                            tbs_r[tail] = ts;
                            att_r[tail] = 1;
                            ph_r[tail] = pe[j];
                            tail++;
                            count++;
                            nk++;
                        }
                    }
                }
                i++;
                /* The fallback owned that position: drop any fresh-NACK
                 * candidate there. */
                if (e < i - start) {
                    e = i - start;
                    while (e < m && !fm[e])
                        e++;
                }
                continue;
            }
            /* Clean sub-segment up to the due head, the period end, or
             * the first fresh NACK's re-arm point. */
            int64_t seg_end = stop;
            if (count > 0 && due_r[head] < stop)
                seg_end = due_r[head];
            if (e < m) {
                int64_t first = start + e;
                if (first < seg_end && first + rtt < seg_end)
                    seg_end = first + rtt;
            }
            int64_t j1 = seg_end - start;
            /* Queue every fresh NACK in the committed range, in slot
             * order: their due slots lie at or beyond seg_end. */
            int64_t seg_nacks = 0;
            while (e < j1) {
                due_r[tail] = start + e + rtt;
                tbs_r[tail] = special[start + e] ? ts : tf;
                att_r[tail] = 1;
                ph_r[tail] = pe[e];
                tail++;
                count++;
                seg_nacks++;
                e++;
                while (e < m && !fm[e])
                    e++;
            }
            nk += seg_nacks;
            seg_col[ns] = c;
            seg_lo[ns] = i;
            seg_hi[ns] = seg_end;
            ns++;
            a += cum[seg_end] - cum[i] - seg_nacks;
            i = seg_end;
        }
        acks[k] = a;
        nacks[k] = nk;
        /* Compact the lane back to offset 0 and restore the due
         * sentinel over vacated tail entries. */
        if (head > 0) {
            if (count > 0) {
                memmove(due_r, due_r + head, count * sizeof(int64_t));
                memmove(tbs_r, tbs_r + head, count * sizeof(int64_t));
                memmove(att_r, att_r + head, count * sizeof(int64_t));
                memmove(ph_r, ph_r + head, count * sizeof(double));
            }
            for (int64_t q = count; q < tail; q++)
                due_r[q] = far_sentinel;
        }
        pn[c] = count;
    }
    counts[0] = ns;
    counts[1] = ne;
    return 0;
}

/* ------------------------------------------------------------------ */
/* AR(1) fading                                                       */
/* ------------------------------------------------------------------ */

/* out[t] += x[t] for the stationary AR(1) series of `_ar1_scan_const`:
 * x[0] = sigma*w[0] and x[t] = a*x[t-1] + b*w[t], evaluated exactly as
 * the numpy scan does.  a == 0 gives x[t] = b*w[t].  Otherwise the
 * steps 1..n-1 run in chunks of `chunk` (the last one shorter, on the
 * `tail` table); within a chunk, with P = a^(j+1) from the table,
 *
 *     s = (b*w[t]) / P[j]       running sum, started from the first
 *                               term as np.cumsum starts
 *     x[t] = P[j] * (prev + s)  prev = the previous chunk's last x
 *
 * so every rounding step matches numpy's ufunc sequence. */
void repro_ar1_add(int64_t n, double a, double b, double sigma,
                   const double *w, int64_t chunk, const double *full,
                   const double *tail, double *out)
{
    if (n < 1)
        return;
    double prev = sigma * w[0];
    out[0] += prev;
    if (a == 0.0) {
        for (int64_t t = 1; t < n; t++)
            out[t] += b * w[t];
        return;
    }
    for (int64_t start = 1; start < n; start += chunk) {
        const int64_t k = n - start < chunk ? n - start : chunk;
        const double *P = k == chunk ? full : tail;
        const double *wc = w + start;
        double *oc = out + start;
        double s = (b * wc[0]) / P[0];
        double x = P[0] * (prev + s);
        oc[0] += x;
        for (int64_t j = 1; j < k; j++) {
            s += (b * wc[j]) / P[j];
            x = P[j] * (prev + s);
            oc[j] += x;
        }
        prev = x;
    }
}
