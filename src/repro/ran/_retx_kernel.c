/* Native retransmission kernel for the cohort tensor engine.
 *
 * One call advances every dirty column of a single CQI period.  The
 * per-column walk is a transliteration of the per-session vectorized
 * engine's retransmission handling (`_VectorizedEngine.run_period` /
 * `_fallback_slot` in simulator.py): the cursor visits each slot of
 * the period, serving due retransmissions at eligible slots (the
 * shared retx_fits_slot rule), transmitting new data at special slots
 * that cannot carry an oversized due block (the deferral rule), and
 * committing maximal clean sub-segments bounded by the due head and
 * the first fresh NACK's re-arm point.
 *
 * Byte-identity with the per-session engines is exact because the only
 * floating-point operations are one IEEE double multiply, one clamp
 * and one comparison per event — `min(1.0, p_hint * scale)` compared
 * against the pre-drawn uniform — with no accumulation anywhere.
 *
 * Lane state is the caller's struct-of-arrays (due / tbs / att / p
 * rows per column, strictly increasing due order).  Due slots are
 * unique and monotone in push order (every push is slot + rtt with at
 * most one push per slot), so the sorted lane is exactly the engines'
 * due-slot min-heap: pops advance a head offset, pushes append at the
 * tail, and the row is compacted before returning.  The caller
 * guarantees lane capacity >= pending count + period length (each slot
 * queues at most one block).
 *
 * Outputs: per-column ack/nack counts over new transmissions, committed
 * sub-segments as (col, lo, hi) triples and served/deferred events as
 * (col, slot, tbs, ok, is_retx) rows, in within-column
 * (chronological) order, for the tensor engine's flush.
 */
#include <stdint.h>
#include <string.h>

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
