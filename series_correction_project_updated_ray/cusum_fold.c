/* CUSUM reset fold [processor.py:118-199], compiled by kernels._fold_lib.
 *
 * prefix[i] is the running sum of the normalized deviations; the CUSUM
 * since the last reset at r is prefix[i] - prefix[r].  Each fold writes
 * i + offset to out for every i where that difference exceeds thr in
 * either direction, resets the base to prefix[i], and returns the count.
 * The float fold is one IEEE double subtract and two compares per point
 * (built with -ffp-contract=off, never -ffast-math), so it matches the
 * Python loop bit for bit, NaN included.  The int64 fold counts a
 * difference that overflows int64 as an exceedance, as Python ints
 * (which do not wrap) would. */
#include <stdint.h>

int64_t fold_f64(const double *prefix, int64_t n, double thr, int64_t offset,
                 int64_t *out)
{
    double base = 0.0;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        double d = prefix[i] - base;
        if (d > thr || d < -thr) {
            out[k++] = i + offset;
            base = prefix[i];
        }
    }
    return k;
}

int64_t fold_i64(const int64_t *prefix, int64_t n, int64_t thr,
                 int64_t offset, int64_t *out)
{
    int64_t base = 0, d, k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (__builtin_sub_overflow(prefix[i], base, &d) || d > thr || d < -thr) {
            out[k++] = i + offset;
            base = prefix[i];
        }
    }
    return k;
}
