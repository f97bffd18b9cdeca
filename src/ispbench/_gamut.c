/* The gamut loop behind kernels.gamut_point_major.
 *
 * For each pixel and each selected channel c: lane l (0 <= l < unroll) sums
 * w[i][c] * d_i over the points i = l, l + unroll, l + 2 * unroll, ... left
 * to right, starting from its first term (a lane with no points is +0.0);
 * d_i = sqrtf((dr * dr + dg * dg) + db * db). The lanes fold left to right,
 * then the bias terms follow: + c0, + c1 * r, + c2 * g, + c3 * b. Every step
 * is one rounded float32 operation: build with -ffp-contract=off and without
 * -ffast-math, so no multiply-add is fused and subnormals are kept.
 *
 * Pixel blocks run outside and points inside, so a block's lane sums stay in
 * registers while every point passes by.
 */
#include <math.h>

#define BLOCK 64 /* pixels per block */

static inline __attribute__((always_inline)) void
gamut_block(const int nc, const float *src, long chan_stride, long pix_stride,
            long k, const float *pts, const float *wts, const float *coefs, long n,
            long unroll, float *out, long out_stride)
{
    float rgb[3][BLOCK], acc[3][BLOCK], lane[3][BLOCK];
    for (int ch = 0; ch < 3; ch++)
        for (long j = 0; j < BLOCK; j++)
            rgb[ch][j] = j < k ? src[ch * chan_stride + j * pix_stride] : 0.0f;

    for (long l = 0; l < unroll; l++) {
        for (int c = 0; c < nc; c++)
            for (int j = 0; j < BLOCK; j++)
                lane[c][j] = 0.0f; /* kept only by a lane with no points */
        for (long i = l; i < n; i += unroll) {
            const float *p = pts + 3 * i, *w = wts + 3 * i;
            for (int j = 0; j < BLOCK; j++) {
                float dr = rgb[0][j] - p[0], dg = rgb[1][j] - p[1], db = rgb[2][j] - p[2];
                float d = sqrtf((dr * dr + dg * dg) + db * db);
                for (int c = 0; c < nc; c++)
                    lane[c][j] = i == l ? w[c] * d : lane[c][j] + w[c] * d;
            }
        }
        for (int c = 0; c < nc; c++)
            for (int j = 0; j < BLOCK; j++)
                acc[c][j] = l == 0 ? lane[c][j] : acc[c][j] + lane[c][j];
    }

    for (int c = 0; c < nc; c++)
        for (int j = 0; j < BLOCK; j++) {
            float a = acc[c][j] + coefs[c];
            a = a + coefs[3 + c] * rgb[0][j];
            a = a + coefs[6 + c] * rgb[1][j];
            acc[c][j] = a + coefs[9 + c] * rgb[2][j];
        }
    for (int c = 0; c < nc; c++)
        for (long j = 0; j < k; j++)
            out[c * out_stride + j] = acc[c][j];
}

/* src: three planes of `total` pixels, element strides chan_stride and
 * pix_stride. table: (2n + 4, 3) row-major, the n control points, then the n
 * weight rows, then the 4 bias rows. The nc output channels start at channel
 * c0; out is (nc, total) row-major. */
void
gamut(const float *src, long chan_stride, long pix_stride, long total,
      const float *table, long c0, long nc, long n, long unroll, float *out)
{
    const float *pts = table, *wts = table + 3 * n + c0, *coefs = table + 6 * n + c0;
    for (long s = 0; s < total; s += BLOCK) {
        long k = total - s < BLOCK ? total - s : BLOCK;
        const float *px = src + s * pix_stride;
        /* a constant nc, so that each case compiles to its own loop */
        if (nc == 1)
            gamut_block(1, px, chan_stride, pix_stride, k, pts, wts, coefs, n, unroll, out + s, total);
        else if (nc == 2)
            gamut_block(2, px, chan_stride, pix_stride, k, pts, wts, coefs, n, unroll, out + s, total);
        else
            gamut_block(3, px, chan_stride, pix_stride, k, pts, wts, coefs, n, unroll, out + s, total);
    }
}
