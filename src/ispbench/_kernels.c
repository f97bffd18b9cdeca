/* The compiled loops behind kernels.py, one entry per stage: demosaic, the
 * 3x3 median (denoise), transform, gamut and the tone map.
 *
 * Every step is one rounded float32 operation in the order the kernels
 * docstring gives: build with -ffp-contract=off and without -ffast-math, so
 * no multiply-add is fused and subnormals are kept. Strides count elements;
 * the pixels of a row are adjacent. Outputs are row-major planes and never
 * alias an input. The four cheap stages work one output row at a time and use
 * no scratch memory.
 */
#include <math.h>
#include <string.h>

/* ---- compare and select ------------------------------------------------ */

/* a if c, else b, as a bit mask: with a branch here, GCC's partial
 * redundancy elimination splits the NaN tests below across the branches, and
 * the loops that use them do not vectorize */
static inline float
pick(int c, float a, float b)
{
    unsigned ia, ib, mask = -(unsigned)c;
    memcpy(&ia, &a, 4);
    memcpy(&ib, &b, 4);
    ia = (ia & mask) | (ib & ~mask);
    memcpy(&a, &ia, 4);
    return a;
}

/* NumPy's fmin and maximum as compare-and-select: a NaN goes to the high
 * side of every exchange. */
static inline float lo(float a, float b) { return pick((a <= b) | (b != b), a, b); }
static inline float hi(float a, float b) { return pick((a >= b) | (a != a), a, b); }

/* ---- demosaic ---------------------------------------------------------- */

enum { CENTER, EDGES, DIAGONALS, UP_DOWN, LEFT_RIGHT }; /* a site's sources */

/* Source `src` at pixel x of row m between rows u (up) and d (down), whose
 * left and right neighbours are at xl and xr (x itself at an image edge). */
static inline __attribute__((always_inline)) float
source(int src, const float *u, const float *m, const float *d, long xl, long x, long xr)
{
    switch (src) {
    case EDGES: /* up, down, left, right */
        return (((u[x] + d[x]) + m[xl]) + m[xr]) * 0.25f;
    case DIAGONALS: /* upper-left, upper-right, lower-left, lower-right */
        return (((u[xl] + u[xr]) + d[xl]) + d[xr]) * 0.25f;
    case UP_DOWN:
        return (u[x] + d[x]) * 0.5f;
    case LEFT_RIGHT:
        return (m[xl] + m[xr]) * 0.5f;
    default:
        return m[x];
    }
}

/* One plane's output row: `even` at even columns, `odd` at odd ones. Both
 * are computed at every column and the parity picks, so that the loop
 * vectorizes; out is not restrict, so that no load is carried from one
 * column to the next. */
static inline __attribute__((always_inline)) void
demosaic_line(const float *u, const float *m, const float *d, long w, int even, int odd,
              float *out)
{
    out[0] = source(even, u, m, d, 0, 0, 1);
    for (long x = 1; x < w - 1; x++)
        out[x] = pick(x & 1, source(odd, u, m, d, x - 1, x, x + 1),
                      source(even, u, m, d, x - 1, x, x + 1));
    out[w - 1] = source(odd, u, m, d, w - 2, w - 1, w - 1); /* w is even */
}

/* src: an (h, w) mosaic with rows rs apart, h and w even; out: (3, h, w).
 * R sites take G from the edges and B from the diagonals, G sites their two
 * co-linear neighbours, B sites mirror R sites. */
void
demosaic(const float *src, long rs, long h, long w, float *out)
{
    for (long y = 0; y < h; y++) {
        const float *u = src + (y ? y - 1 : 0) * rs, *m = src + y * rs;
        const float *d = src + (y + 1 < h ? y + 1 : y) * rs;
        float *R = out + y * w, *G = R + h * w, *B = G + h * w;
        if (y & 1) { /* G, B, G, B, ... */
            demosaic_line(u, m, d, w, UP_DOWN, DIAGONALS, R);
            demosaic_line(u, m, d, w, CENTER, EDGES, G);
            demosaic_line(u, m, d, w, LEFT_RIGHT, CENTER, B);
        } else { /* R, G, R, G, ... */
            demosaic_line(u, m, d, w, CENTER, LEFT_RIGHT, R);
            demosaic_line(u, m, d, w, EDGES, CENTER, G);
            demosaic_line(u, m, d, w, DIAGONALS, UP_DOWN, B);
        }
    }
}

/* ---- 3x3 median -------------------------------------------------------- */

/* The median of the 3x3 window at x of rows t, m, b: Paeth's 19-exchange
 * network (Devillard's opt_med9). Each row's horizontal triple is sorted by
 * exchanges (1, 2), (0, 1), (1, 2), then med3(max of the lows, med3 of the
 * mids, min of the highs) takes exchanges 10-19 in their order. */
static inline __attribute__((always_inline)) void
sort3(const float *row, long xl, long x, long xr, float *l, float *c, float *h)
{
    float a = row[xl], mid = lo(row[x], row[xr]), top = hi(row[x], row[xr]);
    float s = hi(a, mid);
    *l = lo(a, mid);
    *c = lo(s, top);
    *h = hi(s, top);
}

static inline __attribute__((always_inline)) float
med9(const float *t, const float *m, const float *b, long xl, long x, long xr)
{
    float l0, c0, h0, l1, c1, h1, l2, c2, h2;
    sort3(t, xl, x, xr, &l0, &c0, &h0);
    sort3(m, xl, x, xr, &l1, &c1, &h1);
    sort3(b, xl, x, xr, &l2, &c2, &h2);
    float t1 = hi(l0, l1), t2 = lo(h1, h2), t3 = lo(c1, c2), out = hi(c1, c2);
    t1 = hi(t1, l2); /* max of the lows */
    t3 = hi(c0, t3);
    t2 = lo(h0, t2); /* min of the highs */
    t3 = lo(t3, out); /* med3 of the mids */
    out = lo(t3, t2);
    t2 = hi(t3, t2);
    out = hi(t1, out);
    return lo(out, t2);
}

/* One channel's output row; edge columns replicate. */
static inline void
median_line(const float *t, const float *m, const float *b, long w, float *restrict out)
{
    if (w < 1)
        return;
    out[0] = med9(t, m, b, 0, 0, w > 1);
    for (long x = 1; x < w - 1; x++)
        out[x] = med9(t, m, b, x - 1, x, x + 1);
    if (w > 1)
        out[w - 1] = med9(t, m, b, w - 2, w - 1, w - 1);
}

/* src: (3, h, w) planes, channels cs and rows rs apart; out: (3, y1 - y0, w),
 * the median rows y0 .. y1 - 1. Rows above and below the h rows of src
 * replicate the edge. */
void
denoise(const float *src, long cs, long rs, long h, long w, long y0, long y1,
        float *restrict out)
{
    for (long c = 0; c < 3; c++)
        for (long y = y0; y < y1; y++, out += w) {
            const float *m = src + c * cs + y * rs;
            median_line(y ? m - rs : m, m, y + 1 < h ? m + rs : m, w, out);
        }
}

/* ---- transform --------------------------------------------------------- */

/* src: (3, h, w) planes, channels cs and rows rs apart; mat: 3x3 row-major;
 * out[c] = (m[c][0] * r + m[c][1] * g) + m[c][2] * b. */
void
transform(const float *src, long cs, long rs, long h, long w, const float *mat,
          float *restrict out)
{
    for (long y = 0; y < h; y++) {
        const float *r = src + y * rs, *g = r + cs, *b = g + cs;
        float *o0 = out + y * w, *o1 = o0 + h * w, *o2 = o1 + h * w;
        for (long x = 0; x < w; x++) {
            o0[x] = (mat[0] * r[x] + mat[1] * g[x]) + mat[2] * b[x];
            o1[x] = (mat[3] * r[x] + mat[4] * g[x]) + mat[5] * b[x];
            o2[x] = (mat[6] * r[x] + mat[7] * g[x]) + mat[8] * b[x];
        }
    }
}

/* ---- tone map ---------------------------------------------------------- */

/* src: (3, h, w) planes, channels cs and rows rs apart; lut: 3 channels of
 * 256 levels. Row k = floor(v * 255 + 0.5) clamped as fmin(fmax(., 0), 255),
 * so NaN goes to row 0; clamping first and then truncating gives the same
 * row, since truncation is floor on [0, 255]. Each output row holds its
 * clamped values until the second pass looks them up, so that both passes
 * vectorize. */
void
tone_map(const float *src, long cs, long rs, long h, long w, const float *lut,
         float *restrict out)
{
    for (long c = 0; c < 3; c++)
        for (long y = 0; y < h; y++) {
            const float *v = src + c * cs + y * rs, *level = lut + 256 * c;
            float *o = out + (c * h + y) * w;
            for (long x = 0; x < w; x++) {
                float k = v[x] * 255.0f + 0.5f;
                k = k > 0.0f ? k : 0.0f;
                o[x] = k < 255.0f ? k : 255.0f;
            }
            for (long x = 0; x < w; x++)
                o[x] = level[(int)o[x]];
        }
}

/* ---- gamut ------------------------------------------------------------- */

/* For each pixel and each selected channel c: lane l (0 <= l < unroll) sums
 * w[i][c] * d_i over the points i = l, l + unroll, l + 2 * unroll, ... left
 * to right, starting from its first term (a lane with no points is +0.0);
 * d_i = sqrtf((dr * dr + dg * dg) + db * db). The lanes fold left to right,
 * then the bias terms follow: + c0, + c1 * r, + c2 * g, + c3 * b.
 *
 * Pixel blocks run outside and points inside, so a block's lane sums stay in
 * registers while every point passes by.
 */
#define BLOCK 64 /* pixels per block */

static inline __attribute__((always_inline)) void
gamut_block(const int nc, const float *src, long chan_stride, long k, const float *pts,
            const float *wts, const float *coefs, long n, long unroll, float *out,
            long out_stride)
{
    float rgb[3][BLOCK], acc[3][BLOCK], lane[3][BLOCK];
    for (int ch = 0; ch < 3; ch++)
        for (long j = 0; j < BLOCK; j++)
            rgb[ch][j] = j < k ? src[ch * chan_stride + j] : 0.0f;

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

/* src: three planes of `total` adjacent pixels, chan_stride apart. table:
 * (2n + 4, 3) row-major, the n control points, then the n weight rows, then
 * the 4 bias rows. The nc output channels (1 or 3) start at channel c0; out is
 * (nc, total) row-major. */
void
gamut(const float *src, long chan_stride, long total, const float *table, long c0, long nc,
      long n, long unroll, float *out)
{
    const float *pts = table, *wts = table + 3 * n + c0, *coefs = table + 6 * n + c0;
    for (long s = 0; s < total; s += BLOCK) {
        long k = total - s < BLOCK ? total - s : BLOCK;
        /* a constant nc, so that each case compiles to its own loop */
        if (nc == 1)
            gamut_block(1, src + s, chan_stride, k, pts, wts, coefs, n, unroll, out + s, total);
        else
            gamut_block(3, src + s, chan_stride, k, pts, wts, coefs, n, unroll, out + s, total);
    }
}
