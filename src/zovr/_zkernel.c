/* The z kernel of prng.normals: its two loops around numpy's log.
 *
 * Built by prng at import with -O2 -fPIC -shared -ffp-contract=off and
 * nothing that licenses value-changing rewrites: no -ffast-math (which lets
 * GCC send cos to libmvec) and no -march=native. Each value takes the
 * operations of prng's numpy reference in the same order, so the two agree
 * bit for bit. It allocates nothing on the heap: `rows` is a numpy
 * (2, count) float64 buffer, and its only tables are static const.
 *
 * The second loop is path-sorted. glibc's cos (s_sin.c, 2.28+) takes a
 * different branch in each of the nine intervals that PATH_EDGES cut from
 * [0, 2 pi): its small, pi/2-reflected and reduced ranges, the Taylor
 * neighbourhoods of pi/2 and 3 pi/2, and the quadrants after reduction. On
 * angles in stream order the predictor cannot guess those branches. So a
 * window of at least BLOCK values is taken in blocks of BLOCK, and each block
 * calls cos on its angles grouped by interval, ordered by a counting sort
 * into index arrays on the stack. Every value is still the same cos, sqrt and
 * multiply of the same inputs, so the edges can only change speed, never a
 * result, whatever the libm. A shorter window keeps the straight loop: there
 * the sort costs more than it saves. */
#include <math.h>
#include <stdint.h>

static const uint64_t GOLDEN = 0x9E3779B97F4A7C15ULL;

enum { BLOCK = 1024, PATHS = 9 };

/* 0.855469 and 2.426265 bound glibc's |x| < 0.855469 and pi/2 - |x| ranges;
 * pi/2 and 3 pi/2 +- 0.126 its Taylor sin; 5 pi/4 and 7 pi/4 its quadrants. */
static const double PATH_EDGES[PATHS - 1] = {
    0.855469, 1.5707963267948966 - 0.126, 1.5707963267948966 + 0.126, 2.426265,
    3.9269908169872414, 4.71238898038469 - 0.126, 4.71238898038469 + 0.126,
    5.497787143782138,
};

static uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Row 0: u1 = (even word >> 11) * 2^-53 + 2^-53 in (0, 1]. Row 1: the angle
 * (odd word >> 11) * (fl(2 pi) * 2^-53). `first` is the counter of the
 * window's first even word; its odd partner's is one GOLDEN more. */
void zovr_uniform_pairs(uint64_t first, int64_t count, double *rows)
{
    const double scale = 0x1p-53, angle = (2.0 * 3.141592653589793) * 0x1p-53;
    for (int64_t j = 0; j < count; j++) {
        uint64_t counter = first + 2 * (uint64_t)j * GOLDEN;
        rows[j] = (double)(int64_t)(mix64(counter) >> 11) * scale + scale;
        rows[count + j] = (double)(int64_t)(mix64(counter + GOLDEN) >> 11) * angle;
    }
}

/* Row 0 = sqrt(row 0 * -2) * cos(row 1), once row 0 holds log(u1). */
void zovr_box_muller(int64_t count, double *rows)
{
    const double *angles = rows + count;
    if (count < BLOCK) {
        for (int64_t j = 0; j < count; j++)
            rows[j] = sqrt(rows[j] * -2.0) * cos(angles[j]);
        return;
    }
    uint8_t path[BLOCK];
    uint16_t order[BLOCK];
    for (int64_t base = 0; base < count; base += BLOCK) {
        double *r = rows + base;
        const double *a = angles + base;
        int n = count - base < BLOCK ? (int)(count - base) : BLOCK;
        for (int i = 0; i < n; i++) {
            int key = 0;
            for (int e = 0; e < PATHS - 1; e++)
                key += a[i] >= PATH_EDGES[e];
            path[i] = (uint8_t)key;
        }
        int next[PATHS] = {0};  /* the first slot of each path, then its next */
        for (int i = 0; i < n; i++)
            next[path[i]]++;
        for (int k = 0, slot = 0; k < PATHS; k++) {
            int size = next[k];
            next[k] = slot;
            slot += size;
        }
        for (int i = 0; i < n; i++)
            order[next[path[i]]++] = (uint16_t)i;
        for (int i = 0; i < n; i++) {
            int j = order[i];
            r[j] = sqrt(r[j] * -2.0) * cos(a[j]);
        }
    }
}
