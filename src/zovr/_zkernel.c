/* The z kernel of prng.normals: its two loops around numpy's log.
 *
 * Built by prng at import with -O2 -fPIC -shared -ffp-contract=off and
 * nothing that licenses value-changing rewrites: no -ffast-math (which lets
 * GCC send cos to libmvec) and no -march=native. Each value takes the
 * operations of prng's numpy reference in the same order, so the two agree
 * bit for bit. It allocates nothing: `rows` is a numpy (2, count) float64
 * buffer. */
#include <math.h>
#include <stdint.h>

static const uint64_t GOLDEN = 0x9E3779B97F4A7C15ULL;

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
    for (int64_t j = 0; j < count; j++)
        rows[j] = sqrt(rows[j] * -2.0) * cos(rows[count + j]);
}
