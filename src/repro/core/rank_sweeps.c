/* Rank steps of a Gibbs ensemble's sweeps, over one block of uniforms.
 *
 * The C form of GibbsEnsemble's fused rank step (repro/core/gibbs.py),
 * loaded through ctypes by repro/core/native.py.  Every buffer is a
 * C-contiguous NumPy array the ensemble already holds:
 *
 *   state     (rows, stride) int64 rank state, deepest-missing rows first
 *   lo        (ranks + 1) int64: rank step j's rows are 0 .. lo[j+1]-lo[j],
 *             its weight rows and uniform columns lo[j] .. lo[j+1]
 *   weights   (lo[ranks], stride) int64 multipliers of every rank step
 *   index     (index_size) int64 key -> slot (_RankTables.index)
 *   columns   (width, slots) float64 CDF columns (_RankTables.columns)
 *   uniforms  (sweeps, lo[ranks]) float64, rank order
 *   cells     (ncells) int64 positions of the recorded cells in state
 *   trace     (.., ncells) signed integers of itemsize 1, 2, 4 or 8
 *   scratch   (lo[1]) int64, one step's slots
 *
 * Position `at` is rank step `at % ranks` of block sweep `at / ranks`.
 * Steps run from `start` until a step cannot run fused, or `stop`.  A
 * step first finds every row's slot and only then draws, so a step that
 * stops writes nothing:
 *
 *   key = dot(state row, weight row); 0 <= key < index_size, else the
 *   return value is -(at + 1) (the IndexError of index.take);
 *   slot = index[key]; slot >= slots is a signature some memo lacks (a
 *   miss), and the return value is `at`;
 *   state[row, j] = count(columns[:, slot] <= u), Generator.choice's
 *   side="right" search over the row's CDF.
 *
 * After a sweep's last step, block sweep s is copied into trace row
 * row0 + s when that row is not negative (burn-in sweeps are not).
 *
 * Only integer arithmetic (wrapping like NumPy's int64) and float64 `<=`
 * compares, so the result does not depend on how the compiler orders or
 * contracts float operations; built without -ffast-math, a NaN compares
 * false as it does in NumPy.
 */
#include <stdint.h>

static void record(const int64_t *state, const int64_t *cells, int64_t ncells,
                   void *out, int64_t itemsize)
{
    int64_t c;
    switch (itemsize) {
    case 1:
        for (c = 0; c < ncells; c++)
            ((int8_t *)out)[c] = (int8_t)state[cells[c]];
        break;
    case 2:
        for (c = 0; c < ncells; c++)
            ((int16_t *)out)[c] = (int16_t)state[cells[c]];
        break;
    case 4:
        for (c = 0; c < ncells; c++)
            ((int32_t *)out)[c] = (int32_t)state[cells[c]];
        break;
    default:
        for (c = 0; c < ncells; c++)
            ((int64_t *)out)[c] = state[cells[c]];
    }
}

int64_t repro_rank_sweeps(
    int64_t *state, int64_t stride, int64_t ranks, const int64_t *lo,
    const int64_t *weights, const int64_t *index, int64_t index_size,
    const double *columns, int64_t width, int64_t slots,
    const double *uniforms, int64_t start, int64_t stop,
    const int64_t *cells, int64_t ncells, char *trace, int64_t itemsize,
    int64_t row0, int64_t *scratch)
{
    const int64_t per_sweep = lo[ranks];
    int64_t at;
    for (at = start; at < stop; at++) {
        const int64_t sweep = at / ranks, j = at % ranks;
        const int64_t n = lo[j + 1] - lo[j];
        const int64_t *w = weights + lo[j] * stride;
        const double *u = uniforms + sweep * per_sweep + lo[j];
        int64_t r, c, missed = 0;
        for (r = 0; r < n; r++) {
            const int64_t *row = state + r * stride, *wr = w + r * stride;
            uint64_t acc = 0;
            int64_t key;
            for (c = 0; c < stride; c++)
                acc += (uint64_t)row[c] * (uint64_t)wr[c];
            key = (int64_t)acc;
            if (key < 0 || key >= index_size)
                return -at - 1;
            scratch[r] = index[key];
            missed |= (uint64_t)scratch[r] >= (uint64_t)slots;
        }
        if (missed)
            return at;
        for (r = 0; r < n; r++) {
            const double *col = columns + scratch[r];
            const double x = u[r];
            int64_t count = 0;
            for (c = 0; c < width; c++)
                count += col[c * slots] <= x;
            state[r * stride + j] = count;
        }
        if (j == ranks - 1 && row0 + sweep >= 0)
            record(state, cells, ncells,
                   trace + (row0 + sweep) * ncells * itemsize, itemsize);
    }
    return stop;
}
