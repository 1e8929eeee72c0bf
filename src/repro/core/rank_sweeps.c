/* Rank steps of a Gibbs ensemble's sweeps, over one block of uniforms.
 *
 * The C form of GibbsEnsemble's fused rank step (repro/core/gibbs.py),
 * loaded through ctypes by repro/core/native.py.  Every buffer is a
 * C-contiguous NumPy array the ensemble already holds:
 *
 *   state     (rows, stride) int64 rank state, deepest-missing rows first
 *   lo        (ranks + 1) int64: rank step j's rows are 0 .. lo[j+1]-lo[j],
 *             its weight rows and rank positions lo[j] .. lo[j+1]
 *   weights   (lo[ranks], stride) int64 multipliers of every rank step
 *   index     (index_size) int64 key -> slot (_RankTables.index)
 *   columns   (width, slots) float64 CDF columns (_RankTables.columns)
 *   uniforms  float64, each segment's block in its own region
 *   ubase, ustep  (lo[ranks]) int64: rank position p of block sweep s
 *             reads uniforms[ubase[p] + s * ustep[p]]
 *   cells     (ncells) int64 positions of the recorded cells in state
 *   trace     (.., ncells) signed integers of itemsize 1, 2, 4 or 8, or NULL
 *   counts    int64 histogram cells, or NULL
 *   strides   (ncells) int64 row-major outcome stride of each cell
 *   sample_lo (nsamples + 1) int64: sample i's cells are
 *             sample_lo[i] .. sample_lo[i+1]
 *   bases     (2, nsamples) int64 first histogram cell of each sample's
 *             row; the second row is used for recorded sweep last_row,
 *             and a negative base there drops the sample
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
 * After a sweep's last step, block sweep s is recorded sweep row0 + s
 * when that is not negative (burn-in sweeps are not).  It is copied into
 * that trace row, or each sample adds one to
 * counts[base + sum(state[cells[c]] * strides[c])]: its outcome's cell
 * in its tuple's histogram row.
 *
 * Only integer arithmetic (wrapping like NumPy's int64) and float64 `<=`
 * compares, so the result does not depend on how the compiler orders or
 * contracts float operations; built without -ffast-math, a NaN compares
 * false as it does in NumPy.
 */
#include <stddef.h>
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

static void count(const int64_t *state, const int64_t *cells,
                  const int64_t *strides, const int64_t *sample_lo,
                  int64_t nsamples, const int64_t *bases, int64_t *counts)
{
    int64_t i, c;
    for (i = 0; i < nsamples; i++) {
        int64_t cell = bases[i];
        if (cell < 0)
            continue;
        for (c = sample_lo[i]; c < sample_lo[i + 1]; c++)
            cell += state[cells[c]] * strides[c];
        counts[cell]++;
    }
}

int64_t repro_rank_sweeps(
    int64_t *state, int64_t stride, int64_t ranks, const int64_t *lo,
    const int64_t *weights, const int64_t *index, int64_t index_size,
    const double *columns, int64_t width, int64_t slots,
    const double *uniforms, int64_t start, int64_t stop,
    const int64_t *ubase, const int64_t *ustep,
    const int64_t *cells, int64_t ncells, int64_t row0,
    char *trace, int64_t itemsize,
    int64_t *counts, const int64_t *strides, const int64_t *sample_lo,
    int64_t nsamples, const int64_t *bases, int64_t last_row,
    int64_t *scratch)
{
    int64_t at;
    for (at = start; at < stop; at++) {
        const int64_t sweep = at / ranks, j = at % ranks, row = row0 + sweep;
        const int64_t n = lo[j + 1] - lo[j];
        const int64_t *w = weights + lo[j] * stride;
        const int64_t *ub = ubase + lo[j], *us = ustep + lo[j];
        int64_t r, c, missed = 0;
        for (r = 0; r < n; r++) {
            const int64_t *sr = state + r * stride, *wr = w + r * stride;
            uint64_t acc = 0;
            int64_t key;
            for (c = 0; c < stride; c++)
                acc += (uint64_t)sr[c] * (uint64_t)wr[c];
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
            const double x = uniforms[ub[r] + sweep * us[r]];
            int64_t drawn = 0;
            for (c = 0; c < width; c++)
                drawn += col[c * slots] <= x;
            state[r * stride + j] = drawn;
        }
        if (j < ranks - 1 || row < 0)
            continue;
        if (trace != NULL)
            record(state, cells, ncells, trace + row * ncells * itemsize,
                   itemsize);
        if (counts != NULL)
            count(state, cells, strides, sample_lo, nsamples,
                  bases + (row == last_row) * nsamples, counts);
    }
    return stop;
}
