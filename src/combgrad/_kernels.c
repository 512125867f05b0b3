/* Compiled solver kernels for combgrad._kernels, built as the CPython
 * extension module combgrad._ckernels against the numpy C-API.
 *
 * The solve, the refinement, the certificate's closure, the lattice DP and
 * the alignment gradient scatter repeat the numpy reference in _kernels.py
 * statement for statement, looped over a C-contiguous stack of instances in
 * one call.  The arithmetic and its order match the reference, so with
 * floating-point contraction disabled (-ffp-contract=off) the outputs are
 * bitwise equal.  The code
 * spends its time on arithmetic, not on branches: a minimum whose operands
 * depend on the data is picked by selects, which compile without branches.
 * assign_many checks its costs' range before it solves, with the
 * predicate of _check_cost_range, which the numpy body calls at entry.
 * Two steps have no numpy counterpart: two O(n^2) tests that let
 * assign_many skip the O(n^3) closure, light_acyclic on instances whose
 * light swaps form no cycle and light_two_cycle on those where two rows
 * trade columns within tol.  Their verdicts must equal the closure's,
 * which the bitwise tests check, and the module counts the closures it
 * runs (closures()), so a test can tell that the shortcuts do run.  The
 * alignment DP keeps only the nodes' costs and picks the path's steps on
 * the backtrack, as _gsa_py does, but runs each row in one loop where
 * _gsa_py takes the row's diagonal and vertical candidates as one vector
 * op.
 *
 * assign_many also returns each matching's cost z, summed in numpy's
 * pairwise order (pairwise_sum) so that it equals C[rows, perm].sum() bit
 * for bit, and for a single instance its 0/1 matrix M: a certified single
 * solve needs nothing else from Python.  gsa_grads checks a path and
 * scatters its gradient in one pass over its steps.
 *
 * The module's solver entry points, assign_many and gsa_many, take one
 * instance or a stack of them as any array numpy can read as float64,
 * allocate their outputs as read-only numpy arrays and hand them to the
 * bodies, which write into them directly; gsa_grads does the same with
 * int8 kinds and int64 cells.  The bodies return 0 on success, 1 when the
 * workspace allocation fails and 2 when a non-finite cost leaves a step
 * with no finite choice; an entry point returns such a nonzero status as an
 * int, and _raise_status in _kernels.py raises the error it stands for
 * (MemoryError or NonFinite).  assign_many's body
 * returns 3, before it solves anything, when a cost is NaN, infinite or so
 * large that a sum over a matching can overflow (the caller raises
 * NonFinite with _check_cost_range's message), so status 0 means its costs
 * were in range and its duals, costs and cycle sums finite.  gsa_many
 * checks no range: alignment.check_grids keeps overflowing grids out.
 * gsa_grads returns 4 on a bad kind (or one path that does not cross its
 * grid) and 5 on a cell outside it, on which _kernels.py raises
 * DimensionMismatch.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/arrayscalars.h>

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Augmenting search of _lex_refine's rematch: re-match row r along tight
 * columns, depth first with explicit stacks, skipping visited columns and
 * never displacing a fixed row.  rows[s] scans its tight columns from
 * nxt[s]; via[s] is the column it tries, whose owner is rows[s + 1], so
 * via holds depth - 1 columns.  Commits only along a successful path. */
static int rematch(int64_t r, const int64_t *cols, const int64_t *ends, int64_t *matchL, int64_t *matchR,
                   const char *fixed, char *visited, int64_t *rows, int64_t *nxt, int64_t *via)
{
    int64_t depth = 1;
    rows[0] = r;
    nxt[0] = 0;
    while (depth > 0) {
        int64_t row = rows[depth - 1], k = nxt[depth - 1], len = ends[row + 1] - ends[row];
        const int64_t *cr = cols + ends[row];
        int pushed = 0;
        while (k < len) {
            int64_t j = cr[k];
            k += 1;
            if (visited[j])
                continue;
            visited[j] = 1;
            int64_t owner = matchR[j];
            if (owner < 0) {
                via[depth - 1] = j;
                for (int64_t s = 0; s < depth; s++) {
                    matchL[rows[s]] = via[s];
                    matchR[via[s]] = rows[s];
                }
                return 1;
            }
            if (!fixed[owner]) {
                nxt[depth - 1] = k;
                via[depth - 1] = j;
                rows[depth] = owner;
                nxt[depth] = 0;
                depth += 1;
                pushed = 1;
                break;
            }
        }
        if (!pushed)
            depth -= 1;
    }
    return 0;
}

/* _lex_refine's procedure: turn the optimal matching matchL of the n x n costs
 * C into the lexicographically smallest perfect matching of the tight graph
 * {(i, j) : (C[i, j] - u[i]) - v[j] <= tight}, fixing rows in order, where
 * tight is tol / n.  u and v are the solve's 1-based potentials.  cols holds
 * each row's tight columns in ascending order, row i's from ends[i] to
 * ends[i + 1]. */
static void lex_refine(const double *C, int64_t n, double tight, const double *u, const double *v, int64_t *matchL,
                       int64_t *cols, int64_t *ends, int64_t *matchR, int64_t *rows, int64_t *nxt, int64_t *via,
                       char *fixed, char *visited)
{
    int64_t e = 0;
    for (int64_t i = 0; i < n; i++) {
        ends[i] = e;
        for (int64_t j = 0; j < n; j++)
            if ((C[i * n + j] - u[i + 1]) - v[j + 1] <= tight)
                cols[e++] = j;
    }
    ends[n] = e;
    for (int64_t i = 0; i < n; i++) {
        matchR[matchL[i]] = i;
        fixed[i] = 0;
    }
    for (int64_t i = 0; i < n; i++) {
        for (int64_t c = ends[i]; c < ends[i + 1]; c++) {
            int64_t j = cols[c];
            if (j == matchL[i])
                break;
            int64_t r = matchR[j];
            if (fixed[r])
                continue;
            int64_t old = matchL[i];
            matchL[i] = j;
            matchR[j] = i;
            matchR[old] = -1;
            for (int64_t col = 0; col < n; col++)
                visited[col] = 0;
            visited[j] = 1;
            if (rematch(r, cols, ends, matchL, matchR, fixed, visited, rows, nxt, via))
                break;
            matchL[i] = old;
            matchR[old] = i;
            matchR[j] = r;
        }
        fixed[i] = 1;
    }
}

/* np.minimum(a, b): the smaller of a and b, and NaN when either is NaN (of
 * two equal zeros it may return the other sign, which no comparison sees).
 * Written as two selects the compiler emits without branches: the closure's
 * comparisons are data dependent, and a mispredicted branch costs more than
 * the whole step. */
static double np_minimum(double a, double b)
{
    double m = b < a ? b : a;
    return b != b ? b : m;
}

/* _min_cycle for one n x n graph D, which it overwrites: the weight
 * of the lightest directed cycle, inf when there is none.  numpy forms the
 * whole sum D[:, m] + D[m, :] before it takes the minimum, so step m reads
 * column m and row m from copies taken before the step (col and row). */
static double min_cycle(double *D, int64_t n, double *col, double *row)
{
    for (int64_t i = 0; i < n; i++)
        D[i * n + i] = INFINITY;
    for (int64_t m = 0; m < n; m++) {
        for (int64_t i = 0; i < n; i++) {
            col[i] = D[i * n + m];
            row[i] = D[m * n + i];
        }
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = 0; j < n; j++)
                D[i * n + j] = np_minimum(D[i * n + j], col[i] + row[j]);
    }
    double best = INFINITY;
    for (int64_t i = 0; i < n; i++)
        best = np_minimum(best, D[i * n + i]);
    return best;
}

/* The closure's shortcut for one n x n graph D: 1 when its edges of weight
 * at most thr form no directed cycle (the diagonal counts as an edge), so
 * no cycle weighs at most tol and the closure would say unique.  It has no
 * numpy counterpart; its verdict must equal the closure's.  Kahn's
 * algorithm: queue every node that no light edge enters, and removing a
 * queued node's edges queues each node it leaves with none; the graph is
 * acyclic when every node gets queued.  O(n^2), and written without
 * data-dependent branches: a node joins the queue by a write that only
 * advances the queue's end when it belongs there.  indeg holds n counts,
 * queue n + 1 nodes. */
static int light_acyclic(const double *D, int64_t n, double thr, int64_t *indeg, int64_t *queue)
{
    for (int64_t r = 0; r < n; r++)
        indeg[r] = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t r = 0; r < n; r++)
            indeg[r] += D[i * n + r] <= thr;
    int64_t end = 0;
    for (int64_t r = 0; r < n; r++) {
        queue[end] = r;
        end += indeg[r] == 0;
    }
    for (int64_t head = 0; head < end; head++) {
        const double *Di = D + queue[head] * n;
        for (int64_t r = 0; r < n; r++) {
            int64_t light = Di[r] <= thr;
            indeg[r] -= light;
            queue[end] = r;
            end += light & (indeg[r] == 0);
        }
    }
    return end == n;
}

/* The closure's second shortcut, for one n x n graph D whose diagonal is
 * inf: 1 when some 2-cycle weighs at most tol, so the closure would say
 * tied.  Its entries only ever fall and IEEE addition is monotone, so the
 * closure's D[i][i] is at most D[i][r] + D[r][i] (or NaN, which also reads
 * as a tie).  It has no numpy counterpart either.  O(n^2), with no
 * data-dependent branch. */
static int light_two_cycle(const double *D, int64_t n, double tol)
{
    int light = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t r = i + 1; r < n; r++)
            light |= D[i * n + r] + D[r * n + i] <= tol;
    return light;
}

/* numpy's pairwise summation of a[0..n) (pairwise_sum_DOUBLE in numpy's
 * loops_utils.h.src), which np.add.reduce applies to a contiguous row: in
 * order below 8 terms, eight interleaved partial sums combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then the remainder
 * up to 128, and halves at a multiple of 8 above.  np.sum adds the result
 * to add's identity, 0.0, so a sum of -0.0 terms reads +0.0. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Assignment: _assign_many_py over a (k, n, n) stack.  First one pass over
 * every cost returns 3 if any is NaN, infinite or larger in magnitude than
 * lim = DBL_MAX / (32 max(n, 1)), which is _check_cost_range's predicate:
 * a branch-free OR of !(fabs(c) <= lim) over the stack.  Each instance
 * is then solved as in _assign_core_py (Jonker-Volgenant shortest
 * augmenting paths with potentials, 1-based with sentinel row and column
 * 0), its matching is refined by lex_refine, and unique[t] is the verdict
 * of _certify: 1 when min_cycle over the swap costs
 * W[i, r] = slack[i, perm[r]] - slack[r, perm[r]] exceeds tol, with
 * slack = (C - u) - v.  The closure runs only when neither shortcut can
 * settle it: with no W a NaN and no cycle among the swaps of at most
 * thr = (tol - (n - 1) * min(w_min, 0)) * (1 + 1e-6), unique[t] = 1, since
 * a cycle of at most n swaps that weighs at most tol uses only such swaps
 * (light_acyclic); failing that, a 2-cycle of at most tol makes
 * unique[t] = 0 (light_two_cycle), which only instances with a cycle of
 * light swaps pay for.  Each closure run adds one to *closures.
 * It writes the stacked perms (k * n int64), u and v (k * n doubles each),
 * unique (k bytes) and each matching's cost zs[t], the sum of C[i, perm[i]]
 * over the rows i as np.sum takes it (0.0 + pairwise_sum).  One workspace
 * serves every instance.  Returns 2 if an instance has no free column with
 * a finite reduced cost: a second line of defence, since costs that pass
 * the range check keep every reduced cost finite. */
static int assign_many(const double *Cs, int64_t k, int64_t n, double tol, int64_t *perms, double *us, double *vs,
                       char *unique, double *zs, int64_t *closures)
{
    /* !(fabs(c) <= lim) for every cost, on bit patterns, which vectorizes
     * where the double comparison does not: with the sign bit cleared, a
     * double's pattern orders like its magnitude and NaN's lie above inf's,
     * so lim's pattern minus a cost's borrows into the top bit exactly when
     * the cost fails. */
    const double lim = DBL_MAX / (32.0 * (double)(n > 1 ? n : 1));
    uint64_t lim_bits, borrow = 0;
    memcpy(&lim_bits, &lim, sizeof lim_bits);
    for (int64_t e = 0; e < k * n * n; e++) {
        uint64_t bits;
        memcpy(&bits, Cs + e, sizeof bits);
        borrow |= lim_bits - (bits & 0x7fffffffffffffff);
    }
    if (borrow >> 63)
        return 3;
    double *u = malloc(sizeof(double) * (n * n + 5 * n + 3) + sizeof(int64_t) * (n * n + 7 * n + 6) + 3 * n + 1);
    if (u == NULL)
        return 1;
    double *v = u + (n + 1), *minv = v + (n + 1), *D = minv + (n + 1), *col = D + n * n, *row = col + n;
    int64_t *p = (int64_t *)(row + n), *way = p + (n + 1);
    int64_t *ends = way + (n + 1), *rows = ends + (n + 1), *nxt = rows + (n + 1), *via = nxt + (n + 1);
    int64_t *matchR = via + (n + 1), *cols = matchR + n;
    char *used = (char *)(cols + n * n), *fixed = used + (n + 1), *visited = fixed + n;
    const double tight = tol / (double)(n > 1 ? n : 1);
    int status = 2;
    for (int64_t t = 0; t < k; t++) {
        const double *C = Cs + t * n * n;
        for (int64_t j = 0; j <= n; j++) {
            u[j] = 0.0;
            v[j] = 0.0;
            p[j] = 0;
            way[j] = 0;
        }
        for (int64_t i = 1; i <= n; i++) {
            p[0] = i;
            int64_t j0 = 0;
            for (int64_t j = 0; j <= n; j++) {
                minv[j] = INFINITY;
                used[j] = 0;
            }
            for (;;) {
                used[j0] = 1;
                int64_t i0 = p[j0], j1 = 0;
                double delta = INFINITY;
                for (int64_t j = 1; j <= n; j++) {
                    if (!used[j]) {
                        double cur = C[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
                        if (cur < minv[j]) {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if (minv[j] < delta) {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                if (j1 == 0)
                    goto done;
                for (int64_t j = 0; j <= n; j++) {
                    if (used[j]) {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if (p[j0] == 0)
                    break;
            }
            do {
                int64_t j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
            } while (j0 != 0);
        }
        for (int64_t j = 1; j <= n; j++) {
            perms[t * n + p[j] - 1] = j - 1;
            us[t * n + j - 1] = u[j];
            vs[t * n + j - 1] = v[j];
        }
        int64_t *perm = perms + t * n;
        lex_refine(C, n, tight, u, v, perm, cols, ends, matchR, rows, nxt, via, fixed, visited);
        double wmin = INFINITY;
        int has_nan = 0;
        for (int64_t i = 0; i < n; i++) {
            for (int64_t r = 0; r < n; r++) {
                int64_t j = perm[r];
                double w = ((C[i * n + j] - u[i + 1]) - v[j + 1]) - ((C[r * n + j] - u[r + 1]) - v[j + 1]);
                D[i * n + r] = w;
                wmin = w < wmin ? w : wmin;
                has_nan |= w != w;
            }
            D[i * n + i] = INFINITY;
        }
        /* lex_refine is done with rows and nxt: the pre-check's queue and
         * in-degrees. */
        double thr = (tol - (double)(n - 1) * (wmin < 0.0 ? wmin : 0.0)) * (1.0 + 1e-6);
        int verdict = !has_nan && light_acyclic(D, n, thr, nxt, rows);
        if (!verdict && !light_two_cycle(D, n, tol)) {
            *closures += 1;
            verdict = min_cycle(D, n, col, row) > tol;
        }
        unique[t] = verdict;
        /* The matched costs, gathered into col, which the closure is done
         * with.  Done here, past the certificate: summed between the
         * refinement and the swap weights, it slowed the solve of a b = 32
         * product-cost stack by 15% (gcc 12 -O3, 2-core Xeon). */
        for (int64_t i = 0; i < n; i++)
            col[i] = C[i * n + perm[i]];
        zs[t] = 0.0 + pairwise_sum(col, n);
    }
    status = 0;
done:
    free(u);
    return status;
}

/* Alignment: _gsa_py over a (nb, Tp, Tt) stack.  Per instance t it writes
 * zs[t], the path of length Tp + Tt at offset t * (Tp + Tt) (each step's
 * kind and the stack-flat index t * Tp * Tt + cell of the cost it paid,
 * where cell indexes grid t with the gap clamp included; filled from the
 * end, with kind 0 and cell t * Tp * Tt before the first step) and
 * unique[t].  Returns 2 if the backtrack would leave the lattice, which
 * only unreachable (infinite-cost) nodes cause.
 *
 * The forward DP keeps only each node's cost, under a row of inf where no
 * diagonal or vertical step starts.  The diagonal and vertical candidates
 * read the row above, so only the horizontal step is a serial chain: its
 * source cost stays in a register (left).  Each minimum is a select, so
 * of equal candidates the first is kept; equal costs have equal bits, since
 * no cost is -0 (the origin's is +0, and a sum is -0 only when both terms
 * are).
 *
 * The backtrack recomputes, at each node v on the path, the candidates
 * into v, bit for bit as the DP did.  The step it takes is their minimum
 * in the tie order match, skip-target, skip-pred.  unique is the global
 * rule the test oracle second_best_path checks: every other path costs
 * more than z + tol * (1 + |z|).  Another path leaves this one and rejoins
 * it at some node v by a step this path does not take; the cheapest such
 * path costs that step's candidate plus the cost from v to the end,
 * z - dist[v].  So the path is tied when, at some node v, a second
 * candidate is within tol * (1 + |z|) of dist[v].  A step that does not
 * exist is NaN, which no comparison picks or counts. */
static int gsa_many(const double *ms, int64_t nb, int64_t Tp, int64_t Tt, double gamma, double tol, double *zs,
                    int8_t *kinds, int64_t *cells, char *unique)
{
    int64_t W = Tt + 1, nodes = (Tp + 1) * W, total = Tp + Tt;
    double *above = malloc(sizeof(double) * (nodes + W));
    if (above == NULL)
        return 1;
    double *dist = above + W;
    for (int64_t k = 0; k <= Tt; k++)
        above[k] = INFINITY;
    int status = 2;
    for (int64_t t = 0; t < nb; t++) {
        int64_t base = t * Tp * Tt;
        const double *m = ms + base;
        int8_t *kd = kinds + t * total;
        int64_t *cl = cells + t * total;
        for (int64_t i = 0; i <= Tp; i++) {
            double *cur = dist + i * W;
            const double *up = cur - W, *mu = m + (i > 0 ? i - 1 : 0) * Tt, *mh = m + (i < Tp ? i : Tp - 1) * Tt;
            /* Node (i, 0) has only a vertical step, and (0, 0) none. */
            double cand_v = up[0] + gamma * mu[0];
            double left = i > 0 ? (cand_v < INFINITY ? cand_v : INFINITY) : 0.0;
            cur[0] = left;
            for (int64_t k = 1; k <= Tt; k++) {
                double cand_d = up[k - 1] + mu[k - 1];
                cand_v = up[k] + gamma * mu[k < Tt ? k : Tt - 1];
                double best = cand_d < INFINITY ? cand_d : INFINITY;
                best = cand_v < best ? cand_v : best;
                double cand_h = left + gamma * mh[k - 1];
                left = cand_h < best ? cand_h : best;
                cur[k] = left;
            }
        }
        for (int64_t e = 0; e < total; e++) {
            kd[e] = 0;
            cl[e] = base;
        }
        double z = dist[Tp * W + Tt], slack = tol * (1.0 + fabs(z));
        int64_t i = Tp, k = Tt, p = total, tied = 0;
        while (i != 0 || k != 0) {
            double cand_d = NAN, cand_h = NAN, cand_v = NAN;
            if (i > 0 && k > 0)
                cand_d = dist[(i - 1) * W + (k - 1)] + m[(i - 1) * Tt + (k - 1)];
            if (k > 0)
                cand_h = dist[i * W + (k - 1)] + gamma * m[(i < Tp ? i : Tp - 1) * Tt + (k - 1)];
            if (i > 0)
                cand_v = dist[(i - 1) * W + k] + gamma * m[(i - 1) * Tt + (k < Tt ? k : Tt - 1)];
            double lim = dist[i * W + k] + slack;
            tied |= (cand_d <= lim) + (cand_h <= lim) + (cand_v <= lim) > 1;
            double best = INFINITY;
            int8_t ch = 0;
            ch = cand_d < best ? 1 : ch;
            best = cand_d < best ? cand_d : best;
            ch = cand_h < best ? 2 : ch;
            best = cand_h < best ? cand_h : best;
            ch = cand_v < best ? 3 : ch;
            int64_t cell;
            p -= 1;
            if (ch == 1) {
                i -= 1;
                k -= 1;
                cell = i * Tt + k;
            } else if (ch == 2) {
                k -= 1;
                cell = (i < Tp ? i : Tp - 1) * Tt + k;
            } else {
                if (i == 0)
                    goto done;
                ch = 3;
                i -= 1;
                cell = i * Tt + (k < Tt ? k : Tt - 1);
            }
            kd[p] = ch;
            cl[p] = base + cell;
        }
        zs[t] = z;
        unique[t] = !tied;
    }
    status = 0;
done:
    free(above);
    return status;
}

/* The gradient scatter: _gsa_grads_py over `steps` path steps, kinds and
 * cells in path order, into G, which holds `bound` zeros.  Each step adds
 * its kind's weight (0, 1, gamma, gamma) to G[cell], as np.bincount adds
 * them.  Returns 4 when a kind is not 0 to 3, or when `path` (one whole
 * path) is set and the kinds have a 0 or do not cross the Tp x Tt grid;
 * else 5 when a cell is not in [0, bound), which it never writes; else 0. */
static int gsa_grads(const int8_t *kinds, const int64_t *cells, int64_t steps, int path, int64_t Tp, int64_t Tt,
                     double gamma, double *G, int64_t bound)
{
    const double weight[4] = {0.0, 1.0, gamma, gamma};
    int64_t n[4] = {0, 0, 0, 0};
    int bad_kind = 0, bad_cell = 0;
    for (int64_t e = 0; e < steps; e++) {
        int kind = kinds[e] & 3;
        bad_kind |= (uint8_t)kinds[e] > 3;
        n[kind] += 1;
        if ((uint64_t)cells[e] < (uint64_t)bound)
            G[cells[e]] += weight[kind];
        else
            bad_cell = 1;
    }
    if (bad_kind || (path && (n[0] != 0 || n[1] + n[2] != Tt || n[1] + n[3] != Tp)))
        return 4;
    return bad_cell ? 5 : 0;
}

/* ------------------------------------------------------------------------
 * The module.  Each entry point takes one instance or a stack of them.  A
 * stack of k gives stacked arrays and a (k,) bool array; one instance
 * gives 1-D arrays, gsa_many's z as a float and unique as a numpy bool.
 * The bodies run without the GIL on pointers taken before it is released:
 * they touch no Python object.
 * ------------------------------------------------------------------------ */

/* The closures assign_many has run in this process. */
static int64_t closures_run;

/* A new read-only array of the given shape and type, or NULL with an
 * exception set: the bodies write it through its data pointer, which the
 * flag does not guard. */
static PyObject *frozen_empty(int nd, npy_intp *dims, int type)
{
    PyObject *a = PyArray_EMPTY(nd, dims, type, 0);
    if (a != NULL)
        PyArray_CLEARFLAGS((PyArrayObject *)a, NPY_ARRAY_WRITEABLE);
    return a;
}

static void *data(PyObject *a)
{
    return PyArray_DATA((PyArrayObject *)a);
}

/* The costs in args[0] as a C-contiguous float64 array of rank 2 or 3, a
 * new reference that copies nothing when they already are one, and the
 * other want - 1 arguments as doubles; NULL with an exception set on
 * failure. */
static PyArrayObject *parse(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want, double *scalars,
                            const char *usage)
{
    if (nargs != want) {
        PyErr_SetString(PyExc_TypeError, usage);
        return NULL;
    }
    for (Py_ssize_t a = 1; a < want; a++) {
        scalars[a - 1] = PyFloat_AsDouble(args[a]);
        if (scalars[a - 1] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    return (PyArrayObject *)PyArray_FROMANY(args[0], NPY_DOUBLE, 2, 3, NPY_ARRAY_IN_ARRAY);
}

/* A single instance's unique as a numpy bool, a new reference. */
static PyObject *bool_scalar(char unique)
{
    PyObject *scalar = unique ? PyArrayScalar_True : PyArrayScalar_False;
    Py_INCREF(scalar);
    return scalar;
}

/* 1 when none of the first count outputs is NULL. */
static int made(PyObject **out, int count)
{
    for (int i = 0; i < count; i++)
        if (out[i] == NULL)
            return 0;
    return 1;
}

/* What an entry point returns once it is done with its count outputs: the
 * body's status as an int when it is nonzero, else the outputs as a tuple,
 * or NULL with numpy's exception set when one of them could not be made
 * (and the body did not run).  Releases the entry point's references. */
static PyObject *result(PyObject **out, int count, int status)
{
    PyObject *res = NULL;
    if (status)
        res = PyLong_FromLong(status);
    else if (made(out, count)) {
        res = PyTuple_New(count);
        for (int i = 0; res != NULL && i < count; i++) {
            Py_INCREF(out[i]);
            PyTuple_SET_ITEM(res, i, out[i]);
        }
    }
    for (int i = 0; i < count; i++)
        Py_XDECREF(out[i]);
    return res;
}

/* assign_many(costs, tol) -> (perms, us, vs, unique, zs) for a stack,
 * (perm, u, v, unique, z, M) for one instance, or a nonzero status.  M, the
 * instance's 0/1 matching matrix, is made for one instance only: a stack
 * would pay O(n^2) per instance for it. */
static PyObject *py_assign_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    double tol;
    PyArrayObject *costs = parse(args, nargs, 2, &tol, "assign_many(costs, tol)");
    if (costs == NULL)
        return NULL;
    int nd = PyArray_NDIM(costs), stacked = nd == 3;
    npy_intp *shape = PyArray_DIMS(costs), n = shape[nd - 1];
    if (shape[nd - 2] != n) {
        Py_DECREF(costs);
        PyErr_SetString(PyExc_ValueError, "cost matrices must be square");
        return NULL;
    }
    /* The stack's (k, n) rows; one instance's (n,) is dims + 1 and its M
     * (n, n) is square. */
    npy_intp dims[2] = {stacked ? shape[0] : 1, n}, square[2] = {n, n};
    double z = 0.0;
    char one = 0;
    PyObject *out[6] = {
        frozen_empty(nd - 1, dims + !stacked, NPY_INT64),
        frozen_empty(nd - 1, dims + !stacked, NPY_FLOAT64),
        frozen_empty(nd - 1, dims + !stacked, NPY_FLOAT64),
        stacked ? frozen_empty(1, dims, NPY_BOOL) : NULL,
        stacked ? frozen_empty(1, dims, NPY_FLOAT64) : NULL,
        stacked ? NULL : PyArray_ZEROS(2, square, NPY_FLOAT64, 0),
    };
    int status = 0;
    if (made(out, 3) && (stacked ? made(out + 3, 2) : out[5] != NULL)) {
        const double *C = data((PyObject *)costs);
        int64_t *perms = data(out[0]), closures = 0;
        double *us = data(out[1]), *vs = data(out[2]), *zs = stacked ? data(out[4]) : &z;
        char *unique = stacked ? data(out[3]) : &one;
        Py_BEGIN_ALLOW_THREADS
        status = assign_many(C, dims[0], n, tol, perms, us, vs, unique, zs, &closures);
        Py_END_ALLOW_THREADS
        closures_run += closures;
        if (!stacked) {
            double *M = data(out[5]);
            for (npy_intp i = 0; status == 0 && i < n; i++)
                M[i * n + perms[i]] = 1.0;
            PyArray_CLEARFLAGS((PyArrayObject *)out[5], NPY_ARRAY_WRITEABLE);
            out[3] = bool_scalar(one);
            out[4] = PyFloat_FromDouble(z);
        }
    }
    Py_DECREF(costs);
    return result(out, stacked ? 5 : 6, status);
}

/* gsa_many(costs, gamma, tol) -> (z, kinds, cells, unique) or a nonzero
 * status. */
static PyObject *py_gsa_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    double gamma_tol[2];
    PyArrayObject *costs = parse(args, nargs, 3, gamma_tol, "gsa_many(costs, gamma, tol)");
    if (costs == NULL)
        return NULL;
    int nd = PyArray_NDIM(costs), stacked = nd == 3;
    npy_intp *shape = PyArray_DIMS(costs), Tp = shape[nd - 2], Tt = shape[nd - 1];
    if (Tp < 1 || Tt < 1) {
        Py_DECREF(costs);
        PyErr_SetString(PyExc_ValueError, "grids must be non-empty");
        return NULL;
    }
    /* The stack's (nb, Tp + Tt) paths; one grid's (Tp + Tt,) is dims + 1. */
    npy_intp dims[2] = {stacked ? shape[0] : 1, Tp + Tt};
    double z = 0.0;
    char one = 0;
    PyObject *out[4] = {
        stacked ? frozen_empty(1, dims, NPY_FLOAT64) : NULL,
        frozen_empty(nd - 1, dims + !stacked, NPY_INT8),
        frozen_empty(nd - 1, dims + !stacked, NPY_INT64),
        stacked ? frozen_empty(1, dims, NPY_BOOL) : NULL,
    };
    int status = 0;
    if (out[1] != NULL && out[2] != NULL && (!stacked || (out[0] != NULL && out[3] != NULL))) {
        const double *ms = data((PyObject *)costs);
        double *zs = stacked ? data(out[0]) : &z;
        int8_t *kinds = data(out[1]);
        int64_t *cells = data(out[2]);
        char *unique = stacked ? data(out[3]) : &one;
        Py_BEGIN_ALLOW_THREADS
        status = gsa_many(ms, dims[0], Tp, Tt, gamma_tol[0], gamma_tol[1], zs, kinds, cells, unique);
        Py_END_ALLOW_THREADS
        if (!stacked) {
            out[0] = PyFloat_FromDouble(z);
            out[3] = bool_scalar(one);
        }
    }
    Py_DECREF(costs);
    return result(out, 4, status);
}

/* gsa_grads(kinds, cells, Tp, Tt, gamma) -> G or a nonzero status.  One
 * whole path of int8 kinds and int64 cells gives its (Tp, Tt) gradient; a
 * (nb, steps) stack of padded paths with stack-flat cells gives the
 * (nb, Tp, Tt) stack.  A path is O(Tp + Tt) steps, too short to be worth
 * releasing the GIL for. */
static PyObject *py_gsa_grads(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "gsa_grads(kinds, cells, Tp, Tt, gamma)");
        return NULL;
    }
    long long Tp = PyLong_AsLongLong(args[2]), Tt = PyLong_AsLongLong(args[3]);
    double gamma = PyFloat_AsDouble(args[4]);
    if (PyErr_Occurred())
        return NULL;
    PyArrayObject *kinds = (PyArrayObject *)PyArray_FROMANY(args[0], NPY_INT8, 1, 2, NPY_ARRAY_IN_ARRAY);
    PyArrayObject *cells = kinds == NULL ? NULL
                                         : (PyArrayObject *)PyArray_FROMANY(args[1], NPY_INT64, 1, 2, NPY_ARRAY_IN_ARRAY);
    PyObject *G = NULL;
    int status = 0;
    if (cells != NULL) {
        int nd = PyArray_NDIM(kinds), path = nd == 1;
        if (!PyArray_SAMESHAPE(kinds, cells))
            PyErr_SetString(PyExc_ValueError, "kinds and cells must share a shape");
        else {
            npy_intp dims[3] = {PyArray_DIM(kinds, 0), Tp, Tt};
            G = PyArray_ZEROS(nd + 1, dims + path, NPY_FLOAT64, 0);
        }
        if (G != NULL) {
            status = gsa_grads(data((PyObject *)kinds), data((PyObject *)cells), PyArray_SIZE(kinds), path, Tp, Tt,
                               gamma, data(G), PyArray_SIZE((PyArrayObject *)G));
            PyArray_CLEARFLAGS((PyArrayObject *)G, NPY_ARRAY_WRITEABLE);
        }
    }
    Py_XDECREF(kinds);
    Py_XDECREF(cells);
    if (status) {
        Py_DECREF(G);
        return PyLong_FromLong(status);
    }
    return G;
}

/* closures() -> the number of O(n^3) certificate closures assign_many has
 * run in this process: a test's view of whether the shortcuts run. */
static PyObject *py_closures(PyObject *self, PyObject *unused)
{
    (void)self;
    (void)unused;
    return PyLong_FromLongLong(closures_run);
}

static PyMethodDef methods[] = {
    {"assign_many", (PyCFunction)(void (*)(void))py_assign_many, METH_FASTCALL,
     "Solve and certify one (n, n) assignment instance or a (k, n, n) stack."},
    {"gsa_many", (PyCFunction)(void (*)(void))py_gsa_many, METH_FASTCALL,
     "Solve one (Tp, Tt) alignment grid or a (nb, Tp, Tt) stack."},
    {"gsa_grads", (PyCFunction)(void (*)(void))py_gsa_grads, METH_FASTCALL,
     "Scatter one alignment path, or a stack of them, into its gradient."},
    {"closures", py_closures, METH_NOARGS, "The certificate closures assign_many has run."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernels",
    .m_doc = "Compiled solver kernels for combgrad._kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    import_array();
    return PyModule_Create(&module);
}
