/* Compiled solver kernels for combgrad._kernels.
 *
 * The solve, the refinement, the certificate's closure and the lattice DP
 * repeat the numpy reference in _kernels.py statement for statement, looped
 * over a C-contiguous stack of instances in one call.  The arithmetic and
 * its order match the reference, so with floating-point contraction
 * disabled (-ffp-contract=off) the outputs are bitwise equal.  The code
 * spends its time on arithmetic, not on branches: a minimum whose operands
 * depend on the data is picked by selects, which compile without branches.
 * assign_many checks its costs' range before it solves, with the
 * predicate of _check_cost_range, which the numpy body calls at entry.
 * One step has no numpy counterpart: light_acyclic, an O(n^2) test, lets
 * assign_many skip the O(n^3) closure on instances whose light swaps form
 * no cycle, and its verdict must equal the closure's, which the bitwise
 * tests check.
 *
 * Both return 0 on success, 1 when the workspace allocation fails and 2
 * when a non-finite cost leaves a step with no finite choice (the caller
 * raises MemoryError and NonFinite).  assign_many returns 3, before it
 * solves anything, when a cost is NaN, infinite or so large that a sum over
 * a matching can overflow (the caller raises NonFinite with
 * _check_cost_range's message), so status 0 means its costs were in range
 * and its duals, costs and cycle sums finite.  gsa_many checks no range:
 * alignment.check_grids keeps overflowing grids out.
 */
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

/* Assignment: _assign_many_py over a (k, n, n) stack.  First one pass over
 * every cost returns 3 if any is NaN, infinite or larger in magnitude than
 * lim = DBL_MAX / (32 max(n, 1)), which is _check_cost_range's predicate:
 * a branch-free OR of !(fabs(c) <= lim) over the stack.  Each instance
 * is then solved as in _assign_core_py (Jonker-Volgenant shortest
 * augmenting paths with potentials, 1-based with sentinel row and column
 * 0), its matching is refined by lex_refine, and unique[t] is the verdict
 * of _certify: 1 when min_cycle over the swap costs
 * W[i, r] = slack[i, perm[r]] - slack[r, perm[r]] exceeds tol, with
 * slack = (C - u) - v.  The closure runs only when light_acyclic cannot
 * settle it: with no W a NaN and no cycle among the swaps of at most
 * thr = (tol - (n - 1) * min(w_min, 0)) * (1 + 1e-6), unique[t] = 1, since
 * a cycle of at most n swaps that weighs at most tol uses only such swaps.
 * The outputs share one block, in this order: the stacked perms (k * n
 * int64), u and v (k * n doubles each), then unique (k bytes).  One
 * workspace serves every instance.  Returns 2 if an instance has no free
 * column with a finite reduced cost: a second line of defence, since costs
 * that pass the range check keep every reduced cost finite. */
int assign_many(const double *Cs, int64_t k, int64_t n, double tol, void *out)
{
    int64_t *perms = out;
    double *us = (double *)(perms + k * n), *vs = us + k * n;
    char *unique = (char *)(vs + k * n);
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
        unique[t] = (!has_nan && light_acyclic(D, n, thr, nxt, rows)) || min_cycle(D, n, col, row) > tol;
    }
    status = 0;
done:
    free(u);
    return status;
}

/* Alignment: _gsa_py (lattice DP with tie counting, then the
 * backtrack) over a (nb, Tp, Tt) stack.  A candidate within
 * tol * (1 + |best|) of a node's best cost counts as tied.  Per instance t
 * it writes zs[t], the path of length Tp + Tt at offset t * (Tp + Tt) (each
 * step's kind and the stack-flat index t * Tp * Tt + cell of the cost it
 * paid, where cell indexes grid t with the gap clamp included; filled from
 * the end, with kind 0 and cell t * Tp * Tt before the first step) and
 * unique[t].  The outputs share one block, in this order: zs (nb doubles),
 * cells (nb * (Tp + Tt) int64), kinds (as many int8), then unique (nb
 * bytes).  Returns 2 if the backtrack would leave the lattice, which only
 * unreachable (infinite-cost) nodes cause. */
int gsa_many(const double *ms, int64_t nb, int64_t Tp, int64_t Tt, double gamma, double tol, void *out)
{
    int64_t W = Tt + 1, nodes = (Tp + 1) * W, total = Tp + Tt;
    double *zs = out;
    int64_t *cells = (int64_t *)(zs + nb);
    int8_t *kinds = (int8_t *)(cells + nb * total);
    char *unique = (char *)(kinds + nb * total);
    double *dist = malloc((sizeof(double) + sizeof(int64_t) + 1) * nodes);
    if (dist == NULL)
        return 1;
    int64_t *npaths = (int64_t *)(dist + nodes);
    int8_t *choice = (int8_t *)(npaths + nodes);
    int status = 2;
    for (int64_t t = 0; t < nb; t++) {
        int64_t base = t * Tp * Tt;
        const double *m = ms + base;
        int8_t *kd = kinds + t * total;
        int64_t *cl = cells + t * total;
        dist[0] = 0.0;
        choice[0] = 0;
        npaths[0] = 1;
        for (int64_t i = 0; i <= Tp; i++) {
            for (int64_t k = 0; k <= Tt; k++) {
                if (i == 0 && k == 0)
                    continue;
                double cand_d = INFINITY, cand_h = INFINITY, cand_v = INFINITY;
                int64_t n_d = 0, n_h = 0, n_v = 0;
                if (i > 0 && k > 0) {
                    cand_d = dist[(i - 1) * W + (k - 1)] + m[(i - 1) * Tt + (k - 1)];
                    n_d = npaths[(i - 1) * W + (k - 1)];
                }
                if (k > 0) {
                    int64_t ic = i < Tp ? i : Tp - 1;
                    cand_h = dist[i * W + (k - 1)] + gamma * m[ic * Tt + (k - 1)];
                    n_h = npaths[i * W + (k - 1)];
                }
                if (i > 0) {
                    int64_t kc = k < Tt ? k : Tt - 1;
                    cand_v = dist[(i - 1) * W + k] + gamma * m[(i - 1) * Tt + kc];
                    n_v = npaths[(i - 1) * W + k];
                }
                /* The reference's "if cand < best" steps as selects: the
                 * comparisons are data dependent, so branches would
                 * mispredict about half the time. */
                double best = INFINITY;
                int8_t ch = 0;
                ch = cand_d < best ? 1 : ch;
                best = cand_d < best ? cand_d : best;
                ch = cand_h < best ? 2 : ch;
                best = cand_h < best ? cand_h : best;
                ch = cand_v < best ? 3 : ch;
                best = cand_v < best ? cand_v : best;
                dist[i * W + k] = best;
                choice[i * W + k] = ch;
                double lim = best + tol * (1.0 + fabs(best));
                int64_t cnt = (cand_d <= lim ? n_d : 0) + (cand_h <= lim ? n_h : 0) + (cand_v <= lim ? n_v : 0);
                npaths[i * W + k] = cnt < 2 ? cnt : 2;
            }
        }
        for (int64_t e = 0; e < total; e++) {
            kd[e] = 0;
            cl[e] = base;
        }
        int64_t i = Tp, k = Tt, p = total;
        while (i != 0 || k != 0) {
            int8_t ch = choice[i * W + k];
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
        zs[t] = dist[Tp * W + Tt];
        unique[t] = npaths[Tp * W + Tt] == 1;
    }
    status = 0;
done:
    free(dist);
    return status;
}
