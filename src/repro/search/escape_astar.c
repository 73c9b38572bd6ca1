/*
 * The line-search A* over one connection's escape grid, compiled.
 *
 * The grid's columns are the obstacle set's edge x coordinates merged
 * with the connection's own (its sources' and its target boxes', which
 * the kernel sorts itself), its rows likewise; a state is the flat
 * index ix * ny + iy.  Each expansion traces the four rays from the
 * state by scanning the blocking rects, takes every grid coordinate
 * along each clear ray as a successor (east, west, north, south; each
 * ray's stops ascending), prices each one exactly as the scalar cost
 * models do, and pushes the improving ones.  The loop is the scalar engine's: heap keys (f, -g, counter)
 * ordered like Python tuples, CPython's heapq sift order, the
 * stale-entry check, the goal test at pop, reopening, the node limit,
 * and the same counters.
 *
 * Every float is formed the way the Python code forms it, so paths,
 * costs and counters are bit-identical to the scalar oracle:
 *   - an integer length or overlap is the exact unsigned 64-bit
 *     difference, rounded once to double (Python's float(int));
 *   - a price is len, then += w * overlap per region on the track in
 *     declaration order, then += length_weight * len;
 *   - the heuristic is a 65-bit exact Manhattan distance to the
 *     nearest target box, rounded once to double.
 * Build with -ffp-contract=off so no compiler fuses a multiply-add.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { RK_GOAL = 0, RK_EXHAUSTED = 1, RK_LIMIT = 2 };
/* RK_BAD_ENDPOINT: a source or target point is outside the bound or inside a cell. */
enum { RK_OK = 0, RK_NOMEM = 1, RK_BAD_ENDPOINT = 2, RK_OFF_GRID = 3, RK_TOO_BIG = 4 };
enum { UNSEEN = 0, OPEN = 1, CLOSED = 2 };

/* The rects are columns: x0[n], y0[n], x1[n], y1[n].  Regions (x0, y0,
   x1, y1) and target boxes (x0, x1, y0, y1) are rows, one per item. */
typedef struct {
    int64_t bx0, by0, bx1, by1;     /* routing bound */
    int64_t nrects;
    const int64_t *rects;           /* blocking rects: open interiors block */
    int64_t nedge_x, nedge_y;
    const int64_t *edge_x, *edge_y; /* obstacle edge coordinates, ascending, distinct */
    int64_t ntargets, npoints, nsources;
    const int64_t *connection;      /* boxes (points first), source xs, source ys */
    const double *source_costs;
    int64_t nregions;
    const int64_t *regions;         /* surcharged rects, declaration order */
    const double *weights;
    double length_weight;
    int64_t node_limit;             /* negative: no limit */
    int32_t use_heuristic;
    int32_t trace;
} rk_problem;

typedef struct {
    int64_t expanded, generated, reopened, max_open, probes;
    int32_t termination;
    int32_t error;
    double cost;
    int64_t path_len;
    int64_t *path;      /* (x, y) per state, start .. goal */
    int64_t trace_len;
    int64_t *trace;     /* (x, y, has parent, parent x, parent y) per expansion */
    int64_t error_x, error_y;
    int64_t error_reach[4];
} rk_result;

typedef struct {
    double f, neg_g;
    int64_t counter;
    double g;
    int64_t state;
} entry;

typedef struct {
    const rk_problem *p;
    const int64_t *boxes;
    int64_t *own_x, *own_y; /* the connection's own coordinates, sorted */
    int64_t *mx, *my;
    int64_t nx, ny;
    double *g;
    int32_t *parent;
    uint8_t *status;
    entry *heap;
    int64_t heap_len, heap_cap;
    int64_t *on_track; /* regions on the current row, then on the current column */
    int64_t trace_cap;
} search;

/* Python's tuple order on (f, -g, counter): the first unequal key decides. */
static int less(const entry *a, const entry *b)
{
    if (a->f != b->f) return a->f < b->f;
    if (a->neg_g != b->neg_g) return a->neg_g < b->neg_g;
    return a->counter < b->counter;
}

/* heapq._siftdown and heapq._siftup, step for step. */
static void sift_down(entry *heap, int64_t start, int64_t pos)
{
    entry item = heap[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (!less(&item, &heap[parent])) break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void sift_up(entry *heap, int64_t end, int64_t pos)
{
    int64_t start = pos;
    entry item = heap[pos];
    int64_t child = 2 * pos + 1;
    while (child < end) {
        int64_t right = child + 1;
        if (right < end && !less(&heap[child], &heap[right])) child = right;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_down(heap, start, pos);
}

static int push(search *s, entry e)
{
    if (s->heap_len == s->heap_cap) {
        int64_t cap = s->heap_cap ? 2 * s->heap_cap : 256;
        entry *grown = realloc(s->heap, (size_t)cap * sizeof(entry));
        if (!grown) return RK_NOMEM;
        s->heap = grown;
        s->heap_cap = cap;
    }
    s->heap[s->heap_len] = e;
    sift_down(s->heap, 0, s->heap_len);
    s->heap_len++;
    return RK_OK;
}

static entry pop(search *s)
{
    entry last = s->heap[--s->heap_len];
    if (!s->heap_len) return last;
    entry top = s->heap[0];
    s->heap[0] = last;
    sift_up(s->heap, s->heap_len, 0);
    return top;
}

/* The exact difference hi - lo (hi >= lo) rounded once, like float(hi - lo). */
static double span(int64_t lo, int64_t hi)
{
    return (double)((uint64_t)hi - (uint64_t)lo);
}

/* Distance from v to [lo, hi] along one axis, exact. */
static uint64_t gap(int64_t v, int64_t lo, int64_t hi)
{
    if (v < lo) return (uint64_t)lo - (uint64_t)v;
    if (v > hi) return (uint64_t)v - (uint64_t)hi;
    return 0;
}

static int is_goal(const search *s, int64_t x, int64_t y)
{
    for (int64_t t = 0; t < s->p->ntargets; t++) {
        const int64_t *b = s->boxes + 4 * t;
        if (b[0] <= x && x <= b[1] && b[2] <= y && y <= b[3]) return 1;
    }
    return 0;
}

/* min over targets of dx + dy as a 65-bit integer (carry, low), then one rounding. */
static double heuristic(const search *s, int64_t x, int64_t y)
{
    unsigned best_carry = 2;
    uint64_t best_low = 0;
    for (int64_t t = 0; t < s->p->ntargets; t++) {
        const int64_t *b = s->boxes + 4 * t;
        uint64_t dx = gap(x, b[0], b[1]);
        uint64_t low = dx + gap(y, b[2], b[3]);
        unsigned carry = low < dx;
        if (carry < best_carry || (carry == best_carry && low < best_low)) {
            best_carry = carry;
            best_low = low;
        }
    }
    if (!best_carry) return (double)best_low;
    /* 2**64 + low: halve with the dropped bit kept sticky, so the one
       rounding to 53 bits is still correct, then double back. */
    return 2.0 * (double)((best_low >> 1) | (best_low & 1) | ((uint64_t)1 << 63));
}

static int64_t find(const int64_t *values, int64_t n, int64_t v)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (values[mid] < v) lo = mid + 1;
        else hi = mid;
    }
    return lo < n && values[lo] == v ? lo : -1;
}

/* Three-way order of two int64s; x - y would overflow across the range. */
static int compare(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The union of two ascending lists, ascending and distinct; returns its length. */
static int64_t merge(const int64_t *a, int64_t na, const int64_t *b, int64_t nb, int64_t *out)
{
    int64_t i = 0, j = 0, n = 0;
    while (i < na || j < nb) {
        int64_t v = j == nb || (i < na && a[i] <= b[j]) ? a[i++] : b[j++];
        if (!n || out[n - 1] != v) out[n++] = v;
    }
    return n;
}

/* The four ray reaches from (x, y), as the Hits of ObstacleSet.rays give them;
   returns 0 for an illegal origin (outside the bound or inside a rect). */
static int reaches(const rk_problem *p, int64_t x, int64_t y, int64_t out[4])
{
    int64_t east = p->bx1, west = p->bx0, north = p->by1, south = p->by0;
    if (x < p->bx0 || x > p->bx1 || y < p->by0 || y > p->by1) return 0;
    const int64_t n = p->nrects, *rect = p->rects;
    for (int64_t r = 0; r < n; r++) {
        int64_t x0 = rect[r], y0 = rect[n + r], x1 = rect[2 * n + r], y1 = rect[3 * n + r];
        if (y0 < y && y < y1) {
            if (x0 < x && x < x1) return 0;
            if (x1 > x && x0 < east) east = x0;
            if (x0 < x && x1 > west) west = x1;
        }
        if (x0 < x && x < x1) {
            if (y1 > y && y0 < north) north = y0;
            if (y0 < y && y1 > south) south = y1;
        }
    }
    out[0] = east;
    out[1] = west;
    out[2] = north;
    out[3] = south;
    return 1;
}

static int record(search *s, rk_result *out, int64_t state)
{
    if (out->trace_len == s->trace_cap) {
        int64_t cap = s->trace_cap ? 2 * s->trace_cap : 256;
        int64_t *grown = realloc(out->trace, (size_t)cap * 5 * sizeof(int64_t));
        if (!grown) return RK_NOMEM;
        out->trace = grown;
        s->trace_cap = cap;
    }
    int64_t *row = out->trace + 5 * out->trace_len++;
    int64_t parent = s->parent[state];
    row[0] = s->mx[state / s->ny];
    row[1] = s->my[state % s->ny];
    row[2] = parent >= 0;
    row[3] = parent >= 0 ? s->mx[parent / s->ny] : 0;
    row[4] = parent >= 0 ? s->my[parent % s->ny] : 0;
    return RK_OK;
}

static int finish_path(search *s, rk_result *out, int64_t goal)
{
    int64_t n = 0;
    for (int64_t at = goal; at >= 0; at = s->parent[at]) n++;
    out->path = malloc((size_t)n * 2 * sizeof(int64_t));
    if (!out->path) return RK_NOMEM;
    out->path_len = n;
    for (int64_t at = goal; at >= 0; at = s->parent[at]) {
        n--;
        out->path[2 * n] = s->mx[at / s->ny];
        out->path[2 * n + 1] = s->my[at % s->ny];
    }
    out->cost = s->g[goal];
    return RK_OK;
}

static int run(search *s, rk_result *out)
{
    const rk_problem *p = s->p;
    const int64_t nx = s->nx, ny = s->ny, *mx = s->mx, *my = s->my;
    const int64_t *source_x = p->connection + 4 * p->ntargets;
    const int64_t *source_y = source_x + p->nsources;
    int64_t counter = 0, open_size = 0;
    int err;

    for (int64_t k = 0; k < p->nsources; k++) {
        int64_t ix = find(mx, nx, source_x[k]), iy = find(my, ny, source_y[k]);
        int64_t state = ix * ny + iy;
        double g0 = p->source_costs[k];
        if (!(g0 < s->g[state])) continue;
        double h0 = p->use_heuristic ? heuristic(s, source_x[k], source_y[k]) : 0.0;
        s->g[state] = g0;
        s->status[state] = OPEN;
        entry e = {g0 + h0, -g0, counter++, g0, state};
        if ((err = push(s, e))) return err;
        if (++open_size > out->max_open) out->max_open = open_size;
    }

    while (s->heap_len) {
        entry top = pop(s);
        open_size--;
        int64_t state = top.state;
        if (s->status[state] != OPEN || top.g != s->g[state]) continue;
        s->status[state] = CLOSED;
        int64_t ix = state / ny, iy = state % ny;
        int64_t x = mx[ix], y = my[iy];
        if (is_goal(s, x, y)) {
            out->termination = RK_GOAL;
            return finish_path(s, out, state);
        }
        out->expanded++;
        if (p->trace && (err = record(s, out, state))) return err;
        if (p->node_limit >= 0 && out->expanded >= p->node_limit) {
            out->termination = RK_LIMIT;
            return RK_OK;
        }

        /* Every state lies on a clear ray from a routable start, so its
           own rays start legally. */
        int64_t reach[4];
        out->probes += 4;
        reaches(p, x, y, reach);
        int64_t ie = find(mx, nx, reach[0]), iw = find(mx, nx, reach[1]);
        int64_t in = find(my, ny, reach[2]), is = find(my, ny, reach[3]);
        if (ie < 0 || iw < 0 || in < 0 || is < 0) {
            out->error_x = x;
            out->error_y = y;
            for (int k = 0; k < 4; k++) out->error_reach[k] = reach[k];
            return RK_OFF_GRID;
        }

        /* Regions on this row (priced by horizontal moves), then on this column. */
        int64_t n_row = 0, n_col = 0;
        int64_t *row = s->on_track, *col = s->on_track + p->nregions;
        for (int64_t r = 0; r < p->nregions; r++) {
            const int64_t *region = p->regions + 4 * r;
            if (region[1] <= y && y <= region[3]) row[n_row++] = r;
            if (region[0] <= x && x <= region[2]) col[n_col++] = r;
        }

        const double node_g = s->g[state];
        /* East, west, north, south: grid index ranges [lo, hi] of each ray. */
        const int64_t lo[4] = {ix + 1, iw, iy + 1, is};
        const int64_t hi[4] = {ie, ix - 1, in, iy - 1};
        for (int d = 0; d < 4; d++) {
            const int horizontal = d < 2;
            const int64_t origin = horizontal ? x : y;
            const int64_t *track = horizontal ? row : col;
            const int64_t n_track = horizontal ? n_row : n_col;
            const int axis = horizontal ? 0 : 1; /* region bounds along the move */
            for (int64_t k = lo[d]; k <= hi[d]; k++) {
                int64_t c = horizontal ? mx[k] : my[k];
                int64_t a = c < origin ? c : origin, b = c < origin ? origin : c;
                double len = span(a, b);
                double cost = len;
                for (int64_t t = 0; t < n_track; t++) {
                    const int64_t *region = p->regions + 4 * track[t];
                    int64_t l = region[axis] > a ? region[axis] : a;
                    int64_t h = region[axis + 2] < b ? region[axis + 2] : b;
                    if (l < h) cost += p->weights[track[t]] * span(l, h);
                }
                if (p->length_weight != 0.0) cost += p->length_weight * len;

                out->generated++;
                int64_t succ = horizontal ? k * ny + iy : ix * ny + k;
                double new_g = node_g + cost;
                if (!(new_g < s->g[succ])) continue;
                double h = p->use_heuristic ? heuristic(s, horizontal ? c : x, horizontal ? y : c) : 0.0;
                s->g[succ] = new_g;
                if (s->status[succ] == CLOSED) out->reopened++;
                s->parent[succ] = (int32_t)state;
                s->status[succ] = OPEN;
                entry e = {new_g + h, -new_g, counter++, new_g, succ};
                if ((err = push(s, e))) return err;
                if (++open_size > out->max_open) out->max_open = open_size;
            }
        }
    }
    out->termination = RK_EXHAUSTED;
    return RK_OK;
}

/* The connection's own coordinates along one axis, ascending: each
   box's low and high side (at lo[4t] and hi[4t]), then each source's. */
static int64_t *own_coordinates(const rk_problem *p, const int64_t *lo, const int64_t *hi,
                                const int64_t *sources, int64_t *n)
{
    *n = 2 * p->ntargets + p->nsources;
    int64_t *own = malloc((size_t)(*n + 1) * sizeof(int64_t));
    if (!own) return 0;
    for (int64_t t = 0; t < p->ntargets; t++) {
        own[2 * t] = lo[4 * t];
        own[2 * t + 1] = hi[4 * t];
    }
    for (int64_t k = 0; k < p->nsources; k++) own[2 * p->ntargets + k] = sources[k];
    qsort(own, (size_t)*n, sizeof(int64_t), compare);
    return own;
}

static int prepare_and_run(const rk_problem *p, rk_result *out, search *s)
{
    const int64_t *boxes = p->connection;
    const int64_t *source_x = boxes + 4 * p->ntargets, *source_y = source_x + p->nsources;
    int64_t reach[4]; /* a point is routable where its rays can start */
    for (int64_t k = 0; k < p->nsources; k++)
        if (!reaches(p, source_x[k], source_y[k], reach)) return RK_BAD_ENDPOINT;
    for (int64_t t = 0; t < p->npoints; t++)
        if (!reaches(p, boxes[4 * t], boxes[4 * t + 2], reach)) return RK_BAD_ENDPOINT;
    s->boxes = boxes;
    int64_t n_own_x, n_own_y;
    s->own_x = own_coordinates(p, boxes, boxes + 1, source_x, &n_own_x);
    s->own_y = own_coordinates(p, boxes + 2, boxes + 3, source_y, &n_own_y);
    if (!s->own_x || !s->own_y) return RK_NOMEM;
    s->mx = malloc((size_t)(p->nedge_x + n_own_x + 1) * sizeof(int64_t));
    s->my = malloc((size_t)(p->nedge_y + n_own_y + 1) * sizeof(int64_t));
    if (!s->mx || !s->my) return RK_NOMEM;
    s->nx = merge(p->edge_x, p->nedge_x, s->own_x, n_own_x, s->mx);
    s->ny = merge(p->edge_y, p->nedge_y, s->own_y, n_own_y, s->my);
    if (s->nx > INT32_MAX / s->ny) return RK_TOO_BIG; /* parents are int32 */
    int64_t size = s->nx * s->ny;
    s->g = malloc((size_t)size * sizeof(double));
    s->parent = malloc((size_t)size * sizeof(int32_t));
    s->status = calloc((size_t)size, 1);
    s->on_track = malloc((size_t)(2 * p->nregions + 1) * sizeof(int64_t));
    if (!s->g || !s->parent || !s->status || !s->on_track) return RK_NOMEM;
    for (int64_t k = 0; k < size; k++) {
        s->g[k] = INFINITY;
        s->parent[k] = -1;
    }
    return run(s, out);
}

/* Search one connection; returns the error code (RK_OK on success). */
int rk_search(const rk_problem *p, rk_result *out)
{
    rk_result blank = {0};
    search s = {0};
    *out = blank;
    s.p = p;
    int err = prepare_and_run(p, out, &s);
    free(s.own_x);
    free(s.own_y);
    free(s.mx);
    free(s.my);
    free(s.g);
    free(s.parent);
    free(s.status);
    free(s.heap);
    free(s.on_track);
    out->error = err;
    return err;
}

/* Release what rk_search allocated in *out. */
void rk_release(rk_result *out)
{
    free(out->path);
    free(out->trace);
    out->path = 0;
    out->trace = 0;
}
