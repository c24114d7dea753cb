/* An svmlight/libsvm file's rows in one call: the compiled path of
 * data_io.load_libsvm, whose per-token Python loop is its fallback, its
 * test oracle and the only source of error messages.
 *
 * It takes a strict subset of what the loop accepts, and gives the loop's
 * values there:
 *
 *   - lines end at \n, \r\n or a lone \r, as text-mode iteration splits
 *     them;
 *   - separators are the ASCII bytes that str.isspace() takes, other than
 *     the line ends; whitespace-only lines are skipped;
 *   - a label or a value is
 *     [+-]?(digits[.[digits]]|.digits)([eE][+-]?digits)?, converted by
 *     strtod, which must take the whole token and give a finite result
 *     without ERANGE: Python's float() of such a token, as both round
 *     correctly;
 *   - a feature is digits:value, its index in 1..2^31-1 and above the
 *     line's previous one.
 *
 * Anything else stops the parse and names the line, where the loop takes
 * over: letters (nan, inf), '_', a sign on an index, non-ASCII bytes and
 * NUL among them.  No byte at or past buf + len is read.
 */

#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static int separator(char c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f'
        || (c >= 0x1c && c <= 0x1f);
}

static int digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Whether a token may end at p: at the buffer's end, a separator or a line
 * end. */
static int ends(const char *p, const char *end)
{
    return p == end || separator(*p) || *p == '\n' || *p == '\r';
}

/* The end of the number of the grammar that starts at p, if one does and
 * ends where a token may; else NULL. */
static const char *number(const char *p, const char *end)
{
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    const char *q = p;
    while (q < end && digit(*q))
        q++;
    int whole = q > p;
    if (q < end && *q == '.') {
        const char *frac = ++q;
        while (q < end && digit(*q))
            q++;
        if (!whole && q == frac)
            return NULL;
    } else if (!whole) {
        return NULL;
    }
    if (q < end && (*q == 'e' || *q == 'E')) {
        q++;
        if (q < end && (*q == '+' || *q == '-'))
            q++;
        const char *exp = q;
        while (q < end && digit(*q))
            q++;
        if (q == exp)
            return NULL;
    }
    return ends(q, end) ? q : NULL;
}

/* strtod of the token [p, q), into *out if it takes the whole token and is
 * finite with no ERANGE.  Before the buffer's end, the byte at q is a
 * separator or a line end, where strtod stops; a token at the end is
 * copied out first. */
static int convert(const char *p, const char *q, const char *end, double *out)
{
    char *copy = NULL, *stop;
    const char *text = p;
    if (q == end) {
        copy = malloc((size_t)(q - p) + 1);
        if (copy == NULL)
            return 0;
        memcpy(copy, p, (size_t)(q - p));
        copy[q - p] = '\0';
        text = copy;
    }
    errno = 0;
    double v = strtod(text, &stop);
    int whole = stop == text + (q - p) && errno != ERANGE && isfinite(v);
    free(copy);
    if (whole)
        *out = v;
    return whole;
}

/* Past the line end at p (\r\n counts as one). */
static const char *next_line(const char *p, const char *end)
{
    return *p == '\r' && p + 1 < end && p[1] == '\n' ? p + 2 : p + 1;
}

/* Parses buf[0..len) into labels (rows_cap), indptr (rows_cap + 1), and
 * indices and data (entries_cap); out receives the row count, the entry
 * count and the largest index.  Returns 0, or the 1-based line at which
 * the parse stopped. */
int64_t dasvrda_svmlight(const char *buf, int64_t len, int64_t rows_cap,
                         int64_t entries_cap, double *labels, int32_t *indptr,
                         int32_t *indices, double *data, int64_t *out)
{
    const char *p = buf, *end = buf + len;
    int64_t line = 0, rows = 0, nnz = 0, max_index = 0;
    indptr[0] = 0;
    while (p < end) {
        line++;
        while (p < end && separator(*p))
            p++;
        if (p == end)
            break;
        if (*p == '\n' || *p == '\r') {
            p = next_line(p, end);
            continue;
        }
        double label, value;
        const char *q = number(p, end);
        if (q == NULL || !convert(p, q, end, &label))
            return line;
        p = q;
        int64_t prev = 0;
        for (;;) {
            while (p < end && separator(*p))
                p++;
            if (p == end || *p == '\n' || *p == '\r')
                break;
            int64_t index = 0;
            const char *first = p;
            for (; p < end && digit(*p); p++) {
                index = 10 * index + (*p - '0');
                if (index > INT32_MAX)
                    return line;
            }
            if (p == first || p == end || *p != ':' || index <= prev)
                return line;
            q = number(++p, end);
            if (q == NULL || !convert(p, q, end, &value) || nnz == entries_cap
                || nnz == INT32_MAX)
                return line;
            indices[nnz] = (int32_t)(index - 1);
            data[nnz++] = value;
            prev = index;
            p = q;
        }
        if (rows == rows_cap)
            return line;
        labels[rows++] = label;
        indptr[rows] = (int32_t)nnz;
        if (prev > max_index)
            max_index = prev;
        if (p < end)
            p = next_line(p, end);
    }
    out[0] = rows;
    out[1] = nnz;
    out[2] = max_index;
    return 0;
}
