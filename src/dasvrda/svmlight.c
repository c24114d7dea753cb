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
 *     [+-]?(digits[.[digits]]|.digits)([eE][+-]?digits)?, converted to the
 *     double nearest its decimal value, which must be finite: Python's
 *     float() of such a token (see "Two conversions" below);
 *   - a feature is digits:value, its index in 1..2^31-1 and above the
 *     line's previous one.
 *
 * Anything else stops the parse and names the line, where the loop takes
 * over: letters (nan, inf), '_', a sign on an index, non-ASCII bytes and
 * NUL among them.  No byte at or past buf + len is read.
 *
 * Two conversions.  The grammar scan also reads a token as w * 10^e: w the
 * integer of its significant digits (leading zeros not counted), e its
 * exponent less its fraction digits.  With at most 19 significant digits
 * and |e| <= 27 (Clinger, PLDI 1990), w < 10^19 < 2^64 and 10^|e| =
 * 2^|e| 5^|e| with 5^27 < 2^63 are both exact in the 64-bit significand of
 * the x87 long double, so w * 10^e, or w / 10^-e, is one correctly rounded
 * x87 operation, r.  Its value lies in [1e-27, 2^64 1e27], inside the
 * double's normal range.  Rounding r to double then rounds twice, which
 * can differ from one rounding only where r sits on a midpoint of two
 * adjacent doubles (Lemire, SPE 2021): the low 11 of r's 64 significand
 * bits are 0x400.  Otherwise each double and each such midpoint is a
 * 64-bit value, and rounding to 64 bits is monotone, so r lies on the
 * same side of every one of them as the exact value, and both round to
 * the same double.  So the guard sends a midpoint r to strtod, and every
 * other r gives the correctly rounded double; w = 0 gives a zero, and the
 * sign goes on last, so -0 is -0.0.  This assumes the x87 precision
 * control at 64 bits, the x86-64 System V default, and rounding to
 * nearest, as strtod does.
 *
 * Every other token, every midpoint and every build where long double is
 * not the x86 extended format (or with DASVRDA_STRTOD_ONLY defined, which
 * the tests use to compare the two) goes to strtod, which must take the
 * whole token and give a finite result without ERANGE; it rounds
 * correctly, as float() does.
 */

#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if LDBL_MANT_DIG == 64 && (defined(__x86_64__) || defined(__i386__)) \
    && !defined(DASVRDA_STRTOD_ONLY)
#define FAST_PATH 1
#else
#define FAST_PATH 0
#endif

/* The fast path's limits: significant digits, and |e|. */
#define MAX_DIGITS 19
#define MAX_EXP 27

/* A token of the grammar as w * 10^exp, its sign and its significant
 * digits (counted past MAX_DIGITS only as far as MAX_DIGITS + 1). */
struct decimal {
    uint64_t w;
    int64_t exp;
    int digits, neg;
};

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

/* Digits from p on, into dec; returns their end. */
static const char *digits(const char *p, const char *end, struct decimal *dec)
{
    for (; p < end && digit(*p); p++) {
        if (dec->w == 0 && *p == '0')
            continue;
        if (dec->digits < MAX_DIGITS)
            dec->w = 10 * dec->w + (uint64_t)(*p - '0');
        if (dec->digits <= MAX_DIGITS)
            dec->digits++;
    }
    return p;
}

/* The end of the number of the grammar that starts at p, if one does and
 * ends where a token may, with its value in dec; else NULL. */
static const char *number(const char *p, const char *end, struct decimal *dec)
{
    *dec = (struct decimal){0, 0, 0, p < end && *p == '-'};
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    const char *q = digits(p, end, dec);
    int whole = q > p;
    if (q < end && *q == '.') {
        const char *frac = ++q;
        q = digits(q, end, dec);
        if (!whole && q == frac)
            return NULL;
        dec->exp = -(int64_t)(q - frac);
    } else if (!whole) {
        return NULL;
    }
    if (q < end && (*q == 'e' || *q == 'E')) {
        q++;
        int neg = q < end && *q == '-';
        if (q < end && (*q == '+' || *q == '-'))
            q++;
        const char *exp = q;
        int64_t e = 0;
        for (; q < end && digit(*q); q++)
            if (e <= MAX_EXP)
                e = 10 * e + (*q - '0');
        if (q == exp)
            return NULL;
        /* An exponent past MAX_EXP sends any w but 0 to strtod. */
        dec->exp = e > MAX_EXP ? (neg ? INT64_MIN / 2 : INT64_MAX / 2)
                               : dec->exp + (neg ? -e : e);
    }
    return ends(q, end) ? q : NULL;
}

#if FAST_PATH
/* 10^k for k in 0..MAX_EXP, each exact in a long double. */
static const long double POW10[MAX_EXP + 1] = {
    1e0L,  1e1L,  1e2L,  1e3L,  1e4L,  1e5L,  1e6L,  1e7L,  1e8L,  1e9L,
    1e10L, 1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L,
    1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L,
};

/* The double of dec by one x87 operation, into *out, where the header's
 * limits hold and the result is no midpoint. */
static int convert_fast(const struct decimal *dec, double *out)
{
    if (dec->digits > MAX_DIGITS)
        return 0;
    double v = 0.0;
    if (dec->w != 0) {
        if (dec->exp < -MAX_EXP || dec->exp > MAX_EXP)
            return 0;
        long double r = (long double)dec->w;
        r = dec->exp >= 0 ? r * POW10[dec->exp] : r / POW10[-dec->exp];
        /* The first 8 bytes of the x87 format are its significand. */
        uint64_t bits;
        memcpy(&bits, &r, sizeof bits);
        if ((bits & 0x7ff) == 0x400)
            return 0;
        v = (double)r;
    }
    *out = dec->neg ? -v : v;
    return 1;
}
#endif

/* The token [p, q) of value dec, into *out if it converts: by the fast
 * path, or by strtod if that takes the whole token and gives a finite
 * result with no ERANGE.  Before the buffer's end, the byte at q is a
 * separator or a line end, where strtod stops; a token at the end is
 * copied out first. */
static int convert(const char *p, const char *q, const char *end,
                   const struct decimal *dec, double *out)
{
#if FAST_PATH
    if (convert_fast(dec, out))
        return 1;
#else
    (void)dec;
#endif
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

/* Counts buf[0..len)'s line ends, \r\n as one, into out[0] and its colons
 * into out[1]: with one more line, the row and entry capacities of
 * dasvrda_svmlight.  Byte counters over blocks of 255 bytes, which cannot
 * overflow, let the compiler vectorise the loop. */
void dasvrda_svmlight_count(const char *buf, int64_t len, int64_t *out)
{
    int64_t lines = len > 0 && (buf[0] == '\n' || buf[0] == '\r');
    int64_t colons = len > 0 && buf[0] == ':';
    for (int64_t lo = 1; lo < len; lo += 255) {
        int64_t hi = len - lo > 255 ? lo + 255 : len;
        uint8_t block_lines = 0, block_colons = 0;
        for (int64_t i = lo; i < hi; i++) {
            block_lines += (buf[i] == '\r') | ((buf[i] == '\n') & (buf[i - 1] != '\r'));
            block_colons += buf[i] == ':';
        }
        lines += block_lines;
        colons += block_colons;
    }
    out[0] = lines;
    out[1] = colons;
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
    struct decimal dec;
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
        const char *q = number(p, end, &dec);
        if (q == NULL || !convert(p, q, end, &dec, &label))
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
            q = number(++p, end, &dec);
            if (q == NULL || !convert(p, q, end, &dec, &value)
                || nnz == entries_cap || nnz == INT32_MAX)
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
