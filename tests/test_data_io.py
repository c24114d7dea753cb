import gzip
import hashlib
import math
import os
import tempfile
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.sparse as sp

from dasvrda import (
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    normalize_rows,
    save_libsvm,
)
from dasvrda import ElasticNet, Logistic, Squared, data_io, make_problem, stage_loop
from dasvrda.reference import problem_fingerprint


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# svmlight/libsvm parsing.


def test_load_single_example(tmp_path):
    data = load_libsvm(write(tmp_path, "1 3:2.5\n"))
    assert data.n == 1 and data.d == 3
    assert data.labels.tolist() == [1.0]
    assert data.features.toarray().tolist() == [[0.0, 0.0, 2.5]]


def test_load_multiple_examples_and_blank_lines(tmp_path):
    text = "-1 1:1 2:-2\n\n0.5 2:4\n"
    data = load_libsvm(write(tmp_path, text))
    assert data.n == 2 and data.d == 2
    assert data.labels.tolist() == [-1.0, 0.5]
    assert data.features.toarray().tolist() == [[1.0, -2.0], [0.0, 4.0]]


def test_load_row_with_no_features(tmp_path):
    data = load_libsvm(write(tmp_path, "1 2:1\n-1\n"))
    assert data.n == 2
    assert data.features.toarray()[1].tolist() == [0.0, 0.0]


def test_binary_label_mapping(tmp_path):
    data = load_libsvm(write(tmp_path, "0 1:1\n1 1:2\n"), binary_labels=True)
    assert data.labels.tolist() == [-1.0, 1.0]
    data = load_libsvm(write(tmp_path, "-1 1:1\n1 1:2\n"), binary_labels=True)
    assert data.labels.tolist() == [-1.0, 1.0]
    with pytest.raises(ValueError, match="not binary"):
        load_libsvm(write(tmp_path, "2 1:1\n"), binary_labels=True)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x 1:1\n", "line 1: bad label"),
        ("1 1:one\n", "line 1: bad feature"),
        ("1 0:2\n", "line 1: index 0 is not positive"),
        ("1 2:1 2:3\n", "line 1: index 2 not increasing"),
        ("1 3:1 2:3\n", "line 1: index 2 not increasing"),
        ("1 1:nan\n", "line 1: non-finite value"),
        ("nan 1:1\n", "data.txt: line 1: non-finite label 'nan'"),
        ("1 1:1\ninf 1:1\n", "data.txt: line 2: non-finite label 'inf'"),
        ("1 1:1\n1 oops\n", "line 2: bad feature"),
        ("1 1:1 3000000000:2\n", "line 1: index 3000000000 is above"),
    ],
)
def test_malformed_lines_are_reported(tmp_path, text, fragment):
    with pytest.raises(ValueError, match=fragment):
        load_libsvm(write(tmp_path, text))


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ValueError, match="no examples"):
        load_libsvm(write(tmp_path, "\n\n"))


def test_dim_override(tmp_path):
    path = write(tmp_path, "1 2:1\n")
    assert load_libsvm(path, dim=6).d == 6
    with pytest.raises(ValueError, match="below the largest feature index"):
        load_libsvm(path, dim=1)


def test_gzip_round_trip(tmp_path):
    path = tmp_path / "data.txt.gz"
    with gzip.open(path, "wt") as handle:
        handle.write("1 1:0.25 3:-4\n-1 2:8\n")
    data = load_libsvm(str(path))
    assert data.n == 2 and data.d == 3
    assert data.features.toarray().tolist() == [[0.25, 0.0, -4.0], [0.0, 8.0, 0.0]]


def test_save_load_round_trip_is_exact(tmp_path):
    spec = SyntheticSpec(kind="lasso", n=25, d=12, density=0.4, seed=3)
    data, _ = generate_synthetic(spec)
    path = str(tmp_path / "round.txt")
    save_libsvm(data, path)
    back = load_libsvm(path, dim=data.d)
    assert np.array_equal(back.labels, data.labels)
    assert (back.features != data.features).nnz == 0
    assert np.array_equal(back.features.data, data.features.data)


# ---------------------------------------------------------------------------
# The compiled parser against its oracle, the loop.


def load_on(path, compiled, **kwargs):
    """``load_libsvm`` on one path: the dataset's arrays (dtype, shape and
    bytes) or the exception's type and message, and the paths noted."""
    old = stage_loop.COMPILED
    stage_loop.COMPILED = compiled
    try:
        with stage_loop.noting() as paths:
            try:
                data = load_libsvm(path, **kwargs)
            except Exception as exc:
                return (type(exc), str(exc)), paths
    finally:
        stage_loop.COMPILED = old
    feats = data.features
    return ([(a.dtype.str, a.shape, a.tobytes())
             for a in (data.labels, feats.indptr, feats.indices, feats.data)], paths)


def check_parsers_agree(raw, stop=0, name="data.txt", **kwargs):
    """Both paths on a file of the bytes ``raw`` (gzip-compressed for a
    ``.gz`` name): the same arrays or the same error.  The compiled path
    notes ``compiled``, or the line ``stop`` that sends the file to the
    loop; ``stop=None`` takes either."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with (gzip.open if name.endswith(".gz") else open)(path, "wb") as handle:
            handle.write(raw)
        fast, paths = load_on(path, True, **kwargs)
        slow, slow_paths = load_on(path, False, **kwargs)
    assert fast == slow, raw
    assert slow_paths == {"numpy: compiled loop off"}
    line = parse_exact(raw)
    assert paths == ({"compiled"} if line == 0 else
                     {f"python loader: line {line} outside the compiled grammar"})
    if stop == 0:
        assert paths == {"compiled"}, raw
    elif stop is not None:
        assert paths == {f"python loader: line {stop} outside the compiled grammar"}
    return fast


def parse_exact(raw):
    """The kernel's stop line on ``raw``."""
    return parse_with(stage_loop.library(), raw)[0]


def parse_with(kernels, raw):
    """The stop line and the arrays' bytes of the parser of the library
    ``kernels`` on ``raw``, which it reads from a heap block of exactly
    ``len(raw)`` bytes: a sanitized build sees a read past it."""
    buf = np.frombuffer(raw, dtype=np.uint8).copy()
    lines, entries = raw.count(b"\n") + raw.count(b"\r") + 1, raw.count(b":")
    labels, data = np.empty(lines), np.empty(entries)
    indptr = np.empty(lines + 1, dtype=np.int32)
    indices = np.empty(entries, dtype=np.int32)
    counts = np.zeros(3, dtype=np.int64)
    stop = kernels.dasvrda_svmlight(
        buf.ctypes.data, len(raw), lines, entries, labels.ctypes.data,
        indptr.ctypes.data, indices.ctypes.data, data.ctypes.data, counts.ctypes.data)
    rows, nnz, _ = counts.tolist()
    return stop, [a.tobytes() for a in (labels[:rows], indptr[:rows + 1],
                                        indices[:nnz], data[:nnz], counts)]


#: Files of the compiled grammar, which the kernel parses whole: ``(bytes,
#: keyword arguments)``.
GRAMMAR = [
    (b"1 1:1\r\n-1 2:2\r\n", {}),
    (b"1 1:1\r-1 2:2\r", {}),
    (b"1 1:1\r\r\n-1 2:2\n\r", {}),
    (b"\r", {}),
    (b"1\t1:1\t2:2\n-1\x0b3:3\x0c\n", {}),
    (b"\x1c1 1:1\x1d\x1e 2:5\x1f\n", {}),
    (b"\n  \n\t\n1 1:1\n \x0c \n-1 2:2\n\n", {}),
    (b"1 1:1\n-1 2:2", {}),
    (b"1 1:1\n-1", {}),
    (b"1 12:3e5", {}),
    (b"+1 1:1\n-1 1:1\n.5 1:1\n5. 1:1\n-.5e-3 1:1\n1E+05 1:1\n-0 1:1\n+0.0 1:1\n"
     b"007 1:1\n1e0000000000000000000001 1:1\n", {}),
    (b"1 1:0.1234567890123456789 2:-1.7976931348623157e308 "
     b"3:2.2250738585072014e-308 4:0 5:-0 6:0.0 7:1e-5 8:.5 9:5. 10:-5.E-1\n", {}),
    (b"-1 1:0.30000000000000004 2:1.0000000000000002 3:9007199254740993\n", {}),
    (b"1\n-1\n1 3:1\n\n-1\n", {}),
    (b"1 007:1 0010:2\n", {}),
    (b"1 2147483647:1\n", {}),
    (b"1 1:0." + b"0" * 120 + b"1\n", {}),
    (b"1 1:1" + b"0" * 110 + b"e-110", {}),
    (b"1 2:1\n", dict(dim=6)),
    (b"1 2:1\n", dict(dim=1)),
    (b"1 2:1\n", dict(dim=-1)),
    (b"1\n-1\n", dict(dim=0)),
    (b"0 1:1\n1 1:2\n", dict(binary_labels=True)),
    (b"-1 1:1\n1 1:2\n", dict(binary_labels=True)),
    (b"2 1:1\n", dict(binary_labels=True)),
    (b"", {}),
    (b" \t\r\n\x0c\n ", {}),
]

#: Malformed files, which the kernel stops on at the line given and the
#: loop reports: every case of ``test_malformed_lines_are_reported`` and
#: more.
STOPS = [
    (b"x 1:1\n", 1),
    (b"1 1:one\n", 1),
    (b"1 0:2\n", 1),
    (b"1 2:1 2:3\n", 1),
    (b"1 3:1 2:3\n", 1),
    (b"1 1:nan\n", 1),
    (b"nan 1:1\n", 1),
    (b"1 1:1\ninf 1:1\n", 2),
    (b"1 1:1\n1 oops\n", 2),
    (b"1 1:1 3000000000:2\n", 1),
    (b"1 1:1\r\n\r\n1 12345678901:1", 3),
    (b"1 1:1e400\n", 1),
    (b"-1e400 1:1\n", 1),
    (b"1 1:1\x00\n", 1),
    (b"1 1:\n", 1),
    (b"1 :1\n", 1),
    (b"1 1:1:2\n", 1),
    (b"1 -1:1\n", 1),
    (b"1 1:1 2\n", 1),
    (b"1 1:1e\n", 1),
    (b"1 1:.\n", 1),
    (b"1 1:1.5.3\n", 1),
    (b"1,5 1:1\n", 1),
    (b"1 1:1\xff\n", 1),
    (b"1 2:1\r1 1:inf", 2),
    (b"1 1:1\n\x00", 2),
    (b"1 1:Infinity\n", 1),
]

#: Valid files outside the grammar, which the kernel stops on at the line
#: given and the loop loads.
EXOTIC = [
    (b"1_0 1:1\n", 1),
    (b"1 +3:1\n", 1),
    (b"1 1:1_5\n", 1),
    (b"1\xc2\xa02:1\n", 1),
    (b"1 1:1\n1 \xe2\x80\x83 2:1\n", 2),
    (b"1 1:1\n\xc2\x85\n", 2),
    (b"1 \xef\xbc\x91:1\n", 1),
    (b"1 1:1\n1_0 +3:1_5 4:2\n", 2),
]

#: Subnormal and underflowing values: the kernel takes them where its
#: strtod sets no ERANGE, the loop where it does.
UNDERFLOW = [b"1 1:4.9e-324 2:2.2250738585072009e-308\n", b"1 1:1e-400\n",
             b"1e-320 1:1\n"]


@pytest.mark.parametrize("raw,kwargs", GRAMMAR,
                         ids=[str(i) for i in range(len(GRAMMAR))])
def test_the_compiled_parser_gives_the_loops_arrays(compiled_loop, raw, kwargs):
    check_parsers_agree(raw, **kwargs)


@pytest.mark.parametrize("raw,stop", STOPS, ids=[str(i) for i in range(len(STOPS))])
def test_a_malformed_file_raises_the_loops_error(compiled_loop, raw, stop):
    assert isinstance(check_parsers_agree(raw, stop), tuple)


@pytest.mark.parametrize("raw,stop", EXOTIC, ids=[str(i) for i in range(len(EXOTIC))])
def test_the_loop_loads_valid_text_outside_the_grammar(compiled_loop, raw, stop):
    assert not isinstance(check_parsers_agree(raw, stop), tuple)


def test_underflowing_values_take_either_path(compiled_loop):
    for raw in UNDERFLOW:
        check_parsers_agree(raw, None)


def test_gzip_files_take_the_compiled_parser(compiled_loop):
    check_parsers_agree(b"1 1:0.25 3:-4\r\n-1 2:8", name="data.txt.gz")
    check_parsers_agree(b"1 1:0.25\n-1 x:8\n", 2, name="data.txt.gz")
    # A stream that ends early: the loop reports what it meets first, the
    # end or a malformed line before it.
    for text, error in ((b"1 1:0.25 3:-4\n" * 200, EOFError),
                        (b"x 1:1\n" * 200, ValueError)):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cut.txt.gz")
            with open(path, "wb") as handle:
                handle.write(gzip.compress(text)[:-12])
            fast, paths = load_on(path, True)
            assert fast == load_on(path, False)[0] and fast[0] is error
            assert paths == {"python loader: EOFError reading the file"}


def random_file(rng) -> bytes:
    """A few lines of svmlight-like text: separators, line ends, number
    forms and increasing indices drawn at random, and now and then a byte
    replaced or a feature out of order."""
    seps = [b" ", b"  ", b"\t", b"\x0b", b"\x0c", b"\x1f", b" \t"]
    ends = [b"\n", b"\r\n", b"\r", b"\n\n", b" \n", b"\t\r"]

    def number():
        v = rng.standard_normal() * 10.0 ** int(rng.integers(-5, 6))
        form = int(rng.integers(7))
        text = [repr(v), f"{v:.3e}", str(int(v)), f"{v:.0f}.", "-0", ".5", "1E+2"][form]
        return text.encode()

    out = []
    for _ in range(int(rng.integers(0, 6))):
        line = [number()]
        index = 0
        for _ in range(int(rng.integers(0, 6))):
            index += int(rng.integers(1, 4)) if rng.random() > 0.03 else -1
            line.append(str(index).encode() + b":" + number())
        out.append(seps[int(rng.integers(len(seps)))].join(line))
        out.append(ends[int(rng.integers(len(ends)))])
    raw = bytearray(b"".join(out))
    if raw and rng.random() < 0.3:
        swaps = b"x:_+-.e \x00\r9"
        raw[int(rng.integers(len(raw)))] = swaps[int(rng.integers(len(swaps)))]
    if raw and rng.random() < 0.2:
        del raw[int(rng.integers(len(raw))):]
    return bytes(raw)


def check_random_files(count=300, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        check_parsers_agree(random_file(rng), None)


def test_the_parsers_agree_on_random_text(compiled_loop):
    check_random_files()


#: Tokens at the edges of the parser's fast path (``svmlight.c``): 19 and 20
#: significant digits, leading zeros, |e| of 27 and 28 once the fraction
#: digits are folded in, a significand at and above 2^63, signed zeros and
#: zeros with huge exponents.
FAST_PATH_EDGES = [
    "1234567890123456789", "12345678901234567890", "0001234567890123456789",
    "0.0001234567890123456789", "1234567890.123456789", "1234567890.1234567891",
    "1e27", "1e28", "1e-27", "1e-28", "1.5e28", "1.5e-26", "15e-28", "0.1e28",
    "123456789e19", "123456789e-36", "9223372036854775807", "9223372036854775808",
    "9223372036854775809e-27", "9999999999999999999", "9999999999999999999e27",
    "9999999999999999999e-27", "18446744073709551615", "18446744073709551616",
    "-0", "+0", "-0.0", "0e99999", "-0e99999", "0.000e-99999",
    "1e0000000000000000000001", "0.000000000000000000000000000001e30",
    "9007199254740993", "9007199254740992.5", "4.9406564584124654e-27",
]


def midpoint_token(rng) -> str:
    """The exact midpoint of two adjacent doubles in [1e-30, 1e40], rounded
    to 15-19 significant digits: a token on or next to a tie of the
    double rounding that the fast path guards against."""
    x = 10.0 ** rng.uniform(-30, 40)
    with localcontext() as ctx:
        ctx.prec = 80
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        ctx.prec = int(rng.integers(15, 20))
        near = +mid
    return format(near, "e" if rng.random() < 0.7 else "f")


def random_token(rng) -> str:
    """A token of the grammar: a sign, 1-25 random significant digits with
    leading zeros and a point anywhere, and an exponent in +-40."""
    body = "0" * int(rng.choice((0, 0, 1, 4))) + "".join(
        rng.choice(list("0123456789"), int(rng.integers(1, 26))))
    point = int(rng.integers(0, len(body) + 1))
    token = str(rng.choice(("", "-", "+"))) + body[:point] + "." + body[point:]
    token = token.rstrip(".") if rng.random() < 0.5 else token
    if rng.random() < 0.7:
        token += str(rng.choice(("e", "E", "e+", "e-"))) + str(int(rng.integers(0, 41)))
    return token


def fast_path_corpus(count=50_000, seed=0) -> bytes:
    """About ``count`` numbers in one svmlight buffer, labels and values:
    half :func:`random_token`, half :func:`midpoint_token`, then
    :data:`FAST_PATH_EDGES`; the last token ends the buffer with no line
    end."""
    rng = np.random.default_rng(seed)
    tokens = [random_token(rng) for _ in range(count // 2)]
    tokens += [midpoint_token(rng) for _ in range(count // 2)]
    tokens += FAST_PATH_EDGES
    lines = []
    for lo in range(0, len(tokens), 20):
        label, *values = tokens[lo:lo + 20]
        lines.append(" ".join([label] + [f"{i}:{v}" for i, v in enumerate(values, 1)]))
    return "\n".join(lines).encode()


def test_the_fast_path_gives_the_loops_bits(compiled_loop):
    check_parsers_agree(fast_path_corpus())


def test_the_fast_path_keeps_the_bits_of_strtod(compiled_loop, monkeypatch, tmp_path):
    # A build with the fast path compiled out converts every token by
    # strtod.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(stage_loop, "CFLAGS",
                        stage_loop.CFLAGS + ("-DDASVRDA_STRTOD_ONLY",))
    strtod_only = stage_loop._build()
    assert not isinstance(strtod_only, str), strtod_only
    raw = fast_path_corpus()
    fast = parse_with(compiled_loop, raw)
    assert fast[0] == 0 and fast == parse_with(strtod_only, raw)


def test_the_count_takes_crlf_as_one_line_end(compiled_loop):
    # Line ends (\r\n one, a lone \r or \n one each) and colons, across
    # the counting loop's blocks of 255 bytes.
    rng = np.random.default_rng(3)
    counts = np.zeros(2, dtype=np.int64)
    raws = [b"", b"\r", b"\n", b":", b"\r\n", b"\n\r", b"\r\r\n", b"1 1:1\r\n-1 2:2\r\n"]
    raws += [rng.choice(list(b"\r\n:x"), int(rng.integers(0, 1200))).astype(np.uint8)
             .tobytes() for _ in range(200)]
    for raw in raws:
        compiled_loop.dasvrda_svmlight_count(raw, len(raw), counts.ctypes.data)
        ends = raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
        assert counts.tolist() == [ends, raw.count(b":")], raw


def check_parser_cases():
    """Every parser case above: the sanitized build runs these."""
    for raw, kwargs in GRAMMAR:
        check_parsers_agree(raw, **kwargs)
    for raw, stop in STOPS + EXOTIC:
        check_parsers_agree(raw, stop)
    for raw in UNDERFLOW:
        check_parsers_agree(raw, None)
    check_random_files(100)
    check_parsers_agree(fast_path_corpus())


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "loop"])
def test_the_loaders_peak_per_stored_entry(request, tmp_path, compiled):
    # The compiled path holds the file's bytes and then four arrays, and
    # make_dataset copies them once; the loop holds a Python float and int
    # per entry.
    if compiled:
        request.getfixturevalue("compiled_loop")
    rng = np.random.default_rng(1)
    n, k, d = 1000, 25, 50_000
    with open(tmp_path / "big.svm", "w") as handle:
        for _ in range(n):
            cols = np.sort(rng.choice(d, k, replace=False)) + 1
            handle.write(f"{rng.choice((-1, 1))} " + " ".join(
                f"{c}:{float(v)!r}" for c, v in zip(cols, rng.standard_normal(k)))
                + "\n")
    path = str(tmp_path / "big.svm")
    entries, size = n * k, os.path.getsize(path)
    old = stage_loop.COMPILED
    stage_loop.COMPILED = compiled
    tracemalloc.start()
    try:
        with stage_loop.noting() as paths:
            data = load_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        stage_loop.COMPILED = old
    assert data.features.nnz == entries
    if compiled:
        assert paths == {"compiled"}
        assert peak <= size + 32 * entries
    else:
        assert peak <= 130 * entries, peak / entries


# ---------------------------------------------------------------------------
# Row normalization.


def test_normalize_rows_unit_norm(tmp_path):
    data = load_libsvm(write(tmp_path, "1 1:3 2:4\n-1 1:5\n1\n"))
    normed = normalize_rows(data)
    dense = normed.features.toarray()
    assert np.allclose(np.linalg.norm(dense[0]), 1.0)
    assert np.allclose(np.linalg.norm(dense[1]), 1.0)
    assert np.allclose(dense[2], 0.0)
    assert np.allclose(dense[0], [0.6, 0.8])
    assert np.array_equal(normed.labels, data.labels)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(kind="lasso", n=400, d=5, density=0.1, sparsity=2, seed=1),
    SyntheticSpec(kind="ridge-logistic", n=500, d=60, density=0.05, seed=3),
    SyntheticSpec(kind="lasso", n=300, d=40, seed=2),
])
def test_normalize_rows_matches_the_diagonal_product(spec):
    """Bitwise the same as scaling by a diagonal matrix built from
    ``multiply(...).sum(axis=1)``, empty rows (left as they are) included."""
    data, _ = generate_synthetic(spec)
    feats = data.features
    norms = np.sqrt(np.asarray(feats.multiply(feats).sum(axis=1)).ravel())
    scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
    expect = sp.diags(scale) @ feats
    expect.sort_indices()
    got = normalize_rows(data).features
    assert spec.density == 1.0 or (np.diff(feats.indptr) == 0).sum() > 0
    for name in ("indptr", "indices", "data"):
        a, b = getattr(expect, name), getattr(got, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Synthetic generators.


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="unknown synthetic kind"):
        SyntheticSpec(kind="poisson", n=5, d=5)
    with pytest.raises(ValueError, match="density"):
        SyntheticSpec(kind="lasso", n=5, d=5, density=0.0)
    with pytest.raises(ValueError, match="sparsity"):
        SyntheticSpec(kind="lasso", n=5, d=5, sparsity=6)
    with pytest.raises(ValueError, match="noise"):
        SyntheticSpec(kind="lasso", n=5, d=5, noise=-1.0)
    with pytest.raises(ValueError, match="n >= 1"):
        SyntheticSpec(kind="lasso", n=0, d=5)


def test_synthetic_spec_rejects_a_draw_beyond_physical_memory(monkeypatch):
    with pytest.raises(ValueError, match="8000000000000000000 bytes"):
        SyntheticSpec(kind="ridge-logistic", n=10**9, d=10**9)
    monkeypatch.setattr(data_io, "physical_memory", lambda: 8 * 5 * 5)
    SyntheticSpec(kind="lasso", n=5, d=5, sparsity=2)
    with pytest.raises(ValueError, match="240 bytes, more than the 200 bytes"):
        SyntheticSpec(kind="lasso", n=5, d=6, sparsity=2)
    monkeypatch.setattr(data_io, "physical_memory", lambda: None)
    SyntheticSpec(kind="lasso", n=10**9, d=10**9)


def test_synthetic_is_deterministic_per_seed():
    spec = SyntheticSpec(kind="lasso", n=30, d=15, density=0.5, seed=7)
    a, xa = generate_synthetic(spec)
    b, xb = generate_synthetic(spec)
    assert np.array_equal(xa, xb)
    assert (a.features != b.features).nnz == 0
    assert np.array_equal(a.labels, b.labels)
    c, _ = generate_synthetic(SyntheticSpec(kind="lasso", n=30, d=15,
                                            density=0.5, seed=8))
    assert not np.array_equal(a.labels, c.labels)


def test_synthetic_density_within_three_sigma():
    spec = SyntheticSpec(kind="lasso", n=200, d=100, density=0.1, seed=0)
    data, _ = generate_synthetic(spec)
    cells = spec.n * spec.d
    expect = spec.density * cells
    sigma = np.sqrt(cells * spec.density * (1 - spec.density))
    assert abs(data.features.nnz - expect) <= 3 * sigma


def test_synthetic_ground_truth_sparsity():
    spec = SyntheticSpec(kind="lasso", n=20, d=50, sparsity=7, seed=1)
    _, x_true = generate_synthetic(spec)
    assert int(np.count_nonzero(x_true)) == 7


def test_synthetic_dense_by_default():
    data, _ = generate_synthetic(SyntheticSpec(kind="lasso", n=10, d=6, seed=0,
                                               sparsity=3))
    assert data.features.nnz == 10 * 6


def test_ridge_logistic_labels_are_signs_and_track_margin():
    spec = SyntheticSpec(kind="ridge-logistic", n=4000, d=10, noise=0.01,
                         sparsity=10, seed=2)
    data, x_true = generate_synthetic(spec)
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}
    # With tiny label noise the sign of the true margin predicts the label
    # almost surely.
    margin = data.features @ x_true
    strong = np.abs(margin) > 0.5
    agree = np.mean(np.sign(margin[strong]) == data.labels[strong])
    assert agree > 0.99


def data_digest(data, x_true) -> str:
    """SHA-256 of the CSR arrays, labels and ground truth, each tagged with
    its name, dtype and shape."""
    h = hashlib.sha256()
    feats = data.features
    for name, arr in (("indptr", feats.indptr), ("indices", feats.indices),
                      ("data", feats.data), ("labels", data.labels),
                      ("x_true", x_true)):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: Digests of seeded draws as the generator made them when it still went
#: through a dense array (density 1) or COO triplets (density < 1): building
#: the CSR arrays directly must not move a bit, index dtypes included.
PINNED_DIGESTS = [
    (dict(kind="lasso", n=200, d=30, seed=0),
     "19a072b1808e43426e1a58cd4e0bf8dc1268a36815da6c807dd579308083a611"),
    (dict(kind="ridge-logistic", n=150, d=40, density=0.3, seed=1),
     "abaa857cf78c7648f693071027c5f47b915b8f2b3e139bf5cdb6e48c893befb0"),
    (dict(kind="lasso", n=37, d=11, density=0.3, sparsity=4, seed=5),
     "df7f77065b0d88acf74fe614f1ce0eae07cb2a42a12105bd13047701236f9bb6"),
    # n = 1
    (dict(kind="lasso", n=1, d=7, sparsity=3, seed=2),
     "3e717f6d4e2aa00985985f7d43be6a807bfc326704e1d811a72f6da1cf1500c8"),
    # d = 1, below and at density 1
    (dict(kind="ridge-logistic", n=9, d=1, density=0.5, sparsity=1, seed=3),
     "d44c09a0ac1848e22efe9910aedb4c93e1299e0e69bd9a59df2e307bdaee5b72"),
    (dict(kind="ridge-logistic", n=6, d=1, sparsity=1, seed=4),
     "9effaf2022d683fb2b8ac0bf25654beea20d8048dbe5623e7e46fe1b160a432a"),
    # no stored entry at all
    (dict(kind="lasso", n=3, d=4, density=1e-6, sparsity=2, seed=0),
     "f07d62d520d40aa5a1a871225bf03cb35a59baaf9e43586aaef9ee5fef351a26"),
    # the last three rows empty
    (dict(kind="ridge-logistic", n=12, d=4, density=0.15, sparsity=2, seed=0),
     "5759f6f07569779542667e50f3794b41afcf476b2a75953d52b45b479bcb2bea"),
    # the acceptance-10 problem
    (dict(kind="ridge-logistic", n=5000, d=500, density=0.02, sparsity=10,
          seed=3),
     "43db0490bf0491404123c1d1ca26acd79e0ed65c3403bf2612e99e9a4ef651cc"),
]


@pytest.mark.parametrize("kw,digest", PINNED_DIGESTS,
                         ids=[str(i) for i in range(len(PINNED_DIGESTS))])
def test_synthetic_draws_are_pinned(kw, digest):
    data, x_true = generate_synthetic(SyntheticSpec(**kw))
    assert data_digest(data, x_true) == digest


@pytest.mark.parametrize("kw,loss,fingerprint", [
    (dict(kind="lasso", n=200, d=30, seed=0), Squared(),
     "94a8c87d44abc4c15c3f47b70404cd2f319b8baeba9c939d6d6de3127ca4de10"),
    (dict(kind="ridge-logistic", n=150, d=40, density=0.3, seed=1), Logistic(),
     "c76cab00a06402306b9ca3c3a735c7f2eeb72d3f5317c2f14f68358f56909696"),
])
def test_synthetic_problem_fingerprint_is_pinned(kw, loss, fingerprint):
    """Cached references are keyed on this hash of the raw bytes."""
    data, _ = generate_synthetic(SyntheticSpec(**kw))
    problem = make_problem(data, loss, ElasticNet(1e-3, 1e-4))
    assert problem_fingerprint(problem) == fingerprint


@pytest.mark.parametrize("density", [1.0, 0.3])
def test_synthetic_matrix_is_canonical_with_int32_indices(density):
    data, _ = generate_synthetic(SyntheticSpec(kind="lasso", n=50, d=20,
                                               density=density, seed=4))
    feats = data.features
    assert feats.indices.dtype == np.int32 and feats.indptr.dtype == np.int32
    assert feats.has_canonical_format


def test_synthetic_dense_draw_peaks_near_two_copies():
    """A fully stored draw is the CSR values array, and the matrix
    ``make_dataset`` keeps is one copy of it: no dense-to-CSR detour."""
    spec = SyntheticSpec(kind="lasso", n=2000, d=500, seed=0)
    tracemalloc.start()
    try:
        data, _ = generate_synthetic(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    feats = data.features
    stored = feats.data.nbytes + feats.indices.nbytes + feats.indptr.nbytes
    assert peak <= 2.25 * stored
