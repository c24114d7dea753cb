import hashlib
import json
import re

import pytest

from dasvrda import TraceRecord, read_trace, write_trace
from dasvrda.cli import main
from dasvrda.trace import TRACE_COLUMNS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_trace_file_bytes_are_pinned(tmp_path):
    """The bytes of a trace file: its CSV part with ``seconds`` blanked, and
    its header without the path-valued keys.  A short restarted run on a
    small fully stored matrix (csr products, dense engine by ``--lazy
    off``), with a reference, so every column is filled."""
    spec = "lasso:n=60,d=20,sparsity=5,seed=0"
    ref, trace = tmp_path / "ref.json", tmp_path / "t.csv"
    assert main(["ref", "--synthetic", spec, "--l1", "1e-3", "--tol", "1e-13",
                 "--out", str(ref)]) == 0
    assert main(["run", "--synthetic", spec, "--l1", "1e-3", "--algo",
                 "dasvrda-sc", "--lazy", "off", "--stages", "3", "--restarts",
                 "2", "--budget", "100000", "--trace", str(trace),
                 "--ref", str(ref)]) == 0
    first, body = trace.read_bytes().decode().split("\n", 1)
    header = json.loads(first[1:])
    del header["reference"], header["data"]
    lines = body.split("\r\n")
    assert lines[0] == ",".join(TRACE_COLUMNS) and lines[-1] == ""
    seconds = TRACE_COLUMNS.index("seconds")
    rows = []
    for line in lines[1:-1]:
        values = line.split(",")
        values[seconds] = ""
        rows.append(",".join(values))
    gap = TRACE_COLUMNS.index("gap")
    assert len(rows) == 7 and all(row.split(",")[gap] for row in rows)
    csv_part = "\r\n".join([lines[0], *rows, ""])
    assert _sha256(csv_part) == (
        "dd3cda34fc92478e8f484cb207898e5cb3f56b05b0258a78dd03c4883e6fc4f8")
    assert _sha256(json.dumps(header, sort_keys=True)) == (
        "a91bfd2be9ea26e38420ffbdb3bb748993e8278393e293e22ca192d9b8ba7227")


def test_trace_round_trip(tmp_path):
    records = [TraceRecord(0, 0, 0.0, 1.5, None, 0.25, False),
               TraceRecord(1, 40, 2.0, 0.1 + 0.2, 1e-300, 1.0, True)]
    path = str(tmp_path / "t.csv")
    write_trace(path, {"algo": "pg"}, records)
    assert read_trace(path) == ({"algo": "pg"}, records)


GOOD_ROW = "1,40,2.0,0.5,,0.01,0"


@pytest.mark.parametrize("text,line", [
    ("#[1]\n" + ",".join(TRACE_COLUMNS) + "\n", 1),
    ('{"algo": "pg"}\n' + ",".join(TRACE_COLUMNS) + "\n", 1),
    ("#{not json\n", 1),
    ("#{}\n", 2),
    ("#{}\nstage,evals\n", 2),
    ("#{}\n" + ",".join(TRACE_COLUMNS) + f"\n{GOOD_ROW}\n1,40,2.0\n", 4),
    ("#{}\n" + ",".join(TRACE_COLUMNS) + "\n1,forty,2.0,0.5,,0.01,0\n", 3),
    ("#{}\n" + ",".join(TRACE_COLUMNS) + "\n1,40,2.0,0.5,,0.01,2\n", 3),
    ("#{}\n" + ",".join(TRACE_COLUMNS) + f"\n{GOOD_ROW},7\n", 3),
])
def test_read_trace_names_the_malformed_line(tmp_path, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
        read_trace(str(path))
