"""Write-ahead spool files: encoding, round trip and damaged files.

Everything here runs in-process on a stub worker — no sockets, no
subprocesses.  The stub carries exactly the attributes
:func:`~repro.runtime.spool.build_spool_doc` reads: a UTS pool whose
``uint64`` states exceed 2^53, unacknowledged transfers (one WORK, one
not) and a receive log.
"""

import io
import json
from types import SimpleNamespace

import numpy as np

from repro.runtime.codec import from_wire
from repro.runtime.spool import (build_spool_doc, read_spool, recovery_state,
                                 write_spool)
from repro.uts.params import PRESETS
from repro.uts.work import UTSWork

TINY = PRESETS["bin_tiny"].params
BIG = [2**53 + 1, 2**63 + 12345, 2**64 - 1]


def _uts(states, depths):
    return UTSWork(TINY, states=np.array(states, dtype=np.uint64),
                   depths=np.array(depths, dtype=np.int32))


def _stub_worker():
    pending = {
        4: SimpleNamespace(dst=1, seq=4, kind="WORK",
                           payload=(_uts(BIG[1:], [3, 4]), 7)),
        5: SimpleNamespace(dst=2, seq=5, kind="REQ", payload=(0, 1.5)),
    }
    channel = SimpleNamespace(_pending=pending,
                              _seen={0: {3, 1, 2}, 2: {9}})
    return SimpleNamespace(pid=3, stats=SimpleNamespace(work_units=1234),
                           work=_uts(BIG, [1, 2, 5]), _reliable=channel,
                           crash_dropped=[_uts([2**60], [6])])


def _old_encoding(doc) -> bytes:
    buf = io.StringIO()
    json.dump(doc, buf, separators=(",", ":"))
    return buf.getvalue().encode("utf-8")


def test_spool_doc_carries_the_oracle_state():
    doc = build_spool_doc(_stub_worker())
    assert list(doc) == ["pid", "processed", "pool", "out_pending",
                         "recv_log", "crash_dropped"]
    assert doc["pool"]["__uts"]["s"] == BIG
    assert all(type(x) is int for x in doc["pool"]["__uts"]["s"])
    assert doc["recv_log"] == {"0": [1, 2, 3], "2": [9]}
    assert [row[:3] for row in doc["out_pending"]] == [[1, 4, "WORK"],
                                                       [2, 5, "REQ"]]


def test_write_spool_bytes_match_streamed_json_dump(tmp_path):
    doc = build_spool_doc(_stub_worker())
    path = str(tmp_path / "spool_3.json")
    write_spool(path, doc)
    with open(path, "rb") as fh:
        assert fh.read() == _old_encoding(doc)
    assert not (tmp_path / "spool_3.json.tmp").exists()


def test_read_spool_round_trips(tmp_path):
    doc = build_spool_doc(_stub_worker())
    path = str(tmp_path / "spool_3.json")
    write_spool(path, doc)
    back = read_spool(path)
    assert back == doc
    pool = from_wire(back["pool"])
    states, depths = pool.peek()
    assert states.dtype == np.uint64
    assert states.tolist() == BIG and depths.tolist() == [1, 2, 5]
    piece = from_wire(back["out_pending"][0][3])[0]
    assert piece.peek()[0].tolist() == BIG[1:]


def test_read_spool_missing_or_truncated_is_none(tmp_path):
    path = str(tmp_path / "spool_3.json")
    assert read_spool(path) is None
    write_spool(path, build_spool_doc(_stub_worker()))
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])
    assert read_spool(path) is None


def test_final_report_state_equals_spooled_state():
    proc = _stub_worker()
    doc = build_spool_doc(proc)
    assert recovery_state(proc) == {"recv_log": doc["recv_log"],
                                    "crash_dropped": doc["crash_dropped"]}
    proc._reliable = None   # a fault-free worker has no channel
    assert recovery_state(proc)["recv_log"] == {}
