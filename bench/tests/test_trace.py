import json

from bench.trace import Tracer, by_name, self_times, write_chrome_trace


def _span(span_id, name, start, end, parent):
    return {
        "id": span_id, "name": name, "start": start, "end": end,
        "parent": parent, "run": "r", "attrs": {},
    }


def test_self_time_is_duration_minus_what_children_cover():
    #  root 0..10
    #    a 1..4          (child of root)
    #      a1 2..3       (child of a)
    #    b 3..6          (child of root, overlaps a by 1 s)
    #    c 8..12         (child of root, sticks out past the root's end)
    records = [
        _span(0, "root", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "a1", 2.0, 3.0, 1),
        _span(3, "b", 3.0, 6.0, 0),
        _span(4, "c", 8.0, 12.0, 0),
    ]
    selfs = self_times(records)
    # children cover [1,6] and [8,10] of the root: 5 + 2 = 7 s
    assert selfs[0] == 3.0
    assert selfs[1] == 2.0  # 3 s minus a1's 1 s
    assert selfs[2] == 1.0
    assert selfs[3] == 3.0
    assert selfs[4] == 4.0
    table = by_name(records)
    assert table["root"] == {"total_s": 10.0, "self_s": 3.0, "calls": 1}


def test_tracer_nests_by_the_call_stack_with_an_injected_clock():
    ticks = iter(range(100))
    tracer = Tracer("run-1", clock=lambda: float(next(ticks)))
    with tracer.span("outer", kind="x"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    records = tracer.to_records()
    assert [r["name"] for r in records] == ["outer", "inner", "inner"]
    assert [r["parent"] for r in records] == [None, 0, 0]
    assert {r["run"] for r in records} == {"run-1"}
    assert records[0]["attrs"] == {"kind": "x"}
    table = by_name(records)
    assert table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == table["outer"]["total_s"] - 2.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer("run", enabled=False)
    with tracer.span("anything"):
        pass
    assert tracer.to_records() == []


def test_chrome_trace_has_one_complete_event_per_span(tmp_path):
    records = [_span(0, "root", 5.0, 7.0, None), _span(1, "kid", 5.5, 6.0, 0)]
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), records)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["root", "kid"]
    assert complete[0]["ts"] == 0.0 and complete[0]["dur"] == 2e6
    assert complete[1]["args"]["parent"] == 0
