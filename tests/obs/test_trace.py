"""Tests for trace spans: nesting, export, merge, profiling."""

import json

import pytest

from repro import obs
from repro.obs.trace import Span


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with instrumentation off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_disabled_span_records_nothing():
    with obs.span("work"):
        pass
    assert obs.spans() == ()


def test_disabled_span_is_shared_null_object():
    assert obs.span("a") is obs.span("b")


def test_enabled_span_records_one_span():
    obs.enable()
    with obs.span("work", category="test", size=3):
        pass
    (span,) = obs.spans()
    assert span.name == "work"
    assert span.category == "test"
    assert span.attrs == {"size": 3}
    assert span.parent_id is None
    assert span.duration_s >= 0


def test_nesting_records_parent_child_edge():
    obs.enable()
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    inner, outer = obs.spans()  # completion order: inner exits first
    assert inner.name == "inner"
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None


def test_detail_span_needs_detail_flag():
    obs.enable()
    with obs.span("solver", detail=True):
        pass
    assert obs.spans() == ()
    obs.enable(detail=True)
    with obs.span("solver", detail=True):
        pass
    assert len(obs.spans()) == 1


def test_traced_decorator():
    @obs.traced("deco.work")
    def work(x):
        return x + 1

    assert work(1) == 2  # disabled path passes through
    assert obs.spans() == ()
    obs.enable()
    assert work(2) == 3
    (span,) = obs.spans()
    assert span.name == "deco.work"
    assert work.__name__ == "work"


def test_current_span_id_tracks_stack():
    obs.enable()
    assert obs.current_span_id() is None
    with obs.span("outer"):
        outer_id = obs.current_span_id()
        assert outer_id is not None
        with obs.span("inner"):
            assert obs.current_span_id() != outer_id
        assert obs.current_span_id() == outer_id
    assert obs.current_span_id() is None


def test_jsonl_round_trip(tmp_path):
    obs.enable()
    with obs.span("a", k="v"):
        with obs.span("b"):
            pass
    path = tmp_path / "trace.jsonl"
    obs.write_jsonl(path)
    assert obs.read_jsonl(path) == obs.spans()


def test_chrome_trace_format(tmp_path):
    obs.enable()
    with obs.span("a", category="model", k=1):
        pass
    path = tmp_path / "trace.json"
    obs.write_chrome_trace(path)
    payload = json.loads(path.read_text())
    (event,) = payload["traceEvents"]
    assert event["ph"] == "X"
    assert event["name"] == "a"
    assert event["cat"] == "model"
    assert event["dur"] >= 0
    assert event["args"] == {"k": 1}


def test_merge_renumbers_and_anchors_foreign_roots():
    obs.enable()
    foreign = (
        Span(span_id=1, parent_id=None, name="root", category="m",
             start_s=0.0, duration_s=1.0, pid=999),
        Span(span_id=2, parent_id=1, name="child", category="m",
             start_s=0.1, duration_s=0.5, pid=999),
    )
    with obs.span("local"):
        anchor = obs.current_span_id()
        obs.merge(foreign, parent_id=anchor)
    by_name = {s.name: s for s in obs.spans()}
    local, root, child = by_name["local"], by_name["root"], by_name["child"]
    assert root.parent_id == local.span_id
    assert child.parent_id == root.span_id
    assert len({local.span_id, root.span_id, child.span_id}) == 3


def test_merge_without_anchor_cuts_to_roots():
    obs.enable()
    foreign = (
        Span(span_id=7, parent_id=5, name="orphan", category="m",
             start_s=0.0, duration_s=1.0, pid=999),
    )
    obs.merge(foreign)
    (span,) = obs.spans()
    assert span.parent_id is None


def test_profile_self_time_excludes_children():
    trace = (
        Span(span_id=2, parent_id=1, name="child", category="m",
             start_s=0.0, duration_s=3.0, pid=1),
        Span(span_id=1, parent_id=None, name="root", category="m",
             start_s=0.0, duration_s=10.0, pid=1),
    )
    prof = obs.profile(trace)
    assert prof["root"].total_s == pytest.approx(10.0)
    assert prof["root"].self_s == pytest.approx(7.0)
    assert prof["child"].self_s == pytest.approx(3.0)
    # Self times partition the root total exactly.
    assert sum(e.self_s for e in prof.values()) == pytest.approx(
        obs.root_total_s(trace)
    )


def test_format_profile_coverage_line():
    trace = (
        Span(span_id=1, parent_id=None, name="root", category="m",
             start_s=0.0, duration_s=0.95, pid=1),
    )
    text = obs.format_profile(
        obs.profile(trace), wall_s=1.0, covered_s=obs.root_total_s(trace),
    )
    assert "root" in text
    assert "span total covers 95.0% of 1000.0ms wall time" in text


def test_reset_clears_spans():
    obs.enable()
    with obs.span("a"):
        pass
    obs.reset()
    assert obs.spans() == ()


def test_every_sram_array_build_has_search_and_assemble_children(
    monkeypatch,
):
    from repro import fastpath
    from repro.array import array_model
    from repro.chip import Processor
    from repro.config import presets

    dff_arrays: list[str] = []
    build_dff = array_model._build_dff_array

    def recording_dff(tech, spec):
        dff_arrays.append(spec.name)
        return build_dff(tech, spec)

    monkeypatch.setattr(array_model, "_build_dff_array", recording_dff)
    fastpath.clear_all()
    obs.enable()
    Processor(presets.niagara1()).report()
    obs.disable()
    spans = obs.spans()
    children: dict[int, list[str]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span.name)
    builds = [span for span in spans if span.name == "array.build"]
    sram = [b for b in builds if b.attrs["array"] not in dff_arrays]
    assert sram
    for build in sram:
        assert sorted(children.get(build.span_id, [])) == [
            "array.assemble", "array.search",
        ]
    for build in builds:
        if build.attrs["array"] in dff_arrays:
            assert children.get(build.span_id, []) == []


def test_search_spans_say_what_the_search_did(monkeypatch):
    from repro import fastpath
    from repro.array import array_model
    from repro.array.organization import candidate_organizations
    from repro.chip import Processor
    from repro.config import presets

    specs = {}
    search = array_model.search_organizations

    def recording_search(tech, spec, weights):
        specs[spec.name] = spec
        return search(tech, spec, weights)

    monkeypatch.setattr(array_model, "search_organizations", recording_search)
    fastpath.clear_all()
    obs.enable()
    Processor(presets.niagara1()).report()
    obs.disable()
    spans = obs.spans()
    by_id = {span.span_id: span for span in spans}
    searches = [span for span in spans if span.name == "array.search"]
    assert len(searches) == len(specs) > 1
    for span in searches:
        spec = specs[by_id[span.parent_id].attrs["array"]]
        tilings = list(candidate_organizations(spec))
        rows = {spec.entries_per_bank // (t.ndbl * t.nspd) for t in tilings}
        columns = {
            (spec.width_bits * t.nspd // t.ndwl, t.nspd) for t in tilings
        }
        assert span.attrs == {
            "tilings": len(tilings),
            "row_terms": len(rows),
            "column_terms": len(columns),
        }, spec.name


def test_chain_spans_cover_the_search_and_the_cams(monkeypatch):
    from repro import fastpath
    from repro.array.cam import CamArray
    from repro.chip import Processor
    from repro.config import presets

    cams: list[CamArray] = []
    post_init = CamArray.__post_init__

    def recording_post_init(self):
        cams.append(self)
        post_init(self)

    monkeypatch.setattr(CamArray, "__post_init__", recording_post_init)
    fastpath.clear_all()
    obs.enable(detail=True)
    Processor(presets.niagara1()).report()
    obs.disable()
    spans = obs.spans()
    by_id = {span.span_id: span for span in spans}

    def ancestors(span):
        names = []
        while span.parent_id in by_id:
            span = by_id[span.parent_id]
            names.append(span.name)
        return names

    chains = [s for s in spans if s.name == "circuit.logical_effort.solve"]
    in_search = [s for s in chains if "array.search" in ancestors(s)]
    assert in_search
    assert all(span.attrs["stages"] >= 1 for span in chains)
    # The rest are the CAMs': each sizes its search-line driver and
    # its write wordline.
    assert len(cams) == 4
    assert len(chains) - len(in_search) == 2 * len(cams)
