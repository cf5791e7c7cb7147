"""GND handling, lookup construction, and the lazy extractor contract.

The extractor tests run against a recorded transport built in a temp
directory; the expected union graph is assembled manually from the same
response bodies, independent of the extractor.
"""

from __future__ import annotations

import http.client
import io
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgfuse.enrich import (
    EndpointConfigError,
    EndpointSpec,
    GndError,
    GndId,
    HttpTransport,
    MissingRecordingError,
    RecordedTransport,
    TransportError,
    TransportTimeout,
    build_lookup_query,
    builtin_endpoint,
    dnb_document_url,
    lazy_extract,
    normalize_gnd,
    request_url,
)
from kgfuse.rdf import Graph, iri, parse_turtle
from kgfuse.sparql import QueryTemplate

BODIES = {
    "118755951": '<https://d-nb.info/gnd/118755951> <http://www.w3.org/2000/01/rdf-schema#label> "Heinrichs, Heinrich Matthias" .\n',
    "118535794": '<https://d-nb.info/gnd/118535794> <http://www.w3.org/2000/01/rdf-schema#label> "Matthias, Andreas Heinrich" .\n'
    '<https://d-nb.info/gnd/118535794> <http://example.org/v#profession> "Professor" .\n',
    "7": '<https://d-nb.info/gnd/7> <http://www.w3.org/2000/01/rdf-schema#label> "Testeintrag" .\n',
}


# --- normalization -----------------------------------------------------------------

def test_normalize_url_form():
    assert normalize_gnd("https://d-nb.info/gnd/118755951").number == "118755951"


def test_normalize_is_idempotent_on_bare_numbers():
    assert normalize_gnd("118755951").number == "118755951"
    assert normalize_gnd(normalize_gnd("118755951").number).number == "118755951"


def test_normalize_tolerates_http_and_trailing_slash():
    assert normalize_gnd("http://d-nb.info/gnd/118755951/").number == "118755951"


def test_normalize_rejects_non_gnd_forms():
    with pytest.raises(GndError):
        normalize_gnd("https://example.org/x")
    with pytest.raises(GndError):
        normalize_gnd("not a number")
    with pytest.raises(GndError):
        normalize_gnd("")


def test_gnd_pattern_variants():
    assert GndId("4000002-3").number == "4000002-3"
    assert GndId("118755951X").number == "118755951X"
    with pytest.raises(GndError):
        GndId("X123")
    with pytest.raises(GndError):
        GndId("12--3")


def test_document_url_byte_exact():
    assert (
        dnb_document_url(GndId("118755951"))
        == "https://d-nb.info/gnd/118755951/about/lds"
    )
    assert dnb_document_url(GndId("7")) == "https://d-nb.info/gnd/7/about/lds"


@given(st.from_regex(r"[1-9]\d{0,8}(-\d)?|[1-9]\d{0,8}X?", fullmatch=True))
def test_normalize_is_left_inverse_of_document_url(number):
    gnd = GndId(number)
    url = dnb_document_url(gnd)
    prefix = url[: -len("/about/lds")]
    assert normalize_gnd(prefix) == gnd


# --- endpoints and lookups -----------------------------------------------------------

def test_wikidata_lookup_mentions_property_and_number():
    text = build_lookup_query(builtin_endpoint("wikidata"), GndId("118755951"))
    assert "wdt:P227" in text
    assert '"118755951"' in text


def test_dbpedia_lookup_contains_full_gnd_iri():
    text = build_lookup_query(builtin_endpoint("dbpedia"), GndId("118755951"))
    assert "<https://d-nb.info/gnd/118755951>" in text


def test_custom_sparql_endpoint_requires_gnd_placeholder():
    with pytest.raises(EndpointConfigError):
        EndpointSpec(
            name="custom",
            base_url="https://example.org/sparql",
            lookup_template=QueryTemplate.from_text("select * where {?s ?p ?o}"),
        )


def test_an_endpoint_without_a_template_fetches_documents():
    endpoint = EndpointSpec(name="x", base_url="https://example.org/gnd")
    assert request_url(endpoint, GndId("7")) == "https://example.org/gnd/7/about/lds"
    with pytest.raises(EndpointConfigError):
        build_lookup_query(endpoint, GndId("7"))
    assert builtin_endpoint("dnb", lookup_template=None) == builtin_endpoint("dnb")


def test_document_endpoint_rejects_a_lookup_template():
    template = QueryTemplate.from_text('select * where {?s ?p "{gnd}"}')
    with pytest.raises(EndpointConfigError, match="template"):
        builtin_endpoint("dnb", lookup_template=template)


def test_delays_must_be_positive():
    with pytest.raises(EndpointConfigError):
        builtin_endpoint("dnb", politeness_delay_ms=0)


def test_dnb_request_url_is_the_document_url():
    endpoint = builtin_endpoint("dnb")
    assert request_url(endpoint, GndId("7")) == "https://d-nb.info/gnd/7/about/lds"
    mirror = builtin_endpoint("dnb", base_url="https://mirror.example.org/gnd")
    assert request_url(mirror, GndId("7")) == "https://mirror.example.org/gnd/7/about/lds"


def test_sparql_request_url_carries_encoded_query():
    endpoint = builtin_endpoint("wikidata")
    url = request_url(endpoint, GndId("7"))
    assert url.startswith("https://query.wikidata.org/sparql?query=")
    assert "P227" in url


# --- lazy extraction -------------------------------------------------------------------

def _dnb_fixture(tmp_path, overrides: dict | None = None) -> RecordedTransport:
    transport = RecordedTransport(tmp_path / "recorded")
    for number, body in BODIES.items():
        url = f"https://d-nb.info/gnd/{number}/about/lds"
        entry = dict(body=body, status=200, timeout=False)
        if overrides and number in overrides:
            entry.update(overrides[number])
        transport.record(url, **entry)
    return transport


def _endpoint(**kw) -> EndpointSpec:
    params = dict(politeness_delay_ms=1, timeout_ms=100, max_retries=0)
    params.update(kw)
    return builtin_endpoint("dnb", **params)


def test_empty_input_yields_empty_graph_and_report(tmp_path):
    transport = _dnb_fixture(tmp_path)
    graph, report = lazy_extract([], _endpoint(), transport, sleep=lambda s: None)
    assert len(graph) == 0
    assert report.items == []
    assert transport.requests == []


def test_three_gnds_fetched_sequentially_in_order(tmp_path):
    transport = _dnb_fixture(tmp_path)
    gnds = [GndId("118755951"), GndId("118535794"), GndId("7")]
    sleeps: list[float] = []
    graph, report = lazy_extract(gnds, _endpoint(), transport, sleep=sleeps.append)
    assert transport.requests == [
        "https://d-nb.info/gnd/118755951/about/lds",
        "https://d-nb.info/gnd/118535794/about/lds",
        "https://d-nb.info/gnd/7/about/lds",
    ]
    assert [i.gnd for i in report.items] == [g.number for g in gnds]
    assert [i.outcome for i in report.items] == ["ok", "ok", "ok"]
    assert [i.triple_count for i in report.items] == [1, 2, 1]
    # politeness delay between consecutive requests only
    assert sleeps == [0.001, 0.001]
    expected = Graph(triples=(t for body in BODIES.values() for t in parse_turtle(body).triples))
    assert graph == expected
    assert graph.name == "urn:x-extract:dnb"


def test_blank_nodes_of_two_responses_stay_apart(tmp_path):
    transport = RecordedTransport(tmp_path / "recorded")
    for number, name in (("7", "A"), ("8", "B")):
        transport.record(
            f"https://d-nb.info/gnd/{number}/about/lds", body=f'_:b0 <urn:p:name> "{name}" .\n'
        )
    graph, _ = lazy_extract(
        [GndId("7"), GndId("8")], _endpoint(), transport, sleep=lambda s: None
    )
    assert len(graph) == 2
    assert len({t.s for t in graph.match(None, iri("urn:p:name"))}) == 2
    assert graph.name == "urn:x-extract:dnb"


def test_failure_in_the_middle_is_isolated(tmp_path):
    clean = _dnb_fixture(tmp_path / "clean")
    broken = RecordedTransport(tmp_path / "broken")
    for number, body in BODIES.items():
        url = f"https://d-nb.info/gnd/{number}/about/lds"
        if number == "118535794":
            broken.record(url, body="", status=500)
        else:
            broken.record(url, body=body)
    gnds = [GndId("118755951"), GndId("118535794"), GndId("7")]
    graph_clean, _ = lazy_extract(gnds, _endpoint(), clean, sleep=lambda s: None)
    graph_broken, report = lazy_extract(gnds, _endpoint(), broken, sleep=lambda s: None)
    assert [i.outcome for i in report.items] == ["ok", "failed", "ok"]
    assert report.items[1].error_class == "http-status"
    other_items = parse_turtle(BODIES["118755951"]).triples | parse_turtle(BODIES["7"]).triples
    assert graph_broken.triples == other_items
    assert graph_broken.triples < graph_clean.triples


def test_timeout_retries_with_doubling_backoff(tmp_path):
    transport = RecordedTransport(tmp_path / "recorded")
    url = "https://d-nb.info/gnd/7/about/lds"
    transport.record(url, body="", timeout=True)
    sleeps: list[float] = []
    endpoint = _endpoint(max_retries=2, politeness_delay_ms=10)
    graph, report = lazy_extract([GndId("7")], endpoint, transport, sleep=sleeps.append)
    assert report.items[0].outcome == "failed"
    assert report.items[0].error_class == "timeout"
    assert report.items[0].attempts == 3
    assert sleeps == [0.01, 0.02]
    assert len(graph) == 0


def test_http_404_maps_to_not_found(tmp_path):
    transport = RecordedTransport(tmp_path / "recorded")
    url = "https://d-nb.info/gnd/7/about/lds"
    transport.record(url, body="not here", status=404)
    _, report = lazy_extract([GndId("7")], _endpoint(), transport, sleep=lambda s: None)
    assert report.items[0].outcome == "not-found"


def test_empty_rdf_body_maps_to_not_found(tmp_path):
    transport = RecordedTransport(tmp_path / "recorded")
    transport.record("https://d-nb.info/gnd/7/about/lds", body="")
    _, report = lazy_extract([GndId("7")], _endpoint(), transport, sleep=lambda s: None)
    assert report.items[0].outcome == "not-found"
    assert report.items[0].triple_count == 0


def test_unparseable_body_maps_to_parse_error(tmp_path):
    transport = RecordedTransport(tmp_path / "recorded")
    transport.record("https://d-nb.info/gnd/7/about/lds", body="<<< not turtle >>>")
    _, report = lazy_extract([GndId("7")], _endpoint(), transport, sleep=lambda s: None)
    assert report.items[0].outcome == "failed"
    assert report.items[0].error_class == "parse-error"


def test_record_writes_only_its_own_file(tmp_path, monkeypatch):
    directory = tmp_path / "recorded"
    transport = RecordedTransport(directory)
    written: list[Path] = []
    write_text = Path.write_text

    def watched(path, *args, **kwargs):
        written.append(path)
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", watched)
    for k, (number, body) in enumerate(BODIES.items(), 1):
        url = f"https://d-nb.info/gnd/{number}/about/lds"
        transport.record(url, body=body)
        path = written.pop()
        assert written == [] and path.parent == directory and path.suffix == ".json"
        recording = {"body": body, "status": 200, "timeout": False, "url": url}
        assert path.read_text() == json.dumps(recording, sort_keys=True) + "\n"
        assert len(list(directory.iterdir())) == k
    assert not (directory / "index.json").exists()
    assert RecordedTransport(directory).get(url, "text/turtle", 1.0) == (200, body)


def test_missing_recording_is_a_loud_error(tmp_path):
    transport = RecordedTransport(tmp_path / "recorded")
    with pytest.raises(MissingRecordingError):
        transport.get("https://d-nb.info/gnd/999/about/lds", "text/turtle", 1.0)


class _FailingTransport:
    """Serves `inner`, except that `url` raises `error`."""

    def __init__(self, inner, url, error):
        self.inner, self.url, self.error = inner, url, error

    def get(self, url, accept, timeout_s):
        if url == self.url:
            raise self.error
        return self.inner.get(url, accept, timeout_s)


def test_a_failed_connection_is_that_items_failure(tmp_path):
    failing = _FailingTransport(
        _dnb_fixture(tmp_path), "https://d-nb.info/gnd/118535794/about/lds",
        TransportError("connection refused"),
    )
    gnds = [GndId("118755951"), GndId("118535794"), GndId("7")]
    graph, report = lazy_extract(gnds, _endpoint(max_retries=2), failing, sleep=lambda s: None)
    assert [i.outcome for i in report.items] == ["ok", "failed", "ok"]
    assert report.items[1].error_class == "transport-error"
    assert report.items[1].attempts == 1
    assert len(graph) == 2


class _DroppedResponse(io.BytesIO):
    status = 200

    def __init__(self, error):
        super().__init__()
        self.error = error

    def read(self, *args):
        raise self.error


@pytest.mark.parametrize(
    "error", [ConnectionResetError(104, "Connection reset by peer"), http.client.IncompleteRead(b"")]
)
def test_http_transport_turns_a_dropped_body_into_a_transport_error(monkeypatch, error):
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: _DroppedResponse(error))
    with pytest.raises(TransportError):
        HttpTransport().get("https://d-nb.info/gnd/7/about/lds", "text/turtle", 1.0)


def test_http_transport_returns_an_error_status_with_its_body(monkeypatch):
    def not_found(request, timeout):
        raise urllib.error.HTTPError(request.full_url, 404, "Not Found", {}, io.BytesIO(b"gone"))

    monkeypatch.setattr(urllib.request, "urlopen", not_found)
    assert HttpTransport().get("https://d-nb.info/gnd/7/about/lds", "text/turtle", 1.0) == (
        404, "gone"
    )


def test_report_csv_has_one_line_per_item(tmp_path):
    transport = _dnb_fixture(tmp_path)
    gnds = [GndId("118755951"), GndId("7")]
    _, report = lazy_extract(gnds, _endpoint(), transport, sleep=lambda s: None)
    lines = report.to_csv().splitlines()
    assert lines[0] == "gnd,outcome,triples,error,attempts"
    assert len(lines) == 3
    assert all(item.elapsed_s >= 0.0 for item in report.items)


def test_report_csv_is_byte_deterministic_across_runs(tmp_path):
    transport = _dnb_fixture(tmp_path)
    gnds = [GndId("118755951"), GndId("7")]
    _, first = lazy_extract(gnds, _endpoint(), transport, sleep=lambda s: None)
    _, second = lazy_extract(gnds, _endpoint(), transport, sleep=lambda s: None)
    assert first.to_csv() == second.to_csv()


# --- the extractor against a model ------------------------------------------------------

# One scripted response per attempt: a status with a body, or an exception.
_RETRYABLE = {"5xx", "timeout"}
_MODEL_OUTCOME = {  # response kind -> (outcome, error_class); "ok" counts its triples
    "ok": ("ok", None),
    "empty": ("not-found", None),
    "unparseable": ("failed", "parse-error"),
    "404": ("not-found", None),
    "5xx": ("failed", "http-status"),
    "timeout": ("failed", "timeout"),
    "transport": ("failed", "transport-error"),
}


def _scripted_response(kind: str, number: str, triples: int, status: int):
    if kind == "ok":
        return 200, "".join(
            f'<https://d-nb.info/gnd/{number}> <urn:p:{k}> "v{k}" .\n' for k in range(triples)
        )
    if kind == "empty":
        return 200, ""
    if kind == "unparseable":
        return 200, "<<< not turtle >>>"
    if kind == "404":
        return 404, "not here"
    if kind == "5xx":
        return status, "server error"
    if kind == "timeout":
        return TransportTimeout("scripted timeout")
    return TransportError("scripted connection failure")


class _ScriptedTransport:
    """Serves each URL its scripted responses in order, one per request."""

    def __init__(self, scripts: dict[str, list]):
        self.scripts = {url: list(script) for url, script in scripts.items()}
        self.requests: list[str] = []

    def get(self, url, accept, timeout_s):
        self.requests.append(url)
        response = self.scripts[url].pop(0)
        if isinstance(response, Exception):
            raise response
        return response


@st.composite
def _extraction_runs(draw):
    max_retries = draw(st.integers(0, 3))
    delay_ms = draw(st.integers(1, 50))
    items = []
    for k in range(draw(st.integers(0, 5))):
        script = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(_MODEL_OUTCOME)),
                    st.integers(1, 3),
                    st.integers(500, 599),
                ),
                min_size=max_retries + 1,
                max_size=max_retries + 1,
            )
        )
        items.append((str(k + 1), script))
    return max_retries, delay_ms, items


@given(_extraction_runs())
def test_lazy_extract_agrees_with_a_model_of_retries_and_outcomes(run):
    max_retries, delay_ms, items = run
    delay_s = delay_ms / 1000
    urls = {number: f"https://d-nb.info/gnd/{number}/about/lds" for number, _ in items}
    transport = _ScriptedTransport(
        {
            urls[number]: [_scripted_response(kind, number, n, s) for kind, n, s in script]
            for number, script in items
        }
    )
    endpoint = _endpoint(max_retries=max_retries, politeness_delay_ms=delay_ms)
    sleeps: list[float] = []
    graph, report = lazy_extract(
        [GndId(number) for number, _ in items], endpoint, transport, sleep=sleeps.append
    )

    # The model: an item stops at its first response that is not retryable,
    # or at its last allowed attempt; each retry first waits the politeness
    # delay doubled once per earlier retry.
    expected_items, expected_sleeps, expected_requests = [], [], []
    for position, (number, script) in enumerate(items):
        final = next(
            (k for k, (kind, _, _) in enumerate(script) if kind not in _RETRYABLE),
            max_retries,
        )
        kind, triples, _ = script[final]
        outcome, error_class = _MODEL_OUTCOME[kind]
        expected_items.append(
            (number, outcome, error_class, final + 1, triples if kind == "ok" else 0)
        )
        expected_sleeps += [delay_s] * (position > 0) + [delay_s * 2**k for k in range(final)]
        expected_requests += [urls[number]] * (final + 1)

    assert [
        (i.gnd, i.outcome, i.error_class, i.attempts, i.triple_count) for i in report.items
    ] == expected_items
    assert sleeps == expected_sleeps
    assert transport.requests == expected_requests
    assert len(graph) == sum(item[4] for item in expected_items)
