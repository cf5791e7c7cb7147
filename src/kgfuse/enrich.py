"""GND standardization, endpoint lookups, and the lazy per-identifier extractor.

Identifiers arrive either as bare GND numbers or as the national library's
URL form; both normalize to the bare number.  Extraction fetches one
identifier at a time, strictly in input order, waiting the configured
politeness delay between requests, and never lets one failing item abort
the batch.  An endpoint with a lookup template is a SPARQL endpoint that
is sent the instantiated query; one without fetches the linked-data
document of each identifier under its base URL.  Transports are injectable:
the recorded transport replays response files from a fixture directory so
no test touches the network.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Protocol

from .prefixes import KgfuseError, csv_text, read_text
from .rdf import Graph, RdfError
from .sparql import QueryTemplate, instantiate

DNB_GND_NAMESPACE = "https://d-nb.info/gnd"

_GND_RE = re.compile(r"^\d$|^\d[\d-]*[\dX]$")
_GND_URL_RE = re.compile(r"^https?://d-nb\.info/gnd/([^/?#]+)/?$")

_ACCEPT_RDF = "text/turtle, application/n-triples;q=0.9"


class GndError(KgfuseError, ValueError):
    pass


class EndpointConfigError(KgfuseError, ValueError):
    exit_code = 2


class TransportError(RuntimeError):
    pass


class TransportTimeout(TransportError):
    pass


class MissingRecordingError(KgfuseError, ValueError):
    """The fixture directory cannot serve a request: it holds no recording of
    the URL, or the recording is broken.  The directory is an input, so this
    is configuration."""

    exit_code = 2


@dataclass(frozen=True)
class GndId:
    number: str

    def __post_init__(self):
        if not _GND_RE.match(self.number) or "--" in self.number:
            raise GndError(f"not a valid GND number: {self.number!r}")

    def __str__(self):
        return self.number


def normalize_gnd(value: str) -> GndId:
    """Bare number or DNB URL form -> bare number; anything else fails."""
    candidate = value.strip()
    m = _GND_URL_RE.match(candidate)
    if m:
        candidate = m.group(1)
    try:
        return GndId(candidate)
    except GndError:
        raise GndError(f"neither a GND number nor a DNB GND URL: {value!r}") from None


def dnb_document_url(gnd: GndId, base_url: str = DNB_GND_NAMESPACE) -> str:
    """The linked-data document of `gnd` under `base_url` (DNB or a mirror)."""
    return f"{base_url}/{gnd.number}/about/lds"


WIKIDATA_LOOKUP = QueryTemplate.from_text(
    "PREFIX wdt: <http://www.wikidata.org/prop/direct/>\n"
    'CONSTRUCT { ?person ?p ?o } WHERE { ?person wdt:P227 "{gnd}" . ?person ?p ?o }'
)

DBPEDIA_LOOKUP = QueryTemplate.from_text(
    "PREFIX owl: <http://www.w3.org/2002/07/owl#>\n"
    "CONSTRUCT { ?person ?p ?o } WHERE { "
    "?person owl:sameAs <https://d-nb.info/gnd/{gnd}> . ?person ?p ?o }"
)


@dataclass(frozen=True)
class EndpointSpec:
    """Where and how politely to look identifiers up.

    With a `lookup_template` the endpoint is a SPARQL endpoint at `base_url`,
    sent the template filled with the GND number; without one it fetches the
    document `<base_url>/<gnd>/about/lds`.
    """

    name: str
    base_url: str
    lookup_template: Optional[QueryTemplate] = None
    politeness_delay_ms: int = 1000
    timeout_ms: int = 10000
    max_retries: int = 2

    def __post_init__(self):
        if self.politeness_delay_ms <= 0 or self.timeout_ms <= 0:
            raise EndpointConfigError("politeness delay and timeout must be positive")
        if self.max_retries < 0:
            raise EndpointConfigError("max_retries cannot be negative")
        if self.lookup_template is not None and "gnd" not in self.lookup_template.placeholders:
            raise EndpointConfigError("lookup template must reference {gnd}")

    @property
    def graph(self) -> str:
        return f"urn:x-extract:{self.name}"


def builtin_endpoint(name: str, **overrides) -> EndpointSpec:
    """dnb / wikidata / dbpedia with their usual URLs and lookup shapes."""
    table = {
        "dnb": dict(base_url=DNB_GND_NAMESPACE),
        "wikidata": dict(
            base_url="https://query.wikidata.org/sparql", lookup_template=WIKIDATA_LOOKUP
        ),
        "dbpedia": dict(base_url="https://dbpedia.org/sparql", lookup_template=DBPEDIA_LOOKUP),
    }
    if name not in table:
        raise EndpointConfigError(
            f"unknown endpoint {name!r}; expected one of {sorted(table)}"
        )
    params = dict(table[name])
    if "lookup_template" not in params and overrides.get("lookup_template") is not None:
        raise EndpointConfigError(
            f"endpoint {name!r} fetches documents and takes no lookup template"
        )
    params.update(overrides)
    return EndpointSpec(name=name, **params)


def build_lookup_query(endpoint: EndpointSpec, gnd: GndId) -> str:
    if endpoint.lookup_template is None:
        raise EndpointConfigError(f"endpoint {endpoint.name!r} is not a SPARQL endpoint")
    return instantiate(endpoint.lookup_template, {"gnd": gnd.number})


def request_url(endpoint: EndpointSpec, gnd: GndId) -> str:
    if endpoint.lookup_template is None:
        return dnb_document_url(gnd, endpoint.base_url)
    query = build_lookup_query(endpoint, gnd)
    return endpoint.base_url + "?" + urllib.parse.urlencode({"query": query})


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class Transport(Protocol):
    def get(self, url: str, accept: str, timeout_s: float) -> tuple[int, str]:
        ...


class HttpTransport:
    """urllib-based GET client.

    Its HTTP modules are imported on the first request: they pull in `ssl`
    and `email`, which no other command needs.
    """

    user_agent = "kgfuse/0.1"

    def get(self, url: str, accept: str, timeout_s: float) -> tuple[int, str]:
        import http.client
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            url, headers={"Accept": accept, "User-Agent": self.user_agent}
        )
        try:
            try:
                response = urllib.request.urlopen(request, timeout=timeout_s)
            except urllib.error.HTTPError as err:
                response = err  # an error status still has a body to read
            with response:
                return response.status, response.read().decode("utf-8", "replace")
        except urllib.error.URLError as err:
            if isinstance(err.reason, TimeoutError):
                raise TransportTimeout(str(err)) from err
            raise TransportError(str(err)) from err
        except TimeoutError as err:
            raise TransportTimeout(str(err)) from err
        except (OSError, http.client.HTTPException) as err:  # dropped while reading
            raise TransportError(str(err)) from err


class RecordedTransport:
    """Replays responses from a directory: one `<key>.json` file per request.

    `<key>` is a hash of the URL, and the file holds the JSON object
    `{"body", "status", "timeout", "url"}` with sorted keys; a true `timeout`
    replays a timeout.  Every served request is appended to `requests`.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.requests: list[str] = []

    def _path(self, url: str) -> Path:
        key = hashlib.sha256(url.encode("utf-8")).hexdigest()[:16]
        return self.directory / f"{key}.json"

    def record(
        self, url: str, body: str = "", status: int = 200, timeout: bool = False
    ) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        recording = {"body": body, "status": status, "timeout": timeout, "url": url}
        self._path(url).write_text(json.dumps(recording, sort_keys=True) + "\n", encoding="utf-8")

    def get(self, url: str, accept: str, timeout_s: float) -> tuple[int, str]:
        self.requests.append(url)
        path = self._path(url)
        try:
            text = read_text(path, MissingRecordingError)
        except FileNotFoundError:
            raise MissingRecordingError(f"no recorded response for {url}") from None
        try:
            recording = json.loads(text)
        except ValueError as err:
            reason = str(err)
        else:
            if (
                isinstance(recording, dict)
                and type(recording.get("status")) is int
                and isinstance(recording.get("body"), str)
            ):
                if recording.get("timeout"):
                    raise TransportTimeout(f"recorded timeout for {url}")
                return recording["status"], recording["body"]
            reason = "expected an object with an integer status and a string body"
        raise MissingRecordingError(f"{path}: not a recording: {reason}")


# ---------------------------------------------------------------------------
# Lazy extraction
# ---------------------------------------------------------------------------

OK = "ok"
NOT_FOUND = "not-found"
FAILED = "failed"

ERROR_TIMEOUT = "timeout"
ERROR_HTTP = "http-status"
ERROR_PARSE = "parse-error"
ERROR_TRANSPORT = "transport-error"


@dataclass(frozen=True)
class ExtractionItem:
    gnd: str
    url: str
    outcome: str
    triple_count: int = 0
    error_class: Optional[str] = None
    attempts: int = 1
    elapsed_s: float = 0.0


@dataclass
class ExtractionReport:
    endpoint: str
    items: list[ExtractionItem] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        return sum(1 for i in self.items if i.outcome == OK)

    def to_csv(self) -> str:
        """Deterministic artifact: elapsed times stay on the report object
        so identical runs produce byte-identical files."""
        rows = ((i.gnd, i.outcome, i.triple_count, i.error_class or "", i.attempts)
                for i in self.items)
        return csv_text(("gnd", "outcome", "triples", "error", "attempts"), rows)


def _extract_one(
    endpoint: EndpointSpec,
    url: str,
    transport: Transport,
    sleep: Callable[[float], None],
) -> tuple[str, Optional[str], int, Optional[Graph]]:
    """GET `url` and decide the item: (outcome, error_class, attempts, graph).

    A timeout or 5xx status is retried up to `max_retries` times, waiting
    the politeness delay and doubling it before each retry.  Any other
    transport failure is the item's error, not retried; a missing recording
    is the caller's error.  The graph is returned only when it holds triples,
    that is when the outcome is ok.
    """
    timeout_s = endpoint.timeout_ms / 1000.0
    backoff_s = endpoint.politeness_delay_ms / 1000.0
    attempts = 0
    while True:
        attempts += 1
        try:
            status, body = transport.get(url, _ACCEPT_RDF, timeout_s)
        except TransportTimeout:
            status = None
        except TransportError:
            return FAILED, ERROR_TRANSPORT, attempts, None
        if attempts > endpoint.max_retries or (status is not None and status < 500):
            break
        sleep(backoff_s)
        backoff_s *= 2
    if status is None:
        return FAILED, ERROR_TIMEOUT, attempts, None
    if status == 404:
        return NOT_FOUND, None, attempts, None
    if status != 200:
        return FAILED, ERROR_HTTP, attempts, None
    try:
        parsed = parse_response_body(body)
    except RdfError:
        return FAILED, ERROR_PARSE, attempts, None
    if not parsed:
        return NOT_FOUND, None, attempts, None
    return OK, None, attempts, parsed


def lazy_extract(
    gnds: Iterable[GndId],
    endpoint: EndpointSpec,
    transport: Transport,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Graph, ExtractionReport]:
    """One request per identifier, sequential, in input order.

    Per-item failures, a failed connection included, are recorded in the
    report and never abort the batch; a missing recording does, because the
    fixture directory is an input, not a response.  The returned graph is
    the RDF merge of everything that parsed, so each response keeps its own
    blank nodes.
    """
    parsed_graphs: list[Graph] = []
    report = ExtractionReport(endpoint=endpoint.name)
    delay_s = endpoint.politeness_delay_ms / 1000.0
    for position, gnd in enumerate(gnds):
        if position:
            sleep(delay_s)
        url = request_url(endpoint, gnd)
        started = time.perf_counter()
        outcome, error_class, attempts, parsed = _extract_one(endpoint, url, transport, sleep)
        if parsed is not None:
            parsed_graphs.append(parsed)
        report.items.append(
            ExtractionItem(
                gnd=gnd.number,
                url=url,
                outcome=outcome,
                triple_count=len(parsed) if parsed is not None else 0,
                error_class=error_class,
                attempts=attempts,
                elapsed_s=time.perf_counter() - started,
            )
        )
    return Graph.union(parsed_graphs, name=endpoint.graph), report


def parse_response_body(body: str) -> Graph:
    """Responses are Turtle or N-Triples; both go through the same parser."""
    from .rdf import parse_turtle

    return parse_turtle(body)
