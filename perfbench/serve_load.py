"""Traffic against ``mnt-bench serve``, and the ``serve`` workload.

:class:`Traffic` starts one server and fetches every URL of the run
once, comparing each payload byte for byte with the in-process API.  It
then starts a fresh server, so the timed phases meet cold caches, and
drives it from one process with at most ``nproc`` keep-alive
connections at fixed offered rates (open loop).  Each request is timed
from when it was due.  The ``serve`` workload runs three rounds of three
rates over a Trindade16 database.

Only the arrival order depends on the seed: every phase sends the same
multiset of requests, so a run's work does not change with the seed.
"""

from __future__ import annotations

import gzip
import hashlib
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs, quote, urlencode, urlsplit

import layers
import pace
import workloads
from workloads import ROOT, check

#: Share of each phase's requests per class, and the hot skew of the
#: ``.fgl`` downloads: the hosted-platform mix documented in
#: ``benchmarks/bench_serve.py`` and ``benchmarks/bench_platform.py``
#: (a fifth of the artifacts draw four fifths of the downloads).
SERVE_MIX = (("query", 0.45), ("artifact_fgl", 0.40), ("best", 0.10), ("report", 0.05))
HOT_FRACTION = 0.2
HOT_PROBABILITY = 0.8
#: The rest are assumptions, with no published traffic to take them
#: from (README.md says why each value was chosen).  Offered rates
#: (requests/s) of the timed phases; the middle one gives
#: ``serve_p50_ms`` / ``serve_p90_ms``.
RATES = (100, 200, 400)
#: A rate counts towards ``serve.max_rps`` when its p99 stays under this.
P99_LIMIT_MS = 250.0
#: The timed phases run in this many rounds of the three rates.  After
#: each phase come one more build of the small served database and
#: analyze and export passes over it, so that every stage's samples
#: span the run (``sweep_s`` is the median of ``ROUNDS * len(RATES) + 1``
#: builds), not one stretch of a shared host's load.
ROUNDS = 3
PASSES_PER_PHASE = 7
ACCEPT = {"Accept-Encoding": "gzip, deflate"}


@dataclass(frozen=True)
class Request:
    kind: str
    url: str


def spread(items: list, count: int, weights: list[float]) -> list:
    """``count`` items in proportion to ``weights`` (largest remainder)."""
    total = sum(weights)
    exact = [count * w / total for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(items)), key=lambda i: counts[i] - exact[i])
    for i in order[: count - sum(counts)]:
        counts[i] += 1
    return [item for item, n in zip(items, counts) for _ in range(n)]


def _fgl_weights(count: int) -> list[float]:
    """Download weight of each of ``count`` artifacts: the first
    ``HOT_FRACTION`` share together draws ``HOT_PROBABILITY`` of them."""
    hot = max(1, int(count * HOT_FRACTION))
    return [
        HOT_PROBABILITY / hot * (rank < hot) + (1 - HOT_PROBABILITY) / count
        for rank in range(count)
    ]


def _query_urls(suites) -> list[str]:
    urls = []
    for library in ("QCA ONE", "Bestagon"):
        for suite in suites:
            for best in (False, True):
                params = [("library", library), ("suite", suite)]
                if best:
                    params.append(("best", "1"))
                urls.append("/v1/query?" + urlencode(params))
    return urls


def _artifact_url(record, fmt: str | None = None) -> str:
    url = "/v1/artifact/" + quote(record.path)
    return url + (f"?format={fmt}" if fmt else "")


def _cell_url(record) -> str:
    return _artifact_url(record, "sqd" if record.gate_library == "Bestagon" else "qca")


#: ``/v1/best`` and ``/v1/report`` variants, as in bench_serve.py.
BEST_URLS = ("/v1/best", "/v1/best?library=QCA+ONE", "/v1/best?library=Bestagon")
REPORT_URLS = ("/v1/report?format=json", "/v1/report?format=markdown")


def phase_requests(gate_records, suites, count: int, cells=()) -> list[Request]:
    """The fixed multiset of one phase: ``SERVE_MIX`` shares of ``count``
    (facet queries, hot-skewed ``.fgl`` downloads, ``/v1/best``,
    ``/v1/report``) plus one cell-level download of each of ``cells``."""
    requests = []
    body = count - len(cells)
    for kind, share in SERVE_MIX:
        n = round(body * share)
        if kind == "query":
            urls = _query_urls(suites)
            requests += [Request(kind, urls[i % len(urls)]) for i in range(n)]
        elif kind == "artifact_fgl":
            weights = _fgl_weights(len(gate_records))
            requests += [
                Request(kind, _artifact_url(r)) for r in spread(gate_records, n, weights)
            ]
        else:
            urls = BEST_URLS if kind == "best" else REPORT_URLS
            requests += [Request(kind, urls[i % len(urls)]) for i in range(n)]
    requests += [Request("artifact_cell", _cell_url(record)) for record in cells]
    return requests


def expected_payload(view, request: Request, records_by_url) -> bytes:
    """The in-process API's bytes for ``request``."""
    from repro.core import Selection
    from repro.serve.handlers import best_payload, query_payload

    params = parse_qs(urlsplit(request.url).query)
    selection = Selection.make(
        gate_libraries=params.get("library", ()),
        suites=params.get("suite", ()),
        best_only="best" in params,
    )
    if request.kind == "query":
        return json.dumps(query_payload(view, selection), indent=2, sort_keys=True).encode()
    if request.kind == "best":
        return json.dumps(best_payload(view, selection), indent=2, sort_keys=True).encode()
    if request.kind == "report":
        return view.report(selection).render(params["format"][0]).encode("utf-8")
    record = records_by_url[request.url]
    if request.kind == "artifact_fgl":
        return view.artifact_text(record).encode("utf-8")
    layout = view.store.load_layout(record.path)
    return workloads.cell_text(layout, record.gate_library).encode("utf-8")


def percentile_ms(latencies, q: float) -> float:
    ordered = sorted(latencies)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _decode(response: http.client.HTTPResponse, body: bytes) -> bytes:
    encoding = response.getheader("Content-Encoding")
    if encoding == "gzip":
        return gzip.decompress(body)
    if encoding == "deflate":
        return zlib.decompress(body)
    return body


class Server:
    """One ``mnt-bench serve`` process on an ephemeral port."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--database", str(root),
             "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise workloads.CheckFailed(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip())

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def fetch(conn, url: str, headers: dict) -> tuple[int, http.client.HTTPResponse, bytes]:
    conn.request("GET", url, headers=headers)
    response = conn.getresponse()
    return response.status, response, response.read()


def open_loop(server: Server, requests: list[Request], rate: float, expected: dict,
              etags: dict, connections: int) -> dict:
    """Send ``requests`` at ``rate``/s over ``connections`` keep-alive
    connections; each latency runs from the request's due time.
    Returns one ``(kind, latency, lag, ok, not_modified)`` per request
    and whether the generator's lag grew over the phase."""
    start = time.perf_counter() + 0.05
    results: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                headers = dict(ACCEPT)
                etag = etags.get(request.url) if request.kind == "artifact_fgl" else None
                if etag:
                    headers["If-None-Match"] = etag
                try:
                    status, response, body = fetch(conn, request.url, headers)
                except (OSError, http.client.HTTPException):
                    results[index] = (request.kind, time.perf_counter() - due, sent - due, False, False)
                    conn.close()
                    conn = server.connect()
                    continue
                done = time.perf_counter()
                if status == 304:
                    ok = etag is not None
                else:
                    ok = status == 200 and (
                        hashlib.sha256(_decode(response, body)).digest() == expected[request.url]
                    )
                    if ok and request.kind == "artifact_fgl":
                        etags[request.url] = response.getheader("ETag")
                results[index] = (request.kind, done - due, sent - due, ok, status == 304)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    lags = [r[2] for r in results]
    tail = lags[-max(1, len(lags) // 10):]
    return {"results": results, "backlog_growing": statistics.median(tail) > 0.1}


def latency_summary(results) -> dict:
    latencies = [r[1] for r in results]
    lags = [r[2] for r in results]
    return {
        "p50_ms": 1000 * statistics.median(latencies),
        "p90_ms": percentile_ms(latencies, 0.90),
        "p99_ms": percentile_ms(latencies, 0.99),
        "lag_ms": 1000 * max(lags),
    }


def warm_up(server: Server, phases, spare_cells) -> None:
    """One request of each class, one at a time, before timing.

    The handlers import their modules on first use, and two handler
    threads importing ``repro.analytics`` at once can fail with an
    ImportError (a circular import under concurrency).  Like a deployed
    server, this one has served each endpoint once before the load
    starts.  The cell-level warm-up uses artifacts no phase requests,
    so the phases' cell-level downloads stay cold."""
    firsts: dict[str, str] = {}
    for request in phases[0]:
        if request.kind != "artifact_cell":
            firsts.setdefault(request.kind, request.url)
    urls = ["/v1/stats", *firsts.values()]
    for library in ("QCA ONE", "Bestagon"):
        record = next((r for r in spare_cells if r.gate_library == library), None)
        if record is not None:
            urls.append(_cell_url(record))
    conn = server.connect()
    try:
        for url in urls:
            status, _, _ = fetch(conn, url, ACCEPT)
            check(status == 200, f"warm-up {url}: HTTP {status}")
    finally:
        conn.close()


class Traffic:
    """Requests against ``mnt-bench serve``, spread over a run.

    Opening it makes a correctness pass on one server (every URL of
    ``chunks`` once, byte for byte against the in-process API), then
    starts a fresh server, so the timed chunks meet cold caches, and
    warms it up.  :meth:`run` times one chunk at one offered rate; the
    caller spaces the chunks out between its other stages, so that the
    latency samples span most of the run rather than one stretch of a
    shared host's load.  Each artifact's first timed request downloads
    it; later ones revalidate with its ETag."""

    def __init__(self, root: Path, chunks, records_by_url, spare_cells=()) -> None:
        from repro.core import BenchmarkDatabase

        view = BenchmarkDatabase(root).snapshot()
        unique = {r.url: r for chunk in chunks for r in chunk}
        self.expected: dict[str, bytes] = {}
        server = Server(root)
        try:
            conn = server.connect()
            for url, request in sorted(unique.items()):
                status, response, body = fetch(conn, url, ACCEPT)
                want = expected_payload(view, request, records_by_url)
                check(status == 200, f"{url}: HTTP {status}")
                check(_decode(response, body) == want, f"{url}: payload differs from the API")
                self.expected[url] = hashlib.sha256(want).digest()
            conn.close()
        finally:
            server.stop()
        self.etags: dict[str, str] = {}
        self.server = Server(root)
        self.phases: list[tuple[float, dict]] = []
        self.stats: dict = {}
        try:
            warm_up(self.server, chunks, spare_cells)
        except BaseException:
            self.server.stop()
            raise

    def run(self, rate: float, requests: list[Request]) -> None:
        outcome = open_loop(
            self.server, requests, rate, self.expected, self.etags, os.cpu_count() or 1
        )
        self.phases.append((rate, outcome))

    def close(self) -> None:
        """Read ``/v1/stats`` and stop the server."""
        try:
            conn = self.server.connect()
            _, _, body = fetch(conn, "/v1/stats", {})
            conn.close()
            self.stats = json.loads(body)
        finally:
            self.server.stop()

    def results(self, rate: float | None = None) -> list:
        return [
            r for phase_rate, outcome in self.phases
            if rate is None or phase_rate == rate
            for r in outcome["results"]
        ]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results() if not r[3])

    def max_rps(self, rates) -> float:
        """The highest offered rate whose p99 meets ``P99_LIMIT_MS``
        with no growing backlog (0 when none does)."""
        return max(
            (
                rate for rate in rates
                if latency_summary(self.results(rate))["p99_ms"] <= P99_LIMIT_MS
                and not any(o["backlog_growing"] for r, o in self.phases if r == rate)
            ),
            default=0,
        )


def _gate_records(view) -> list:
    return sorted((r for r in view.records if r.area is not None), key=lambda r: r.path)


def serve_layers(traffic: Traffic, rates) -> dict:
    """``serve.*`` per-layer metrics from the client's latencies and
    the server's ``/v1/stats``."""
    by_class: dict[str, list] = {}
    for kind, latency, *_ in traffic.results():
        by_class.setdefault(kind, []).append(latency)
    values = layers.serve_class_layers(by_class)
    middle = latency_summary(traffic.results(rates[len(rates) // 2]))
    values["serve.p50_ms"] = middle["p50_ms"]
    values["serve.p90_ms"] = middle["p90_ms"]
    counters = traffic.stats.get("counters", {})
    render = traffic.stats.get("render_cache", {})
    lookups = render.get("hits", 0) + render.get("misses", 0)
    values.update(
        {
            "serve.not_modified_frac": counters.get("not_modified", 0)
            / max(1, counters.get("requests", 0)),
            "serve.render_cache_hit_frac": render.get("hits", 0) / max(1, lookups),
            "serve.generator_lag_ms": latency_summary(traffic.results())["lag_ms"],
            "serve.max_rps": traffic.max_rps(rates),
        }
    )
    return values


def run_serve(seed: int, seconds: float, tracer, work: Path, expected_entry, smoke: bool):
    from repro.benchsuite import get_benchmark
    from repro.core import BenchmarkDatabase

    import_times = workloads.setup_samples("import repro.cli\nimport repro.serve\n")
    benchmarks = (
        (("trindade16", "mux21"), ("trindade16", "xor2"))
        if smoke
        else workloads.suite_benchmarks("trindade16")
    )
    jobs = 1 if tracer is not None else (os.cpu_count() or 1)
    params = workloads.generation_params(jobs, 300)
    # The served database is Trindade16 through the ortho family:
    # placement is the portfolio workload's subject, and every run
    # rebuilds this database in its set-up.
    params.nanoplacer_max_gates = 0
    specs = [get_benchmark(suite, name) for suite, name in benchmarks]
    sweep_times = []

    def build(attempt: int) -> Path:
        root = work / f"serve{attempt}"
        reports = pace.timed_pool(
            sweep_times, workloads.sweep, BenchmarkDatabase(root), specs, params
        )
        workloads.check_steady(reports, tracer)
        return root

    def prepare():
        root = build(0)  # the served database; later builds are only timed
        gate_records = _gate_records(BenchmarkDatabase(root).snapshot())
        best = sorted(workloads.best_records(BenchmarkDatabase(root)), key=lambda r: r.path)
        rng = random.Random(seed)
        order = []  # (rate, requests), ROUNDS rounds of RATES
        for _ in range(ROUNDS):
            for rate in RATES:
                cold = best[len(order) : len(order) + 1]
                count = max(20, int(rate * seconds / (len(RATES) * ROUNDS)))
                requests = phase_requests(gate_records, ["trindade16"], count, cold)
                rng.shuffle(requests)
                order.append((rate, requests))
        records_by_url = {_artifact_url(r): r for r in gate_records}
        records_by_url.update({_cell_url(r): r for r in best})
        traffic = Traffic(
            root, [requests for _, requests in order], records_by_url, best[len(order) :]
        )
        return root, best, order, traffic

    setup_times: list = []
    # the set-up after the imports builds with a worker pool
    root, best, order, traffic = pace.timed_pool(setup_times, prepare)
    analyze_times, export_times = [], []
    try:
        for index, (rate, requests) in enumerate(order):
            traffic.run(rate, requests)
            build(1 + index)
            workloads.analyze_and_export(
                root, best, PASSES_PER_PHASE, analyze_times, export_times, tracer
            )
    finally:
        traffic.close()

    results = traffic.results()
    failed = traffic.failed
    middle = latency_summary(traffic.results(RATES[1]))
    result = workloads.RunResult()
    result.attempted = len(results)
    result.failed = failed
    best_area = sum(record.area for record in best)
    digest = workloads.database_digest(BenchmarkDatabase(root))
    result.metrics = {
        "setup_s": (
            pace.median_reference(import_times) + pace.median_reference(setup_times), "s"
        ),
        "sweep_s": (pace.median_reference(sweep_times), "s"),
        "analyze_s": (pace.median_reference(analyze_times), "s"),
        "export_s": (pace.median_reference(export_times), "s"),
        "best_area_tiles": (best_area, "tiles"),
        "ok_frac": ((len(results) - failed) / len(results), "ratio"),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
    }
    per_rate = {rate: latency_summary(traffic.results(rate)) for rate in RATES}
    result.notes.update(
        digest=digest,
        requests=len(results),
        raw_setup_s=pace.median_raw(import_times) + pace.median_raw(setup_times),
        raw_sweep_s=pace.median_raw(sweep_times),
        raw_analyze_s=pace.median_raw(analyze_times),
        raw_export_s=pace.median_raw(export_times),
        serve_p50_ms=middle["p50_ms"],
        serve_p90_ms=middle["p90_ms"],
        max_rps=traffic.max_rps(RATES),
        **{f"rate{rate}_p99_ms": summary["p99_ms"] for rate, summary in per_rate.items()},
        **{f"rate{rate}_lag_ms": summary["lag_ms"] for rate, summary in per_rate.items()},
    )
    if expected_entry is not None:
        check(failed == 0, f"{failed} request(s) failed or returned a wrong payload")
        check(digest == expected_entry["digest"], "artifact digest differs from recorded")
        check(best_area == expected_entry["best_area_tiles"], "best area differs from recorded")
    if tracer is not None:
        result.layers = layers.batch_layers(tracer, [])
        result.layers.update(serve_layers(traffic, RATES))
    return result
