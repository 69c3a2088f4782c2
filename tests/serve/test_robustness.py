"""A cold server's first requests, and faults inside a handler."""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Fresh server processes hit with concurrent first requests.
COLD_STARTS = 5


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def test_import_loads_the_analytics_modules():
    code = (
        "import sys, repro.serve; "
        "print(all(m in sys.modules for m in "
        "('repro.analytics.engine', 'repro.analytics.report')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "True"


def _first_requests(port: int, paths) -> dict:
    """GET every path at once, each on its own connection."""
    barrier = threading.Barrier(len(paths))
    outcome: dict = {}

    def fetch(path: str) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            barrier.wait()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            outcome[path] = response.status
        except Exception as exc:  # noqa: BLE001 - reported in the assert
            outcome[path] = repr(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=fetch, args=(path,)) for path in paths]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90)
    return outcome


def test_cold_server_answers_concurrent_first_requests(serve_db_root):
    paths = ("/v1/best", "/v1/report")
    for _ in range(COLD_STARTS):
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--database", str(serve_db_root), "--port", "0",
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "http://" in banner, proc.stderr.read()
            port = int(banner.rsplit(":", 1)[1])
            assert _first_requests(port, paths) == {path: 200 for path in paths}
        finally:
            proc.terminate()
            proc.communicate(timeout=10)


def test_handler_fault_is_a_500_on_a_live_connection(server, http_get, monkeypatch):
    def boom(request):
        raise RuntimeError("handler fault")

    monkeypatch.setitem(server.service._routes, "/v1/best", boom)
    status, headers, body = http_get("/v1/best")
    assert status == 500
    assert headers["Content-Type"].startswith("application/json")
    payload = json.loads(body)
    assert payload["status"] == 500
    assert "handler fault" in payload["error"]
    # The keep-alive connection survives and the fault is counted.
    status, _, body = http_get("/v1/stats")
    assert status == 200
    assert json.loads(body)["counters"]["errors"] == 1
