"""Live metrics endpoint: publisher semantics and HTTP scraping."""

import json
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.server import (
    OPENMETRICS_CONTENT_TYPE,
    LiveMetricsServer,
    MetricsPublisher,
)
from tests.obs.openmetrics_parse import validate_openmetrics


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


def _head(url):
    req = urllib.request.Request(url, method="HEAD")
    with urllib.request.urlopen(req, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def _head_len(url):
    req = urllib.request.Request(url, method="HEAD")
    with urllib.request.urlopen(req, timeout=5) as resp:
        resp.read()
        return resp.headers.get("Content-Length")


class TestPublisher:
    def test_snapshot_merges_base_and_live(self):
        pub = MetricsPublisher()
        reg = MetricsRegistry()
        reg.counter("engine.sweeps").add(7)
        pub.publish_metrics(reg)  # accepts a live registry
        pub.publish_progress("figures", 2, 9)
        snap = pub.snapshot()
        assert snap["engine.sweeps"] == 7
        assert snap["live.progress{kind=figures}"] == 2
        assert snap["live.total{kind=figures}"] == 9
        assert pub.updates == 2

    def test_publish_metrics_replaces_base(self):
        pub = MetricsPublisher()
        pub.publish_metrics({"engine.sweeps": 1, "stale.key": 5})
        pub.publish_metrics({"engine.sweeps": 2})
        snap = pub.snapshot()
        assert snap["engine.sweeps"] == 2
        assert "stale.key" not in snap

    def test_meta_merges(self):
        pub = MetricsPublisher()
        pub.set_meta(command="bench run")
        pub.set_meta(record="engine")
        assert pub.meta() == {"command": "bench run", "record": "engine"}


class TestHTTPServer:
    @pytest.fixture()
    def server(self):
        srv = LiveMetricsServer()
        srv.start()
        yield srv
        srv.stop()

    def test_metrics_endpoint_is_validator_clean(self, server):
        reg = MetricsRegistry()
        reg.counter("fault.retries", rail="myri10g").add(3)
        reg.gauge("active.engines_built").set(1)
        server.publisher.publish_metrics(reg)
        server.publisher.publish_progress("chaos", 4, 10)
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype == OPENMETRICS_CONTENT_TYPE
        families = validate_openmetrics(body)  # raises on any violation
        assert "repro_fault_retries" in families
        assert "repro_live_progress" in families
        assert "repro_live_updates" in families

    def test_scrape_sees_mid_run_updates(self, server):
        server.publisher.publish_progress("figures", 1, 8)
        _, _, body1 = _get(server.url + "/metrics")
        assert 'repro_live_progress{kind="figures"} 1' in body1
        server.publisher.publish_progress("figures", 5, 8)
        _, _, body2 = _get(server.url + "/metrics")
        assert 'repro_live_progress{kind="figures"} 5' in body2

    def test_metrics_json_carries_meta(self, server):
        server.publisher.set_meta(command="chaos", cases=12)
        server.publisher.publish_metrics({"engine.sweeps": 3})
        status, ctype, body = _get(server.url + "/metrics.json")
        assert status == 200 and ctype.startswith("application/json")
        doc = json.loads(body)
        assert doc["meta"] == {"command": "chaos", "cases": 12}
        assert doc["metrics"]["engine.sweeps"] == 3

    def test_healthz_and_unknown_path(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200 and body == "ok\n"
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url + "/nope")
        assert exc_info.value.code == 404

    def test_openmetrics_content_type_on_metrics(self, server):
        _, ctype, _ = _get(server.url + "/metrics")
        assert ctype == OPENMETRICS_CONTENT_TYPE
        assert "version=1.0.0" in ctype and "charset=utf-8" in ctype

    def test_head_matches_get_headers_without_body(self, server):
        server.publisher.publish_progress("figures", 1, 2)
        for path in ("/metrics", "/metrics.json", "/healthz"):
            get_status, get_ctype, get_body = _get(server.url + path)
            status, ctype, body = _head(server.url + path)
            assert (status, ctype) == (get_status, get_ctype)
            assert body == b""  # headers only
            # Content-Length still advertises the GET body size
            assert int(_head_len(server.url + path)) == len(get_body.encode())

    def test_head_unknown_path_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _head(server.url + "/nope")
        assert exc_info.value.code == 404

    def test_context_manager_starts_and_stops(self):
        with LiveMetricsServer() as srv:
            status, _, _ = _get(srv.url + "/healthz")
            assert status == 200
        with pytest.raises(OSError):
            _get(srv.url + "/healthz")

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
