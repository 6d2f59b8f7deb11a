"""The demo web application (paper Figures 2-3, offline edition).

A dependency-free web app: the single HTML page draws the road network
on a canvas, lets the user drop source/target markers, shows the four
blinded approaches' routes in different colors with travel times in
minutes, and submits the 1-5 rating form into the SQLite response
store.  It is served by the same asyncio front end as the sharded
deployment (:mod:`repro.serving.frontend`), so every shared endpoint
has one implementation.

Endpoints
---------
``GET  /``              the UI page
``GET  /api/network``   network geometry for the base map
``POST /api/route``     compute the four route sets for a query
``POST /api/feedback``  store a rating-form submission
``GET  /api/stats``     response counts and mean ratings per label
``GET  /api/table``     the rating table over the stored responses
``GET  /api/isochrone`` reachability within a time budget
``GET  /metrics``       serving-layer counters, latencies and cache stats
                        (JSON; ``Accept: text/plain`` or
                        ``/metrics/prometheus`` give Prometheus text)
``GET  /healthz``       liveness: network, planners, cache, uptime,
                        process RSS, attached accelerator structures
``GET  /trace``         recently finished query traces (``?limit=N``)
``GET  /debug/profile`` aggregated per-phase wall-time tree (populate
                        it by running the service with an enabled
                        profiler, e.g. ``repro demo --profile``)

Routing goes through :meth:`repro.serving.RouteService.answer` —
cached, concurrent, degradation-tolerant — so a single slow or failing
planner no longer takes the whole query down.  Every ``/api/route``
request is wrapped in a ``request`` trace, so the service's ``query``
trace and the render span share one trace ID retrievable from
``/trace``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.demo.query_processor import QueryProcessor
from repro.demo.storage import FeedbackRecord, ResponseStore
from repro.exceptions import QueryError
from repro.observability.logs import get_logger
from repro.observability.prometheus import render_prometheus
from repro.serving.frontend import Reply, Request, ShardFrontend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.service import RouteService

logger = get_logger(__name__)


def _process_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    ``getrusage`` is the stdlib's only portable RSS source;
    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(usage)
    return int(usage) * 1024


_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Comparing Alternative Route Planning Techniques</title>
<style>
  body { font-family: sans-serif; margin: 1rem; background: #fafafa; }
  #map { border: 1px solid #999; background: #fff; cursor: crosshair; }
  .panel { margin: .6rem 0; }
  .approach { display: inline-block; margin-right: 1.2rem; }
  button { padding: .3rem .8rem; }
  #status { color: #555; }
</style>
</head>
<body>
<h2>Alternative Route Planning — Demo</h2>
<p>Click two points on the map to pick the <b>source</b> and
<b>target</b>, then press Submit. Rate each blinded approach (A–D)
from 1 (worst) to 5 (best).</p>
<canvas id="map" width="900" height="640"></canvas>
<div class="panel">
  <button onclick="submitQuery()">Submit</button>
  <button onclick="resetMarkers()">Reset</button>
  <span id="status"></span>
</div>
<div class="panel" id="ratings" style="display:none">
  <span class="approach" id="legend"></span><br>
  <span class="approach">A: <select id="rate-A"></select></span>
  <span class="approach">B: <select id="rate-B"></select></span>
  <span class="approach">C: <select id="rate-C"></select></span>
  <span class="approach">D: <select id="rate-D"></select></span>
  <label><input type="checkbox" id="resident"> I live (or have lived)
  in Melbourne</label>
  <input type="text" id="comment" placeholder="comment (optional)">
  <button onclick="submitRating()">Submit Rating</button>
</div>
<script>
const canvas = document.getElementById('map');
const ctx = canvas.getContext('2d');
let net = null, markers = [], lastQuery = null, lastResult = null;
let shownLabel = 'A';
for (const l of ['A','B','C','D']) {
  const sel = document.getElementById('rate-' + l);
  for (let i = 1; i <= 5; i++) {
    const o = document.createElement('option');
    o.value = i; o.textContent = i; sel.appendChild(o);
  }
  sel.value = 3;
}
function project(lat, lon) {
  const b = net.bbox;
  const x = (lon - b.west) / (b.east - b.west) * canvas.width;
  const y = (1 - (lat - b.south) / (b.north - b.south)) * canvas.height;
  return [x, y];
}
function drawBase() {
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  ctx.lineWidth = 1;
  for (const seg of net.segments) {
    ctx.strokeStyle = seg.major ? '#bbb' : '#e3e3e3';
    ctx.beginPath();
    let first = true;
    for (const [lat, lon] of seg.points) {
      const [x, y] = project(lat, lon);
      if (first) { ctx.moveTo(x, y); first = false; }
      else ctx.lineTo(x, y);
    }
    ctx.stroke();
  }
  for (const [i, m] of markers.entries()) {
    const [x, y] = project(m.lat, m.lon);
    ctx.fillStyle = i === 0 ? '#2da44e' : '#cf222e';
    ctx.beginPath(); ctx.arc(x, y, 6, 0, 7); ctx.fill();
  }
}
function drawRoutes(label) {
  drawBase();
  if (!lastResult) return;
  const fc = lastResult.routes[label];
  if (!fc) {  // approach degraded out of this query
    const marker = (lastResult.errors || {})[label] || 'no routes';
    document.getElementById('legend').textContent =
      'Approach ' + label + ': unavailable (' + marker + ')';
    return;
  }
  ctx.lineWidth = 3;
  for (const f of fc.features) {
    ctx.strokeStyle = f.properties.color;
    ctx.beginPath();
    let first = true;
    for (const [lon, lat] of f.geometry.coordinates) {
      const [x, y] = project(lat, lon);
      if (first) { ctx.moveTo(x, y); first = false; }
      else ctx.lineTo(x, y);
    }
    ctx.stroke();
  }
  const times = fc.features.map(f => f.properties.travel_time_min + ' min');
  document.getElementById('legend').textContent =
    'Approach ' + label + ': ' + times.join(', ') +
    ' — press A/B/C/D keys to switch';
}
document.addEventListener('keydown', e => {
  const l = e.key.toUpperCase();
  if (lastResult && ['A','B','C','D'].includes(l)) {
    shownLabel = l; drawRoutes(l);
  }
});
canvas.addEventListener('click', e => {
  if (!net || markers.length >= 2) return;
  const r = canvas.getBoundingClientRect();
  const px = e.clientX - r.left, py = e.clientY - r.top;
  const b = net.bbox;
  const lon = b.west + px / canvas.width * (b.east - b.west);
  const lat = b.south + (1 - py / canvas.height) * (b.north - b.south);
  markers.push({lat, lon});
  drawBase();
});
function resetMarkers() {
  markers = []; lastResult = null;
  document.getElementById('ratings').style.display = 'none';
  document.getElementById('status').textContent = '';
  drawBase();
}
async function submitQuery() {
  if (markers.length !== 2) {
    document.getElementById('status').textContent =
      'pick source and target first'; return;
  }
  document.getElementById('status').textContent = 'computing…';
  const resp = await fetch('/api/route', {
    method: 'POST', headers: {'Content-Type': 'application/json'},
    body: JSON.stringify({
      version: 1,
      source_lat: markers[0].lat, source_lon: markers[0].lon,
      target_lat: markers[1].lat, target_lon: markers[1].lon
    })
  });
  if (!resp.ok) {
    document.getElementById('status').textContent =
      'error: ' + (await resp.json()).error; return;
  }
  lastQuery = {source: markers[0], target: markers[1]};
  lastResult = await resp.json();
  document.getElementById('status').textContent =
    'fastest route: ' + lastResult.fastest_minutes + ' min';
  document.getElementById('ratings').style.display = 'block';
  drawRoutes(shownLabel);
}
async function submitRating() {
  const ratings = {};
  for (const l of ['A','B','C','D'])
    ratings[l] = parseInt(document.getElementById('rate-' + l).value);
  const body = {
    source: lastQuery.source, target: lastQuery.target,
    fastest_minutes: lastResult.fastest_minutes,
    resident: document.getElementById('resident').checked,
    ratings, comment: document.getElementById('comment').value
  };
  const resp = await fetch('/api/feedback', {
    method: 'POST', headers: {'Content-Type': 'application/json'},
    body: JSON.stringify(body)
  });
  document.getElementById('status').textContent =
    resp.ok ? 'thanks — rating stored' : 'rating rejected';
  if (resp.ok) resetMarkers();
}
fetch('/api/network').then(r => r.json()).then(data => {
  net = data; drawBase();
});
</script>
</body>
</html>
"""


class DemoServer:
    """The demo web app, runnable standalone or embedded in tests.

    The demo is a backend of the one asyncio front end
    (:class:`~repro.serving.frontend.ShardFrontend`): it answers the
    front end's ``route`` / ``metrics_payload`` / ``prometheus_payload``
    / ``healthz_payload`` calls through its
    :class:`~repro.serving.RouteService`, and adds the demo's own
    endpoints through :meth:`http_routes`.

    Parameters
    ----------
    processor:
        The configured query processor.
    store:
        Feedback storage; defaults to an in-memory SQLite store.
    host, port:
        Bind address, bound at construction so :attr:`url` is known
        before serving; port 0 lets the OS pick (tests use this).
    service:
        The serving layer to route queries through; defaults to a
        :class:`~repro.serving.RouteService` wrapping ``processor``.
    """

    def __init__(
        self,
        processor: QueryProcessor,
        store: Optional[ResponseStore] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        service: Optional["RouteService"] = None,
    ) -> None:
        if service is None:
            from repro.serving.service import RouteService

            service = RouteService(processor)
        self.processor = processor
        self.service = service
        self.store = store if store is not None else ResponseStore()
        self._network_cache: Optional[Dict] = None
        self._started_monotonic = time.monotonic()
        self._frontend = ShardFrontend(self)
        self.address: Tuple[str, int] = self._frontend.bind(host, port)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """The base URL of the server."""
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Serve in a daemon thread (returns immediately)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._frontend.serve_forever, daemon=True
        )
        self._thread.start()
        logger.info("demo server listening on %s", self.url)

    def stop(self) -> None:
        """Shut the server down and join the thread."""
        if self._thread is None:
            return
        self._frontend.shutdown()
        self._thread.join()
        self._thread = None
        self.service.close()

    def serve_forever(self) -> None:
        """Serve on the calling thread (Ctrl-C to stop)."""
        self._frontend.serve_forever()

    # -- the front end's backend calls ----------------------------------------

    def route(self, request, city: Optional[str] = None) -> Dict:
        """Answer one ``/api/route`` body (``city`` is ignored: one network).

        Served through :meth:`RouteService.answer
        <repro.serving.service.RouteService.answer>`, the same function
        a shard worker runs: cached, concurrently planned, and
        degradation-tolerant — a failed approach appears under
        ``"errors"`` while the others still render.
        """
        out = self.service.answer(request)
        out["city"] = self.processor.network.name
        return out

    def metrics_payload(self) -> Dict:
        """The serving layer's counters, latencies and cache stats."""
        return self.service.metrics_payload()

    def prometheus_payload(self) -> str:
        """:meth:`metrics_payload` in the Prometheus text format."""
        return render_prometheus(self.metrics_payload())

    def count_bad_request(self) -> None:
        """Count a rejected request in the serving metrics."""
        self.service.metrics.inc("http.bad_request")

    def http_routes(self) -> Dict[Tuple[str, str], Callable]:
        """The demo's endpoints beyond the front end's shared ones."""

        def page(_request: Request) -> Reply:
            return Reply(200, _PAGE, "text/html; charset=utf-8")

        return {
            ("GET", "/"): page,
            ("GET", "/index.html"): page,
            ("GET", "/api/network"): lambda _r: self.network_payload(),
            ("GET", "/api/stats"): lambda _r: self.stats_payload(),
            ("GET", "/api/table"): lambda _r: self.table_payload(),
            ("GET", "/api/isochrone"): self.isochrone_payload,
            ("GET", "/trace"): self.trace_payload,
            ("GET", "/debug/profile"): (
                lambda _r: self.service.profile_payload()
            ),
            ("POST", "/api/feedback"): (
                lambda request: self.handle_feedback(request.json())
            ),
        }

    # -- handlers ------------------------------------------------------------

    def network_payload(self) -> Dict:
        """Base-map geometry: bbox plus per-edge segments."""
        if self._network_cache is not None:
            return self._network_cache
        network = self.processor.network
        bbox = network.bounding_box()
        segments = []
        seen_pairs = set()
        for edge in network.edges():
            pair = (min(edge.u, edge.v), max(edge.u, edge.v))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            u = network.node(edge.u)
            v = network.node(edge.v)
            segments.append(
                {
                    "points": [[u.lat, u.lon], [v.lat, v.lon]],
                    "major": edge.highway
                    in ("motorway", "trunk", "primary"),
                }
            )
        self._network_cache = {
            "bbox": {
                "south": bbox.south,
                "west": bbox.west,
                "north": bbox.north,
                "east": bbox.east,
            },
            "segments": segments,
            "name": network.name,
        }
        return self._network_cache

    def isochrone_payload(self, request: Request) -> Dict:
        """Reachability within a time budget, as a convex outline.

        Query string: ``/api/isochrone?lat=..&lon=..&minutes=..``.
        Raises :class:`~repro.exceptions.QueryError` for out-of-area
        points or bad budgets (mapped to HTTP 400).
        """
        from repro.algorithms.isochrone import isochrone

        try:
            lat = float(request.param("lat"))
            lon = float(request.param("lon"))
            minutes = float(request.param("minutes", "10"))
        except (TypeError, ValueError) as exc:
            raise QueryError(f"bad isochrone query: {exc}") from exc
        source = self.processor.match_vertex(lat, lon)
        iso = isochrone(
            self.processor.network, source, minutes * 60.0
        )
        return {
            "source_node": source,
            "minutes": minutes,
            "reachable_nodes": iso.num_reachable,
            "coverage": round(iso.coverage_fraction(), 4),
            "outline": [
                [lat_, lon_] for lat_, lon_ in iso.outline()
            ],
        }

    def healthz_payload(self) -> Dict:
        """Liveness and readiness summary for ``/healthz``.

        Reports ``"degraded"`` instead of ``"ok"`` while any planner's
        circuit breaker is open or half-open — or, when live traffic is
        wired, while the traffic-feed breaker is open (repeated
        quarantined batches): serving stays up on the last good weight
        epoch, and ``traffic.weights_stale_seconds`` says how old that
        epoch is.  The ``network`` section doubles as loaded-snapshot
        metadata: which accelerator structures (ALT landmarks,
        contraction hierarchy) ride on the network's CSR view and are
        servable right now.
        """
        from repro.graph.csr import ensure_csr

        network = self.processor.network
        open_circuits = self.service.open_circuits()
        csr = ensure_csr(network)
        uptime = round(time.monotonic() - self._started_monotonic, 3)
        live = getattr(self.service, "live", None)
        traffic = live.stats_payload() if live is not None else None
        degraded = bool(open_circuits) or bool(
            traffic is not None and traffic.get("degraded")
        )
        payload = {
            "status": "degraded" if degraded else "ok",
            "network": {
                "name": network.name,
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "landmarks": (
                    len(csr.landmarks.landmarks)
                    if csr.landmarks is not None
                    else 0
                ),
                "ch_attached": csr.hierarchy is not None,
            },
            "planners": len(self.processor.planners),
            "cache_size": len(self.service.cache),
            "circuits": self.service.circuits_payload(),
            "open_circuits": open_circuits,
            # uptime_s predates uptime_seconds; both stay so existing
            # probes keep parsing.
            "uptime_s": uptime,
            "uptime_seconds": uptime,
            "rss_bytes": _process_rss_bytes(),
        }
        if traffic is not None:
            payload["traffic"] = traffic
            payload["weights_stale_seconds"] = traffic[
                "weights_stale_seconds"
            ]
        return payload

    def trace_payload(self, request: Request) -> Dict:
        """Recently finished traces for ``/trace`` (``?limit=N``)."""
        limit: Optional[int] = None
        if request.param("limit") is not None:
            try:
                limit = int(request.param("limit"))
            except ValueError as exc:
                raise QueryError(f"bad trace limit: {exc}") from exc
            if limit < 0:
                raise QueryError("trace limit must be >= 0")
        return self.service.traces_payload(limit)

    def handle_feedback(self, payload: Dict) -> Dict:
        """Validate and store a rating-form submission."""
        try:
            record = FeedbackRecord(
                source_lat=float(payload["source"]["lat"]),
                source_lon=float(payload["source"]["lon"]),
                target_lat=float(payload["target"]["lat"]),
                target_lon=float(payload["target"]["lon"]),
                fastest_minutes=float(payload["fastest_minutes"]),
                resident=bool(payload.get("resident", False)),
                ratings={
                    str(label): int(value)
                    for label, value in payload["ratings"].items()
                },
                comment=str(payload.get("comment", ""))[:2000],
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"bad feedback payload: {exc!r}") from exc
        row_id = self.store.save(record)
        return {"stored": True, "id": row_id}

    def stats_payload(self) -> Dict:
        """Counts and (when present) mean ratings per blinded label."""
        total = self.store.count()
        payload: Dict = {
            "responses": total,
            "residents": self.store.count(resident=True),
            "non_residents": self.store.count(resident=False),
        }
        if total:
            payload["mean_ratings"] = self.store.mean_ratings()
        return payload

    def table_payload(self) -> Dict:
        """The paper's rating-table layout over the *stored* responses.

        Rows for all respondents, residents and non-residents; each
        cell is ``{mean, std, count}`` per blinded label — the live
        equivalent of Table 1's first three rows, computed from SQL
        data so the demo closes the same loop the paper's study did.
        """
        from repro.stats import summarize

        rows: Dict[str, Dict] = {}
        for row_label, resident in (
            ("overall", None),
            ("residents", True),
            ("non_residents", False),
        ):
            cells: Dict[str, Dict] = {}
            for label in ("A", "B", "C", "D"):
                ratings = [
                    float(r)
                    for r in self.store.ratings_by_label(
                        label, resident=resident
                    )
                ]
                if not ratings:
                    continue
                summary = summarize(ratings)
                cells[label] = {
                    "mean": round(summary.mean, 3),
                    "std": round(summary.std, 3),
                    "count": summary.count,
                }
            if cells:
                rows[row_label] = cells
        return {"rows": rows}
