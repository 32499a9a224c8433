package metrics

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"dynunlock/internal/svgchart"
)

// serveLive serves the self-contained live dashboard: a single HTML page
// (no external references) that subscribes to /events with EventSource
// and redraws the run's convergence curve, per-DIP solve-time timeline,
// and conflict/propagation rates in place as events arrive. The charts
// reproduce internal/report's inline-SVG visual language — same
// geometry, palette, and CSS, via internal/svgchart — so a live run
// looks like its eventual `runs report` page.
func (s *Server) serveLive(w http.ResponseWriter, _ *http.Request) {
	if s.bus == nil {
		http.Error(w, "metrics: no event stream attached (started without ServeBus)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(livePage()))
}

var (
	livePageOnce sync.Once
	livePageHTML string
)

// livePage assembles the dashboard once: the svgchart CSS and geometry
// are spliced in from the shared chart package, and each chart container
// starts as a server-rendered empty chart so the page has the final
// layout before the first event lands.
func livePage() string {
	livePageOnce.Do(func() {
		geom, _ := json.Marshal(map[string]any{
			"w":       svgchart.Width,
			"h":       svgchart.Height,
			"ml":      svgchart.MarginLeft,
			"mr":      svgchart.MarginRight,
			"mt":      svgchart.MarginTop,
			"mb":      svgchart.MarginBottom,
			"palette": svgchart.Palette,
		})
		empty := func(caption, x, y string) string {
			return svgchart.LineChart(caption, x, y, nil)
		}
		r := strings.NewReplacer(
			"/*CSS*/", svgchart.CSS,
			"/*GEOM*/", string(geom),
			"<!--CONVERGENCE-->", empty("Seed-space convergence", "DIP iteration", "bits / rank"),
			"<!--SOLVETIME-->", empty("Per-DIP solve time", "DIP iteration", "solve ms"),
			"<!--RATES-->", empty("Solver rates", "seconds", "events/s"),
		)
		livePageHTML = r.Replace(liveTemplate)
	})
	return livePageHTML
}

// liveTemplate is the page skeleton. The script avoids backquotes and
// keeps to baseline JS so the raw-string literal stays readable; all
// dynamic markup goes through textContent or numeric interpolation, and
// series names come from the event schema, so no event data is ever
// injected as HTML.
const liveTemplate = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>DynUnlock live attack</title>
<style>
body{font-family:system-ui,sans-serif;margin:2em auto;max-width:72em;padding:0 1em;color:#1a1a1a}
h1{font-size:1.5em}
figure.chart{margin:.8em 0;display:inline-block}
figcaption{font-size:.85em;font-weight:600;margin-bottom:.2em}
/*CSS*/
.tiles{display:flex;flex-wrap:wrap;gap:.6em;margin:.8em 0}
.tile{border:1px solid #ccc;border-radius:4px;padding:.4em .8em;min-width:7.5em;background:#fafafa}
.tile b{display:block;font-size:1.15em}
.tile span{font-size:.75em;color:#666}
#status{font-size:.9em;color:#666}
#status.done{color:#2ca02c;font-weight:600}
#status.err{color:#d62728;font-weight:600}
.note{color:#777;font-size:.85em}
</style>
</head>
<body>
<h1>DynUnlock live attack</h1>
<p id="status">connecting to /events&hellip;</p>
<div class="tiles">
<div class="tile"><b id="t-iters">-</b><span>DIP iterations</span></div>
<div class="tile"><b id="t-conf">-</b><span>conflicts</span></div>
<div class="tile"><b id="t-confrate">-</b><span>conflicts/s</span></div>
<div class="tile"><b id="t-proprate">-</b><span>propagations/s</span></div>
<div class="tile"><b id="t-rank">-</b><span>rank / target</span></div>
<div class="tile"><b id="t-seeds">-</b><span>seeds remaining</span></div>
<div class="tile"><b id="t-eta">-</b><span>ETA</span></div>
<div class="tile"><b id="t-enc">-</b><span>encode vars / clauses</span></div>
<div class="tile"><b id="t-difficulty">-</b><span>DIP difficulty</span></div>
<div class="tile"><b id="t-lbd">-</b><span>mean LBD / restarts</span></div>
<div class="tile"><b id="t-xor">-</b><span>XOR prop share</span></div>
<div class="tile"><b id="t-drop">0</b><span>events dropped</span></div>
</div>
<div id="chart-convergence"><!--CONVERGENCE--></div>
<div id="chart-solvetime"><!--SOLVETIME--></div>
<div id="chart-rates"><!--RATES--></div>
<p class="note">Streaming from <a href="/events">/events</a>; scrape endpoints stay at
<a href="/metrics">/metrics</a> and <a href="/debug/vars">/debug/vars</a>.
Charts share internal/report's renderer, so this page previews the eventual run report.</p>
<script>
"use strict";
var G = /*GEOM*/;
var SVGNS = "http://www.w3.org/2000/svg";

function el(tag, attrs) {
  var e = document.createElementNS(SVGNS, tag);
  for (var k in attrs) e.setAttribute(k, attrs[k]);
  return e;
}
function ticks(lo, hi, n) {
  if (hi <= lo) hi = lo + 1;
  var step = (hi - lo) / n, out = [];
  for (var i = 0; i <= n; i++) out.push(lo + step * i);
  return out;
}
function fmtTick(v) {
  var s = v.toFixed(2).replace(/0+$/, "").replace(/\.$/, "");
  return s === "" ? "0" : s;
}
function fmtCount(v) {
  if (v >= 1e9) return (v / 1e9).toFixed(1) + "G";
  if (v >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (v >= 1e3) return (v / 1e3).toFixed(1) + "k";
  return Math.round(v).toString();
}

// drawChart mirrors svgchart.LineChart: same geometry, palette, and
// class names, so the live charts render exactly like the static report.
function drawChart(holderId, caption, xLabel, yLabel, series) {
  var pts = 0, first = true, xmin = 0, xmax = 1, ymin = 0, ymax = 1;
  series.forEach(function (s) {
    for (var i = 0; i < s.x.length; i++) {
      if (first) { xmin = xmax = s.x[i]; ymin = ymax = s.y[i]; first = false; }
      xmin = Math.min(xmin, s.x[i]); xmax = Math.max(xmax, s.x[i]);
      ymin = Math.min(ymin, s.y[i]); ymax = Math.max(ymax, s.y[i]);
      pts++;
    }
  });
  var fig = document.createElement("figure");
  fig.className = "chart";
  var cap = document.createElement("figcaption");
  cap.textContent = caption;
  fig.appendChild(cap);
  var svg = el("svg", { width: G.w, height: G.h, viewBox: "0 0 " + G.w + " " + G.h, role: "img" });
  fig.appendChild(svg);
  if (pts === 0) {
    var t = el("text", { x: G.w / 2, y: G.h / 2, "class": "empty" });
    t.textContent = "no data";
    svg.appendChild(t);
  } else {
    if (ymin > 0) ymin = 0;
    if (ymax === ymin) ymax = ymin + 1;
    if (xmax === xmin) xmax = xmin + 1;
    var plotW = G.w - G.ml - G.mr, plotH = G.h - G.mt - G.mb;
    var px = function (x) { return G.ml + (x - xmin) / (xmax - xmin) * plotW; };
    var py = function (y) { return G.mt + (1 - (y - ymin) / (ymax - ymin)) * plotH; };
    ticks(ymin, ymax, 4).forEach(function (ty) {
      var y = py(ty);
      svg.appendChild(el("line", { "class": "grid", x1: G.ml, y1: y, x2: G.w - G.mr, y2: y }));
      var lbl = el("text", { "class": "tick", x: G.ml - 5, y: y + 3.5, "text-anchor": "end" });
      lbl.textContent = fmtTick(ty);
      svg.appendChild(lbl);
    });
    ticks(xmin, xmax, 6).forEach(function (tx) {
      var lbl = el("text", { "class": "tick", x: px(tx), y: G.h - G.mb + 14, "text-anchor": "middle" });
      lbl.textContent = fmtTick(tx);
      svg.appendChild(lbl);
    });
    svg.appendChild(el("line", { "class": "axis", x1: G.ml, y1: G.mt, x2: G.ml, y2: G.h - G.mb }));
    svg.appendChild(el("line", { "class": "axis", x1: G.ml, y1: G.h - G.mb, x2: G.w - G.mr, y2: G.h - G.mb }));
    var xl = el("text", { "class": "label", x: G.ml + plotW / 2, y: G.h - 4, "text-anchor": "middle" });
    xl.textContent = xLabel;
    svg.appendChild(xl);
    var ymid = G.mt + plotH / 2;
    var yl = el("text", { "class": "label", x: 12, y: ymid, "text-anchor": "middle", transform: "rotate(-90 12 " + ymid + ")" });
    yl.textContent = yLabel;
    svg.appendChild(yl);
    series.forEach(function (s, si) {
      var color = G.palette[si % G.palette.length];
      if (s.x.length === 1) {
        svg.appendChild(el("circle", { cx: px(s.x[0]), cy: py(s.y[0]), r: 2.5, fill: color }));
        return;
      }
      var coords = [];
      for (var i = 0; i < s.x.length; i++) coords.push(px(s.x[i]).toFixed(2) + "," + py(s.y[i]).toFixed(2));
      var attrs = { "class": "line", points: coords.join(" "), stroke: color };
      if (s.dashed) attrs["stroke-dasharray"] = "5 3";
      svg.appendChild(el("polyline", attrs));
    });
    var lx = G.ml;
    series.forEach(function (s, si) {
      var color = G.palette[si % G.palette.length];
      svg.appendChild(el("line", { x1: lx, y1: G.mt - 14, x2: lx + 14, y2: G.mt - 14, stroke: color, "stroke-width": 2 }));
      var lbl = el("text", { "class": "tick", x: lx + 18, y: G.mt - 10 });
      lbl.textContent = s.name;
      svg.appendChild(lbl);
      lx += 22 + 7 * s.name.length;
    });
  }
  var holder = document.getElementById(holderId);
  holder.replaceChildren(fig);
}

function sumFamily(data, name) {
  var sum = 0, found = false;
  for (var k in data) {
    if (k === name || k.indexOf(name + "{") === 0) {
      var v = data[k];
      if (typeof v === "number") { sum += v; found = true; }
    }
  }
  return found ? sum : null;
}
function setTile(id, text) { document.getElementById(id).textContent = text; }

var conv = { dips: [], rank: [], target: [], seeds: [] };
var solve = { x: [], ms: [], n: 0 };
var rates = { t: [], conf: [], prop: [], t0: null };
var dropped = 0;

function redraw() {
  var cs = [];
  if (conv.dips.length) {
    cs.push({ name: "rank", x: conv.dips, y: conv.rank });
    cs.push({ name: "rank target", x: conv.dips, y: conv.target, dashed: true });
    cs.push({ name: "seeds log2", x: conv.dips, y: conv.seeds });
  }
  drawChart("chart-convergence", "Seed-space convergence", "DIP iteration", "bits / rank", cs);
  var ss = solve.x.length ? [{ name: "solve ms", x: solve.x, y: solve.ms }] : [];
  drawChart("chart-solvetime", "Per-DIP solve time", "DIP iteration", "solve ms", ss);
  var rs = [];
  if (rates.t.length) {
    rs.push({ name: "conflicts/s", x: rates.t, y: rates.conf });
    rs.push({ name: "propagations/s", x: rates.t, y: rates.prop });
  }
  drawChart("chart-rates", "Solver rates", "seconds", "events/s", rs);
}

function applySnapshot(data) {
  var iters = sumFamily(data, "dynunlock_attack_dips_total");
  if (iters !== null) setTile("t-iters", fmtCount(iters));
  var conf = sumFamily(data, "dynunlock_sat_conflicts_total");
  if (conf !== null) setTile("t-conf", fmtCount(conf));
  var ev = sumFamily(data, "dynunlock_encode_vars_total");
  var ec = sumFamily(data, "dynunlock_encode_clauses_total");
  if (ev !== null || ec !== null) setTile("t-enc", fmtCount(ev || 0) + " / " + fmtCount(ec || 0));
}

function applyDelta(d) {
  if (d.iterations !== undefined) setTile("t-iters", fmtCount(d.iterations));
  if (d.conflicts !== undefined) setTile("t-conf", fmtCount(d.conflicts));
  if (d.conflicts_per_s !== undefined) setTile("t-confrate", fmtCount(d.conflicts_per_s));
  if (d.props_per_s !== undefined) setTile("t-proprate", fmtCount(d.props_per_s));
  if (d.rank !== undefined) setTile("t-rank", d.rank + " / " + (d.rank_target || "?"));
  if (d.seeds_log2 !== undefined) setTile("t-seeds", "2^" + d.seeds_log2);
  if (d.eta_s !== undefined) setTile("t-eta", Math.round(d.eta_s) + "s");
  if (d.encode_vars !== undefined || d.encode_clauses !== undefined)
    setTile("t-enc", fmtCount(d.encode_vars || 0) + " / " + fmtCount(d.encode_clauses || 0));
  var now = Date.now() / 1000;
  if (rates.t0 === null) rates.t0 = now;
  rates.t.push(now - rates.t0);
  rates.conf.push(d.conflicts_per_s || 0);
  rates.prop.push(d.props_per_s || 0);
}

// applyDIP renders one DIP iteration: its solve time on the timeline,
// the search anatomy at that boundary (difficulty, sampled mean
// learnt-clause LBD with the trial's restart count, XOR-layer propagation
// share; see internal/anatomy) and, when the insight tracker runs, the
// seed-space convergence point.
function applyDIP(d) {
  solve.n++;
  solve.x.push(solve.n);
  solve.ms.push(d.solve_ms || 0);
  if (d.iteration !== undefined) setTile("t-iters", fmtCount(d.iteration));
  if (d.difficulty !== undefined) setTile("t-difficulty", fmtCount(d.difficulty));
  if (d.lbd_mean !== undefined)
    setTile("t-lbd", d.lbd_mean.toFixed(1) + " / " + fmtCount(d.restarts || 0));
  if (d.xor_share !== undefined) setTile("t-xor", (d.xor_share * 100).toFixed(1) + "%");
  if (d.rank === undefined) return;
  conv.dips.push(d.iteration !== undefined ? d.iteration : conv.dips.length + 1);
  conv.rank.push(d.rank);
  conv.target.push(d.rank_target !== undefined ? d.rank_target : d.rank);
  conv.seeds.push(d.seeds_log2 !== undefined ? d.seeds_log2 : 0);
  setTile("t-rank", d.rank + " / " + (d.rank_target !== undefined ? d.rank_target : "?"));
  if (d.seeds_log2 !== undefined) setTile("t-seeds", "2^" + d.seeds_log2);
  if (d.eta_ms !== undefined) setTile("t-eta", Math.round(d.eta_ms / 1000) + "s");
}

var status = document.getElementById("status");
// /live?job=<id> scopes the dashboard to one daemon job by passing the
// query through to the SSE endpoint's ?job= filter.
var es = new EventSource("/events" + location.search);
var pending = false;
function scheduleRedraw() {
  if (pending) return;
  pending = true;
  window.requestAnimationFrame(function () { pending = false; redraw(); });
}
function on(type, fn) {
  es.addEventListener(type, function (msg) {
    var ev;
    try { ev = JSON.parse(msg.data); } catch (e) { return; }
    fn(ev.data || {});
    scheduleRedraw();
  });
}
on("hello", function (d) {
  status.textContent = "live - streaming (proto " + d.proto + ", seq " + d.last_seq + (d.gap ? ", resume gap" : "") + ")";
});
on("snapshot", applySnapshot);
on("delta", applyDelta);
on("dip", applyDIP);
on("span", function () {});
on("result", function (d) {
  if (d.scope === "experiment") {
    status.textContent = "finished: " + (d.succeeded ? "key recovered" : "not broken") +
      (d.stop_reason ? " (stopped: " + d.stop_reason + ")" : "");
    status.className = "done";
    es.close();
  }
});
es.onerror = function () {
  if (status.className !== "done") {
    status.textContent = "stream disconnected (run over or server gone); refresh to reconnect";
    status.className = "err";
  }
};
</script>
</body>
</html>
`
