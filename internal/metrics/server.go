package metrics

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"dynunlock/internal/stream"
)

// Server exposes a registry over HTTP on its own mux (never the default
// mux, so tests and embedding processes can run several servers):
//
//	/metrics       Prometheus text exposition (PrometheusHandler)
//	/debug/pprof/  the standard net/http/pprof profile endpoints
//	/events        live SSE event feed (with a bus; see sse.go)
//
// Each scrape of /metrics first refreshes the process gauges (RSS, heap,
// goroutines) so they are sampled lazily instead of by a background
// poller.
type Server struct {
	reg   *Registry
	bus   *stream.Bus
	ln    net.Listener
	srv   *http.Server
	mux   *http.ServeMux
	start time.Time
	// handlerDelay, when non-zero, sleeps each request handler before it
	// writes — a test hook for exercising Shutdown's in-flight draining.
	handlerDelay time.Duration
	// keepAlive is the idle interval between SSE keep-alive comments
	// (defaultKeepAlive when zero); tests shrink it.
	keepAlive time.Duration

	// SSE subscribers live here so Shutdown can flush and close them: the
	// http.Server drain alone would wait forever on an open event stream.
	sseMu    sync.Mutex
	sseSubs  map[*stream.Subscriber]struct{}
	draining bool
}

// ServeBus starts an HTTP server on addr (e.g. ":9090", "127.0.0.1:0") and
// returns once the listener is bound; requests are served on a background
// goroutine until Close. /events streams the bus over SSE (with
// Last-Event-ID resume); with a nil bus it responds 404.
func ServeBus(addr string, r *Registry, bus *stream.Bus) (*Server, error) {
	if r == nil {
		return nil, fmt.Errorf("metrics: nil registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s := &Server{reg: r, bus: bus, ln: ln, start: time.Now(), sseSubs: make(map[*stream.Subscriber]struct{})}

	mux := http.NewServeMux()
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if s.handlerDelay > 0 {
			time.Sleep(s.handlerDelay)
		}
		s.refreshProcessGauges()
		PrometheusHandler(r).ServeHTTP(w, req)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/events", s.serveEvents)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/readyz", s.serveReadyz)

	s.mux = mux
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Handle registers an additional handler on the server's mux —
// embedding services (dynunlockd's /jobs API) extend the telemetry
// server instead of binding a second port. Registering a pattern the
// server already serves panics, like http.ServeMux.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// serveHealthz is process liveness: 200 as long as the server answers.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", time.Since(s.start).Round(time.Second))
}

// serveReadyz is admission readiness: 503 once draining has begun (the
// SIGTERM window in which load balancers must stop routing new work),
// 200 otherwise. Embedding daemons layer their own readiness on top via
// SetNotReady-style wrappers if needed; the drain flag is the built-in
// signal.
func (s *Server) serveReadyz(w http.ResponseWriter, _ *http.Request) {
	s.sseMu.Lock()
	draining := s.draining
	s.sseMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// SetDraining marks the server not-ready ahead of Shutdown: /readyz
// flips to 503 and new /events subscriptions are refused, while already
// attached SSE streams keep flowing until Shutdown flushes and closes
// them. Embedding daemons call this at the top of their drain sequence
// so load balancers stop routing work before in-flight jobs finish.
func (s *Server) SetDraining() {
	s.sseMu.Lock()
	s.draining = true
	s.sseMu.Unlock()
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately, aborting in-flight scrapes
// and event streams. Prefer Shutdown on clean exits so a scrape racing
// process exit still gets its response.
func (s *Server) Close() error {
	s.closeSSESubscribers()
	return s.srv.Close()
}

// Shutdown drains the server gracefully: active SSE subscribers are
// flushed and closed (each stream delivers its buffered events plus one
// final snapshot frame before ending — see serveEvents), the listener
// stops accepting new connections, and in-flight requests get up to
// timeout to complete before the remaining connections are closed. A
// non-positive timeout means immediate Close. Returns nil when every
// request drained in time; context.DeadlineExceeded when the timeout cut
// connections off.
func (s *Server) Shutdown(timeout time.Duration) error {
	if timeout <= 0 {
		return s.Close()
	}
	// An open event stream never finishes on its own, so the plain
	// http.Server drain would always hit the timeout with a subscriber
	// attached; closing the subscribers first lets their handlers finish
	// cleanly inside the drain window.
	s.closeSSESubscribers()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Shutdown leaves the hung connections open; close them so the
		// process can exit.
		s.srv.Close()
	}
	return err
}

// closeSSESubscribers detaches every live SSE subscriber and marks the
// server draining so new /events connections are refused.
func (s *Server) closeSSESubscribers() {
	s.sseMu.Lock()
	s.draining = true
	subs := make([]*stream.Subscriber, 0, len(s.sseSubs))
	for sub := range s.sseSubs {
		subs = append(subs, sub)
	}
	s.sseMu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// trackSSE registers a live subscriber for drain; it reports false (and
// the caller refuses the connection) once draining has begun.
func (s *Server) trackSSE(sub *stream.Subscriber) bool {
	s.sseMu.Lock()
	defer s.sseMu.Unlock()
	if s.draining {
		return false
	}
	s.sseSubs[sub] = struct{}{}
	return true
}

func (s *Server) untrackSSE(sub *stream.Subscriber) {
	s.sseMu.Lock()
	delete(s.sseSubs, sub)
	s.sseMu.Unlock()
}

// refreshProcessGauges samples process-level runtime state into the
// registry so scrapes always carry fresh values.
func (s *Server) refreshProcessGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge(MetricProcessHeap).Set(float64(ms.HeapAlloc))
	s.reg.Gauge(MetricGoroutines).Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge(MetricGoroutinesBare).Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge(MetricProcessUptime).Set(time.Since(s.start).Seconds())
	if rss, ok := ReadRSS(); ok {
		s.reg.Gauge(MetricProcessRSS).Set(float64(rss))
	}
}
