package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hbmrd/internal/serve"
	"hbmrd/internal/store"
)

// Headers that carry a traced op's identity across an HTTP hop, so the
// daemon-side span nests under the client-side one. Only the
// benchmark's own wrappers read them.
const (
	hdrTrace = "X-Perfbench-Trace"
	hdrSpan  = "X-Perfbench-Span"
)

// daemon is one in-process hbmrdd: a serve.Server behind a loopback
// http.Server set up the way cmd/hbmrdd sets it up.
type daemon struct {
	st    *store.Store
	srv   *serve.Server
	hs    *http.Server
	url   string
	stats *routeStats
	done  chan struct{}
}

// startDaemon runs a daemon on its own store under dir, with hbmrdd's
// defaults (1 sweep worker, engine jobs = GOMAXPROCS) and the given
// Distribute hook (nil for a plain daemon or worker).
func startDaemon(dir string, rec *Recorder, distribute func(context.Context, *serve.Sweep, string) error) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Log: discardLog, Distribute: distribute})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{st: st, srv: srv, url: "http://" + ln.Addr().String(), stats: newRouteStats(), done: make(chan struct{})}
	d.hs = &http.Server{
		Handler:           wrapHandler(srv.Handler(), rec, d.stats),
		ReadHeaderTimeout: 30 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener and every connection, waits for the serve
// loop to return, then drains the sweep workers.
func (d *daemon) stop() {
	_ = d.hs.Close()
	<-d.done
	d.srv.Drain()
}

// routeStats counts failed requests per route, plus the submit outcomes
// that show dedup: 200 "cached" against 202 "queued".
type routeStats struct {
	mu        sync.Mutex
	failed    map[string]int
	submitHit int
	submitNew int
}

func newRouteStats() *routeStats {
	return &routeStats{failed: map[string]int{}}
}

// reset forgets everything counted so far (the set-up's requests).
func (s *routeStats) reset() {
	s.mu.Lock()
	s.failed = map[string]int{}
	s.submitHit, s.submitNew = 0, 0
	s.mu.Unlock()
}

// routeOf names a request's route the way serve's own metrics do.
func routeOf(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/sweeps":
		return "sweeps"
	case strings.HasPrefix(p, "/sweeps/"):
		return "sweeps_fp"
	default:
		return strings.TrimPrefix(p, "/")
	}
}

// statusWriter records the response code and keeps http.Flusher, which
// the live NDJSON tail needs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrapHandler counts failed requests by route and submit outcomes and, for traced
// requests, records a serve.<route> span under the caller's span.
func wrapHandler(h http.Handler, rec *Recorder, stats *routeStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		var span *Active
		if tr := r.Header.Get(hdrTrace); tr != "" && rec != nil {
			parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
			span = rec.StartRemote(tr, parent, "serve."+route)
		}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		span.End("code", sw.code)
		stats.mu.Lock()
		if sw.code >= 400 {
			stats.failed[route]++
		}
		if route == "sweeps" && r.Method == http.MethodPost {
			switch sw.code {
			case http.StatusOK:
				stats.submitHit++
			case http.StatusAccepted:
				stats.submitNew++
			}
		}
		stats.mu.Unlock()
	})
}

// client is one load-generator stream: an http.Client limited to conns
// connections to one daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one finished request.
type reply struct {
	code      int
	header    http.Header
	body      []byte
	firstByte time.Time // when the first body byte arrived
}

// do sends one request under parent (a nil parent sends it untraced)
// and reads the body to EOF.
func (c *client) do(parent *Active, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	name := "http." + routeOf(req)
	span := parent.Child(name)
	if span != nil {
		req.Header.Set(hdrTrace, span.Trace())
		req.Header.Set(hdrSpan, strconv.FormatInt(span.ID(), 10))
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		span.End("err", err.Error())
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{code: resp.StatusCode, header: resp.Header}
	var buf bytes.Buffer
	chunk := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			if rep.firstByte.IsZero() {
				rep.firstByte = time.Now()
			}
			buf.Write(chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			span.End("err", rerr.Error())
			return reply{}, rerr
		}
	}
	rep.body = buf.Bytes()
	span.End("code", rep.code, "bytes", len(rep.body))
	return rep, nil
}

// fabricTransport counts the coordinator's requests to its workers by
// kind, and the shard submissions that were retries. Counting on the
// client transport keeps the numbers independent of how the coordinator
// paces or structures those requests.
type fabricTransport struct {
	base http.RoundTripper

	mu      sync.Mutex
	kinds   map[string]int
	bodies  map[string]bool // distinct shard specs submitted
	submits int
	parent  *Active // the traced distribute span in progress, if any
}

func newFabricTransport() *fabricTransport {
	return &fabricTransport{base: http.DefaultTransport.(*http.Transport).Clone(),
		kinds: map[string]int{}, bodies: map[string]bool{}}
}

// requestKind names a coordinator request: submit, status, stream or
// healthz.
func requestKind(r *http.Request) string {
	switch p := r.URL.Path; {
	case r.Method == http.MethodPost && p == "/sweeps":
		return "submit"
	case strings.HasSuffix(p, "/status"):
		return "status"
	case strings.HasPrefix(p, "/sweeps/"):
		return "stream"
	case p == "/healthz":
		return "healthz"
	default:
		return "other"
	}
}

func (t *fabricTransport) setParent(a *Active) {
	t.mu.Lock()
	t.parent = a
	t.mu.Unlock()
}

func (t *fabricTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := requestKind(r)
	t.mu.Lock()
	t.kinds[kind]++
	parent := t.parent
	if kind == "submit" && r.GetBody != nil {
		if b, err := r.GetBody(); err == nil {
			spec, _ := io.ReadAll(b)
			t.submits++
			t.bodies[string(spec)] = true
		}
	}
	t.mu.Unlock()
	span := parent.Child("fabric." + kind)
	if span != nil {
		r = r.Clone(r.Context())
		r.Header.Set(hdrTrace, span.Trace())
		r.Header.Set(hdrSpan, strconv.FormatInt(span.ID(), 10))
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		span.End("err", err.Error())
		return nil, err
	}
	if span != nil {
		resp.Body = &spanBody{ReadCloser: resp.Body, span: span, code: resp.StatusCode}
	}
	return resp, nil
}

// spanBody ends a request's span when the caller closes the body, so a
// stream fetch's span covers reading it.
type spanBody struct {
	io.ReadCloser
	span *Active
	code int
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.span.End("code", b.code) })
	return err
}

// reset forgets the set-up's requests.
func (t *fabricTransport) reset() {
	t.mu.Lock()
	t.kinds, t.bodies, t.submits = map[string]int{}, map[string]bool{}, 0
	t.mu.Unlock()
}

// counts returns the request counts by kind, the distinct shards
// submitted, and how many submissions were retries.
func (t *fabricTransport) counts() (map[string]int, int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := make(map[string]int, len(t.kinds))
	for k, v := range t.kinds {
		kinds[k] = v
	}
	return kinds, len(t.bodies), t.submits - len(t.bodies)
}

// expectCode turns an unexpected status into an error.
func expectCode(rep reply, codes ...int) error {
	for _, c := range codes {
		if rep.code == c {
			return nil
		}
	}
	return fmt.Errorf("status %d: %s", rep.code, bytes.TrimSpace(rep.body))
}
