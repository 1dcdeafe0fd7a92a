package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/query"
	"hbmrd/internal/store"
	"hbmrd/internal/telemetry"
)

// Job states, as reported by the status endpoint.
const (
	StatusQueued        = "queued"
	StatusRunning       = "running"
	StatusDone          = "done"
	StatusFailed        = "failed"
	StatusCheckpointed  = "checkpointed"
	statusQueueCapacity = 256
)

// job is one enqueued sweep execution. A fingerprint has at most one live
// job; repeated submissions of the same spec attach to it (or to the
// store, once finished).
type job struct {
	sweep *Sweep

	mu     sync.Mutex
	status string
	errMsg string
	// done is closed when the job reaches a terminal state for this
	// enqueue (done, failed, or checkpointed).
	done chan struct{}
	// positioned is closed once a run has cut the spool back to its valid
	// checkpoint prefix (or emptied it), so a live tail never streams the
	// torn tail a crash left there.
	positioned     chan struct{}
	positionedOnce sync.Once
}

func (j *job) state() (string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.errMsg
}

func (j *job) setState(status, errMsg string) {
	j.mu.Lock()
	j.status, j.errMsg = status, errMsg
	j.mu.Unlock()
}

// Server executes submitted sweeps on a bounded worker pool, spools their
// records to disk as they stream, finalizes finished spools into the
// content-addressed store, and serves results - finished or in flight -
// as NDJSON.
type Server struct {
	store      *store.Store
	queries    *query.Engine
	spoolDir   string
	workers    int
	jobsOpt    int
	log        *telemetry.Logger
	pprof      bool
	distribute func(ctx context.Context, sw *Sweep, spool string) error

	queue chan *job

	mu   sync.Mutex
	jobs map[string]*job
	// draining is set under mu before Drain closes queue, so no submit
	// sends on the closed channel.
	draining bool

	runCtx context.Context
	drain  context.CancelFunc
	wg     sync.WaitGroup
}

// Config parameterizes a Server.
type Config struct {
	// Store is the result store (required).
	Store *store.Store
	// Workers bounds concurrently executing sweeps (default 1).
	Workers int
	// Jobs is the per-sweep engine worker bound (core.WithJobs; default
	// GOMAXPROCS).
	Jobs int
	// Log receives service log lines (default: log.Printf wrapped as a
	// telemetry.Logger; wrap any printf-shaped sink with
	// telemetry.NewLogger).
	Log *telemetry.Logger
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/ on the
	// service handler (hbmrdd -pprof). Off by default: profiling
	// endpoints expose internals and cost CPU when scraped.
	Pprof bool
	// Distribute, when set, is offered every shardable sweep before local
	// execution (the fabric coordinator plugs in here). It must leave the
	// complete sweep - byte-identical to a local run - in spool, or at
	// least a valid checkpoint prefix: on error the server falls back to
	// executing locally, resuming whatever prefix was left behind.
	Distribute func(ctx context.Context, sw *Sweep, spool string) error
}

// New builds a Server and starts its workers. Stop with Drain.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: config needs a store")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	lg := cfg.Log
	if lg == nil {
		lg = telemetry.NewLogger(log.Printf)
	}
	spoolDir := filepath.Join(cfg.Store.Root(), "spool")
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queries := query.NewEngine(cfg.Store)
	queries.Log = lg
	s := &Server{
		store:      cfg.Store,
		queries:    queries,
		spoolDir:   spoolDir,
		workers:    workers,
		jobsOpt:    cfg.Jobs,
		log:        lg,
		pprof:      cfg.Pprof,
		distribute: cfg.Distribute,
		queue:      make(chan *job, statusQueueCapacity),
		jobs:       make(map[string]*job),
		runCtx:     ctx,
		drain:      cancel,
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// logf keeps the historical printf-style call sites; lines go through
// the unified telemetry.Logger at info level.
func (s *Server) logf(format string, args ...any) {
	s.log.Infof(format, args...)
}

// Drain stops the service gracefully: in-flight sweeps are cancelled,
// their sinks left as valid checkpoint prefixes on disk, and the workers
// joined. A restarted server resumes checkpointed spools from where they
// stopped when their specs are resubmitted. Submits that arrive once the
// drain has begun are answered 503.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drain()
	close(s.queue)
	s.wg.Wait()
}

// Handler returns the service's HTTP interface:
//
//	POST /sweeps            submit a spec; replies with fingerprint+status
//	GET  /sweeps            catalog: jobs plus stored sweeps (?kind= filters)
//	GET  /sweeps/<fp>         stream the sweep's NDJSON (live or stored)
//	GET  /sweeps/<fp>/status  job/store status for the fingerprint
//	GET  /sweeps/<fp>/records typed decoded records of a stored sweep
//	POST /query             run an aggregation spec (?format=csv for CSV);
//	                        repeated identical specs hit the derived cache
//	GET  /healthz           liveness: store path, live jobs, catalog size,
//	                        plus a debug-vars style metrics snapshot
//	GET  /metrics           Prometheus text exposition of every metric
//
// With Config.Pprof, net/http/pprof additionally mounts under
// /debug/pprof/. Every route is wrapped with request count and latency
// metrics; the wrapping is out-of-band and changes no response bytes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", instrument("metrics", s.handleMetrics))
	mux.HandleFunc("/query", instrument("query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleQuery(w, r)
	}))
	mux.HandleFunc("/sweeps", instrument("sweeps", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleList(w, r)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}))
	mux.HandleFunc("/sweeps/", instrument("sweeps_fp", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/sweeps/")
		if fp, ok := strings.CutSuffix(rest, "/status"); ok {
			s.handleStatus(w, r, fp)
			return
		}
		if fp, ok := strings.CutSuffix(rest, "/records"); ok {
			s.handleRecords(w, r, fp)
			return
		}
		s.handleStream(w, r, rest)
	}))
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the process-wide registry in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.Default.WritePrometheus(w)
}

// healthJob is one in-flight job in the healthz report. Shard lineage
// (parent fingerprint and cell range) lets a coordinator dedup in-flight
// shards across workers the way handleSubmit dedups whole sweeps.
type healthJob struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Status      string `json:"status"`
	Parent      string `json:"parent,omitempty"`
	ShardStart  int    `json:"shard_start"`
	ShardEnd    int    `json:"shard_end"`
}

// handleHealthz reports liveness plus the operational gauges a deployment
// watches: where the store lives, which sweeps are queued or running
// (with shard lineage), and how many finished sweeps the catalog can
// serve.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	inflight := []healthJob{}
	s.mu.Lock()
	for fp, j := range s.jobs {
		status, _ := j.state()
		if status != StatusQueued && status != StatusRunning {
			continue
		}
		inflight = append(inflight, healthJob{
			Fingerprint: fp,
			Kind:        string(j.sweep.Kind),
			Status:      status,
			Parent:      j.sweep.Parent,
			ShardStart:  j.sweep.ShardStart,
			ShardEnd:    j.sweep.ShardEnd,
		})
	}
	s.mu.Unlock()
	catalogSize, _ := s.store.Count()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"store":         s.store.Root(),
		"live_jobs":     len(inflight),
		"jobs":          inflight,
		"stored_sweeps": catalogSize,
		// Debug-vars style snapshot of the metrics registry: the same
		// series /metrics exposes, as JSON for humans and scripts.
		"metrics": telemetry.Default.Snapshot(),
	})
}

// submitResponse is the reply to POST /sweeps.
type submitResponse struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Status      string `json:"status"`
	Error       string `json:"error,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad sweep spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	sweep, err := Resolve(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := sweep.Fingerprint
	resp := submitResponse{Fingerprint: fp, Kind: string(sweep.Kind)}

	// A finished identical sweep is served from the store, never re-run.
	if s.store.Has(fp) {
		resp.Status = "cached"
		writeJSON(w, http.StatusOK, resp)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "service is draining", http.StatusServiceUnavailable)
		return
	}
	j, exists := s.jobs[fp]
	if exists {
		status, _ := j.state()
		if status == StatusQueued || status == StatusRunning {
			s.mu.Unlock()
			resp.Status = status
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// Terminal but not stored (failed or checkpointed): re-enqueue; a
		// checkpointed spool resumes from its valid prefix.
	}
	j = &job{sweep: sweep, status: StatusQueued, done: make(chan struct{}), positioned: make(chan struct{})}
	select {
	case s.queue <- j:
		s.jobs[fp] = j
		s.mu.Unlock()
		resp.Status = StatusQueued
		writeJSON(w, http.StatusAccepted, resp)
	default:
		s.mu.Unlock()
		http.Error(w, "sweep queue full", http.StatusServiceUnavailable)
	}
}

// listResponse is the reply to GET /sweeps.
type listResponse struct {
	Jobs   []submitResponse `json:"jobs"`
	Stored []store.Meta     `json:"stored"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	kindFilter := r.URL.Query().Get("kind")
	var out listResponse
	s.mu.Lock()
	for fp, j := range s.jobs {
		if kindFilter != "" && string(j.sweep.Kind) != kindFilter {
			continue
		}
		status, errMsg := j.state()
		out.Jobs = append(out.Jobs, submitResponse{
			Fingerprint: fp, Kind: string(j.sweep.Kind), Status: status, Error: errMsg,
		})
	}
	s.mu.Unlock()
	cat, err := query.NewCatalog(s.store)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if kindFilter != "" {
		out.Stored = cat.Find(query.ByKind(kindFilter))
	} else {
		out.Stored = cat.List()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRecords serves a stored sweep's records as typed JSON - one
// document, header plus record array, decoded through the kind's
// concrete record type (proving it round-trips). The decoded slice is
// held in memory but the response encodes record by record, so the
// handler never buffers a second full copy of a large sweep.
func (s *Server) handleRecords(w http.ResponseWriter, _ *http.Request, fp string) {
	rc, meta, err := s.store.Get(fp)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			http.Error(w, "unknown sweep", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer rc.Close()
	h, recs, err := core.DecodeRecords(core.Kind(meta.Kind), rc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	hb, err := json.Marshal(h)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, _ = fmt.Fprintf(w, `{"header":%s,"records":[`, hb)
	v := reflect.ValueOf(recs)
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		rb, err := json.Marshal(v.Index(i).Interface())
		if err != nil {
			return // headers are sent; the truncated body signals the failure
		}
		_, _ = w.Write(rb)
	}
	_, _ = io.WriteString(w, "]}\n")
}

// handleQuery runs one aggregation spec against the store. The canonical
// aggregate JSON is content-addressed into the store's derived cache, so
// a repeated identical spec is answered without re-reading the raw
// records; the X-Hbmrd-Query-Cache header reports hit or miss, and
// X-Hbmrd-Query-Source which representation answered (cache or
// columnar).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var spec query.Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad query spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.queries.Run(spec)
	if err != nil {
		switch {
		case errors.Is(err, query.ErrSpec):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, store.ErrNotFound):
			http.Error(w, "unknown sweep (only finished, stored sweeps can be queried)", http.StatusNotFound)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	cache := "miss"
	if res.CacheHit {
		cache = "hit"
	}
	w.Header().Set("X-Hbmrd-Query-Cache", cache)
	w.Header().Set("X-Hbmrd-Query-Source", res.Source)
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		_, _ = io.WriteString(w, res.Aggregate.CSV())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(res.JSON)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, fp string) {
	if _, meta, err := s.store.Path(fp); err == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"fingerprint": fp, "status": "cached", "kind": meta.Kind,
			"cells": meta.Cells, "records": meta.Records, "bytes": meta.Bytes,
		})
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[fp]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown sweep", http.StatusNotFound)
		return
	}
	status, errMsg := j.state()
	writeJSON(w, http.StatusOK, submitResponse{
		Fingerprint: fp, Kind: string(j.sweep.Kind), Status: status, Error: errMsg,
	})
}

// handleStream serves a sweep's NDJSON: instantly from the store on a
// fingerprint hit, otherwise by tailing the live spool until the job
// reaches a terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, fp string) {
	if s.serveStored(w, fp) {
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[fp]
	s.mu.Unlock()
	if !ok {
		// A job that finished since the store check has left the map, and
		// its object is in the store now.
		if !s.serveStored(w, fp) {
			http.Error(w, "unknown sweep", http.StatusNotFound)
		}
		return
	}
	// A spool on disk before its run positions it may end in a torn tail
	// that the run rewrites, so it is opened only once positioned.
	select {
	case <-j.positioned:
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	var f *os.File
	select {
	case <-j.positioned:
		f, _ = os.Open(s.spoolPath(fp))
	default:
	}
	if f == nil {
		// The job finished and was finalized (spool unlinked) before the
		// tail opened it - serve the store copy - or it never ran here
		// (distributed, or left queued by a drain).
		if !s.serveStored(w, fp) {
			http.Error(w, "sweep did not run", http.StatusServiceUnavailable)
		}
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Tail the spool: emit whatever is on disk, flush, wait for growth.
	// The writer emits whole lines per record, so the client always holds
	// a valid NDJSON prefix. The open descriptor stays readable even after
	// the finished spool is finalized into the store and unlinked.
	emit := func() error {
		if _, err := io.Copy(w, f); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	for {
		if err := emit(); err != nil {
			return // client went away
		}
		select {
		case <-j.done:
			_ = emit() // drain the tail landed before done
			return
		case <-r.Context().Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// serveStored copies the stored stream of fp, when the store holds it,
// and reports whether it did.
func (s *Server) serveStored(w http.ResponseWriter, fp string) bool {
	path, _, err := s.store.Path(fp)
	if err != nil {
		return false
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = io.Copy(w, f)
	return true
}

func (s *Server) spoolPath(fp string) string {
	return filepath.Join(s.spoolDir, strings.TrimPrefix(fp, "sha256:")+".jsonl")
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.runCtx.Err() != nil {
			// Draining: leave the job queued; its spool (if any) already
			// holds a valid checkpoint for the next submission.
			close(j.done)
			continue
		}
		s.runJob(j)
		// A long-lived daemon must not pin every fleet it ever built:
		// finished jobs leave the map (status and streaming come from the
		// store now), and terminal jobs of any flavour drop their runner
		// closure - the only reference to the simulated chips.
		if status, _ := j.state(); status == StatusDone {
			s.mu.Lock()
			if s.jobs[j.sweep.Fingerprint] == j {
				delete(s.jobs, j.sweep.Fingerprint)
			}
			s.mu.Unlock()
		}
		j.sweep.release()
		close(j.done)
	}
}

// runJob executes one sweep into its spool file, resuming a previous
// checkpoint when one is on disk, and finalizes the finished spool into
// the store.
func (s *Server) runJob(j *job) {
	fp := j.sweep.Fingerprint
	j.setState(StatusRunning, "")
	mJobsRunning.Add(1)
	defer mJobsRunning.Add(-1)
	defer func() {
		switch status, _ := j.state(); status {
		case StatusDone:
			mSweepsDone.Inc()
		case StatusFailed:
			mSweepsFailed.Inc()
		case StatusCheckpointed:
			mSweepsCheckpt.Inc()
		}
	}()
	s.logf("serve: %s sweep %s running", j.sweep.Kind, fp)

	spool := s.spoolPath(fp)
	if s.distribute != nil && j.sweep.Shardable() {
		err := s.distribute(s.runCtx, j.sweep, spool)
		switch {
		case err == nil:
			if ferr := s.finalize(j, spool); ferr != nil {
				j.setState(StatusFailed, ferr.Error())
				s.logf("serve: sweep %s finalize failed: %v", fp, ferr)
				return
			}
			j.setState(StatusDone, "")
			s.logf("serve: sweep %s done (distributed)", fp)
			return
		case errors.Is(err, context.Canceled), s.runCtx.Err() != nil:
			j.setState(StatusCheckpointed, "")
			s.logf("serve: sweep %s checkpointed at %s", fp, spool)
			return
		default:
			// Whatever prefix distribution merged is a valid checkpoint;
			// the local run below resumes it.
			s.logf("serve: sweep %s distribution failed (%v); running locally", fp, err)
		}
	}
	runErr, resumed := s.execute(j, spool, true)
	if runErr != nil && resumed && !errors.Is(runErr, context.Canceled) && s.runCtx.Err() == nil {
		// The runner rejected the checkpoint (a kind that cannot resume,
		// or a spool from before a code-generation bump whose fingerprint
		// no longer matches). A stale spool must not poison its
		// fingerprint forever: restart the sweep from scratch.
		s.logf("serve: sweep %s checkpoint rejected (%v); restarting fresh", fp, runErr)
		runErr, _ = s.execute(j, spool, false)
	}
	switch {
	case runErr == nil:
		if err := s.finalize(j, spool); err != nil {
			j.setState(StatusFailed, err.Error())
			s.logf("serve: sweep %s finalize failed: %v", fp, err)
			return
		}
		j.setState(StatusDone, "")
		s.logf("serve: sweep %s done", fp)
	case errors.Is(runErr, context.Canceled):
		j.setState(StatusCheckpointed, "")
		s.logf("serve: sweep %s checkpointed at %s", fp, spool)
	default:
		j.setState(StatusFailed, runErr.Error())
		s.logf("serve: sweep %s failed: %v", fp, runErr)
	}
}

// execute performs one attempt at a job's sweep: open the spool, resume
// its checkpoint when allowed and present (otherwise start the file
// over), and run. It reports whether a checkpoint was attached, so the
// caller can distinguish "the checkpoint was rejected" from "the sweep
// failed".
func (s *Server) execute(j *job, spool string, allowResume bool) (runErr error, resumed bool) {
	f, err := os.OpenFile(spool, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err, false
	}
	opts := []core.RunOption{core.WithSink(core.NewJSONLFileSink(f))}
	if s.jobsOpt > 0 {
		opts = append(opts, core.WithJobs(s.jobsOpt))
	}
	// Cut the spool back to its valid checkpoint prefix (or empty it)
	// before any live tail opens it: a crash can leave a torn tail the run
	// would rewrite at the same offsets.
	var valid int64
	if allowResume {
		if cp, err := core.ResumeFrom(f); err == nil {
			opts = append(opts, core.WithResume(cp))
			resumed, valid = true, cp.ValidBytes()
			mSpoolResumes.Inc()
			s.logf("serve: sweep %s resuming from %d checkpointed records", j.sweep.Fingerprint, cp.Records())
		}
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return err, resumed
	}
	j.positionedOnce.Do(func() { close(j.positioned) })
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return err, resumed
	}
	runErr = j.sweep.Run(s.runCtx, opts...)
	if cerr := f.Close(); runErr == nil {
		runErr = cerr
	}
	return runErr, resumed
}

// finalize moves a completed spool into the store - stamped with the
// sweep's catalog metadata (geometry, chip set, raw config) so the query
// subsystem can filter on it - and removes the spool. The store reads the
// sweep's identity, lineage and size from the spool while staging it.
func (s *Server) finalize(j *job, spool string) error {
	meta := store.Meta{
		Fingerprint:  j.sweep.Fingerprint,
		Kind:         string(j.sweep.Kind),
		Geometry:     j.sweep.Geometry,
		Ranks:        j.sweep.Ranks,
		DataRateMbps: j.sweep.DataRateMbps,
		Chips:        j.sweep.Chips,
		Config:       j.sweep.Spec.Config,
	}
	if err := s.store.PutFile(meta, spool); err != nil {
		return err
	}
	return os.Remove(spool)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
