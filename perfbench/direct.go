package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/hbm"
	"hbmrd/internal/query"
	"hbmrd/internal/serve"
	"hbmrd/internal/store"
)

// allocs is a runtime.MemStats delta around one (*Sweep).Run.
type allocs struct {
	mallocs, bytes uint64
	cells          int
	readTime       time.Duration // spent in ReadMemStats itself
}

// sweepDirect runs one sweep in-process the way an hbmrdd worker does:
// serve.Resolve, (*serve.Sweep).Run into a JSONL spool, then
// (*store.Store).PutFile with the catalog metadata the service stamps.
// Each call gets a span under parent. With memStats the allocations of
// Run alone are measured as well (it reads MemStats, which stops the
// world, so only traced ops ask for it).
func sweepDirect(parent *Active, st *store.Store, spoolDir string, spec serve.SweepSpec, memStats bool) (*serve.Sweep, allocs, error) {
	var al allocs
	sp := parent.Child("serve.resolve")
	sw, err := serve.Resolve(spec)
	sp.End()
	if err != nil {
		return nil, al, fmt.Errorf("resolve: %w", err)
	}
	spool := filepath.Join(spoolDir, fmt.Sprintf("%s.jsonl", sw.Fingerprint[len("sha256:"):][:16]))
	// The spool stays until the run's directory is removed after the
	// measured window: this filesystem may discard freed blocks as it
	// commits, and a deletion inside the window would hand that cost to
	// whichever fsync comes next.
	f, err := os.Create(spool)
	if err != nil {
		return nil, al, err
	}
	var before, after runtime.MemStats
	var t0 time.Time
	if memStats {
		t0 = time.Now()
		runtime.ReadMemStats(&before)
		al.readTime = time.Since(t0)
	}
	sp = parent.Child("core.run")
	err = sw.Run(context.Background(), core.WithSink(core.NewJSONLFileSink(f)))
	sp.End("cells", sw.Cells)
	if memStats {
		t0 = time.Now()
		runtime.ReadMemStats(&after)
		al.readTime += time.Since(t0)
		al.mallocs, al.bytes, al.cells = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, sw.Cells
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, al, fmt.Errorf("run: %w", err)
	}
	h, err := spoolHeader(spool)
	if err != nil {
		return nil, al, err
	}
	meta := store.Meta{
		Fingerprint:  sw.Fingerprint,
		Kind:         string(sw.Kind),
		Cells:        h.Cells,
		Generation:   h.Generation,
		Geometry:     sw.Geometry,
		Ranks:        sw.Ranks,
		DataRateMbps: sw.DataRateMbps,
		Chips:        sw.Chips,
		Config:       sw.Spec.Config,
	}
	sp = parent.Child("store.put")
	err = st.PutFile(meta, spool)
	sp.End()
	if err != nil {
		return nil, al, fmt.Errorf("put: %w", err)
	}
	return sw, al, nil
}

// spoolHeader reads a finished spool's header line.
func spoolHeader(path string) (core.SweepHeader, error) {
	var h core.SweepHeader
	f, err := os.Open(path)
	if err != nil {
		return h, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		return h, fmt.Errorf("spool %s: %w", path, err)
	}
	if err := json.Unmarshal(line, &h); err != nil || h.Format == 0 {
		return h, fmt.Errorf("spool %s has no sweep header", path)
	}
	return h, nil
}

// runQuery runs one spec on eng under parent, naming the span by the
// answer's path (query.run_cold or query.run_hit).
func runQuery(parent *Active, eng *query.Engine, spec query.Spec) (*query.Result, error) {
	sp := parent.Child("query.run")
	res, err := eng.Run(spec)
	if err != nil {
		sp.End("err", err.Error())
		return nil, err
	}
	if res.CacheHit {
		sp.Rename("query.run_hit")
	} else {
		sp.Rename("query.run_cold")
	}
	sp.End("source", res.Source)
	return res, nil
}

// envOf is the query environment of a stored sweep's geometry.
func envOf(meta *store.Meta) query.Env {
	if meta == nil || meta.Geometry == "" {
		return query.Env{}
	}
	p, err := hbm.LookupPreset(meta.Geometry)
	if err != nil {
		return query.Env{}
	}
	return query.Env{BanksPerRank: p.Geometry.Banks}
}

// probeQueries splits the cold path of each spec into its layers, timed
// from outside after the measured window: stored sweeps are copied into
// a fresh probe store through PutFile, then each spec runs as
// GetColumnar -> DecodeColumnar -> ComputeColumnar, then through a
// probe Engine twice (a cold miss, then a hit), then GetDerived. The
// probe engine's bytes must match the bytes the workload was served.
func probeQueries(e *env, src *store.Store, specs []query.Spec, served [][]byte) error {
	if e.rec == nil || len(specs) == 0 {
		return nil
	}
	pst, err := openStore(e.dir, fmt.Sprintf("probe-queries-%d", time.Now().UnixNano()))
	if err != nil {
		return err
	}
	eng := query.NewEngine(pst)
	copied := map[string]bool{}
	for i, spec := range specs {
		root := e.rec.Start(fmt.Sprintf("probe.query/%d", i), nil, "probe.query")
		if !copied[spec.Sweep] {
			path, meta, err := src.Path(spec.Sweep)
			if err != nil {
				return err
			}
			sp := root.Child("store.put")
			err = pst.PutFile(*meta, path)
			sp.End()
			if err != nil {
				return err
			}
			copied[spec.Sweep] = true
		}
		cspec, err := spec.Canonical()
		if err != nil {
			return err
		}
		sp := root.Child("store.get_columnar")
		rc, meta, err := pst.GetColumnar(spec.Sweep)
		sp.End()
		if err != nil {
			return err
		}
		sp = root.Child("core.decode_columnar")
		cs, err := core.DecodeColumnar(rc)
		rc.Close()
		sp.End()
		if err != nil {
			return err
		}
		sp = root.Child("query.compute")
		agg, err := query.ComputeColumnar(cs, cspec, envOf(meta))
		sp.End()
		if err != nil {
			return err
		}
		direct, err := json.Marshal(agg)
		if err != nil {
			return err
		}
		cold, err := runQuery(root, eng, spec)
		if err != nil {
			return err
		}
		hit, err := runQuery(root, eng, spec)
		if err != nil {
			return err
		}
		key, err := query.DerivedKey(spec)
		if err != nil {
			return err
		}
		sp = root.Child("store.get_derived")
		_, err = pst.GetDerived(key)
		sp.End()
		root.End()
		if err != nil {
			return err
		}
		if !bytes.Equal(cold.JSON, hit.JSON) || !bytes.Equal(bytes.TrimSuffix(cold.JSON, []byte("\n")), direct) {
			return fmt.Errorf("probe query %d: engine and direct columnar aggregates differ", i)
		}
		if i < len(served) && served[i] != nil && !bytes.Equal(served[i], cold.JSON) {
			return fmt.Errorf("probe query %d: served aggregate differs from a fresh engine's", i)
		}
	}
	return nil
}

// probeSweeps re-runs sweeps locally through sweepDirect into a probe
// store, timing resolve, run (with allocations) and put from outside
// after the measured window, and returns each local run's JSONL for
// byte comparison.
func probeSweeps(e *env, specs []serve.SweepSpec) ([][]byte, error) {
	name := fmt.Sprintf("probe-sweeps-%d", time.Now().UnixNano())
	pst, err := openStore(e.dir, name)
	if err != nil {
		return nil, err
	}
	spool := filepath.Join(e.dir, name+"-spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	var out [][]byte
	for i, spec := range specs {
		root := e.rec.Start(fmt.Sprintf("probe.sweep/%d", i), nil, "probe.sweep")
		sw, al, err := sweepDirect(root, pst, spool, spec, e.rec != nil)
		root.End()
		if err != nil {
			return nil, err
		}
		e.res.allocs(al)
		rc, _, err := pst.Get(sw.Fingerprint)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
