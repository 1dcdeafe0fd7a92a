package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the call. Trace groups the spans of one operation ("<root>/<op>");
// Parent is the ID of the span that caused this one (0 for a root). Start
// and End are nanoseconds since the recorder's epoch.
type Span struct {
	Trace  string         `json:"trace"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start"`
	End    int64          `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced run: every method is a no-op that costs one nil check.
type Recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Active is an open span. A nil *Active (from a nil Recorder) is valid.
type Active struct {
	r    *Recorder
	span Span
}

// Start opens a span under parent (nil for a root) in the given trace.
func (r *Recorder) Start(trace string, parent *Active, name string) *Active {
	if r == nil {
		return nil
	}
	a := &Active{r: r, span: Span{Trace: trace, ID: r.next.Add(1), Name: name,
		Start: time.Since(r.epoch).Nanoseconds()}}
	if parent != nil {
		a.span.Parent = parent.span.ID
	}
	return a
}

// Child opens a span in a's trace under a.
func (a *Active) Child(name string) *Active {
	if a == nil {
		return nil
	}
	return a.r.Start(a.span.Trace, a, name)
}

// ID is the span's identifier (0 for a nil span), for handing a parent
// across an HTTP hop.
func (a *Active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// Trace is the span's trace id ("" for a nil span).
func (a *Active) Trace() string {
	if a == nil {
		return ""
	}
	return a.span.Trace
}

// Rename changes the span's name before it ends, for calls whose layer
// operation is known only from their result (a query hit or miss).
func (a *Active) Rename(name string) {
	if a != nil {
		a.span.Name = name
	}
}

// End closes the span with alternating key, value attributes.
func (a *Active) End(kv ...any) {
	if a == nil {
		return
	}
	a.span.End = time.Since(a.r.epoch).Nanoseconds()
	if len(kv) > 1 {
		a.span.Attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, _ := kv[i].(string)
			a.span.Attrs[k] = kv[i+1]
		}
	}
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.span)
	a.r.mu.Unlock()
}

// StartRemote opens a span whose parent lives across an HTTP hop: the
// parent's trace and ID arrive in request headers.
func (r *Recorder) StartRemote(trace string, parent int64, name string) *Active {
	a := r.Start(trace, nil, name)
	if a != nil {
		a.span.Parent = parent
	}
	return a
}

// WriteJSONL writes every recorded span, one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
