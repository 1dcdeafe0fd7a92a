package fabric

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FaultMode selects what a Fault does to a matched request.
type FaultMode string

const (
	// FaultDrop fails the request before it reaches the worker, like a
	// severed connection.
	FaultDrop FaultMode = "drop"
	// FaultDelay stalls the request (respecting its context, so attempt
	// deadlines fire) before passing it through - a slow worker.
	FaultDelay FaultMode = "delay"
	// FaultTruncate performs the request but cuts the response body short
	// - a torn stream.
	FaultTruncate FaultMode = "truncate"
	// Fault5xx answers 500 without reaching the worker.
	Fault5xx FaultMode = "5xx"
	// FaultReply answers 200 with Reply as the body without reaching the
	// worker - a worker reporting a state of its own.
	FaultReply FaultMode = "reply"
)

// Fault is one failure rule: requests whose URL path contains Match but
// not Except (when set), and whose method equals Method (when set), suffer
// Mode, at most Count times.
type Fault struct {
	Match      string
	Except     string
	Method     string
	Mode       FaultMode
	Count      int
	Delay      time.Duration // FaultDelay stall
	TruncateTo int           // FaultTruncate: response bytes kept
	Reply      string        // FaultReply body
}

// FaultInjector is an http.RoundTripper that wraps a real transport and
// injects failures per its rules - the chaos seam the fabric tests drive.
// It is safe for concurrent use.
type FaultInjector struct {
	Transport http.RoundTripper

	mu     sync.Mutex
	faults []*Fault
	hits   []string
}

// NewFaultInjector wraps transport (nil = http.DefaultTransport).
func NewFaultInjector(transport http.RoundTripper, faults ...*Fault) *FaultInjector {
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &FaultInjector{Transport: transport, faults: faults}
}

// Hits lists the failure-injected requests in order, each as
// "<mode> <method> <path>".
func (fi *FaultInjector) Hits() []string {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return append([]string(nil), fi.hits...)
}

// match consumes one count of the first applicable fault, if any.
func (fi *FaultInjector) match(req *http.Request) *Fault {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for _, f := range fi.faults {
		if f.Count <= 0 {
			continue
		}
		if !strings.Contains(req.URL.Path, f.Match) || (f.Except != "" && strings.Contains(req.URL.Path, f.Except)) {
			continue
		}
		if f.Method != "" && f.Method != req.Method {
			continue
		}
		f.Count--
		fi.hits = append(fi.hits, fmt.Sprintf("%s %s %s", f.Mode, req.Method, req.URL.Path))
		return f
	}
	return nil
}

func (fi *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	f := fi.match(req)
	if f == nil {
		return fi.Transport.RoundTrip(req)
	}
	switch f.Mode {
	case FaultDrop:
		return nil, fmt.Errorf("fabric: injected connection drop on %s %s", req.Method, req.URL.Path)
	case Fault5xx:
		return cannedResponse(req, http.StatusInternalServerError, "injected worker failure\n"), nil
	case FaultReply:
		return cannedResponse(req, http.StatusOK, f.Reply), nil
	case FaultDelay:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(f.Delay):
		}
		return fi.Transport.RoundTrip(req)
	case FaultTruncate:
		resp, err := fi.Transport.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if f.TruncateTo < len(body) {
			body = body[:f.TruncateTo]
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		return resp, nil
	default:
		return fi.Transport.RoundTrip(req)
	}
}

// cannedResponse is a reply the injector makes up in the worker's place.
func cannedResponse(req *http.Request, code int, body string) *http.Response {
	return &http.Response{
		StatusCode: code,
		Status:     fmt.Sprintf("%d injected", code),
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
