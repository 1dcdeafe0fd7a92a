package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// quarantineAfter is the consecutive-failure count that quarantines a
// worker; a quarantined worker rejoins when its /healthz answers again.
const quarantineAfter = 2

// probeTimeout bounds one /healthz probe.
const probeTimeout = 2 * time.Second

// peer is one hbmrdd worker in the pool, with its quarantine state:
// consecutive failures quarantine it, and a successful /healthz probe
// reinstates it.
type peer struct {
	url string

	mu          sync.Mutex
	fails       int
	quarantined bool
}

// fail records one failure and reports whether this call newly
// quarantined the peer (so the caller counts each transition once).
func (p *peer) fail() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	if p.fails >= quarantineAfter && !p.quarantined {
		p.quarantined = true
		return true
	}
	return false
}

func (p *peer) ok() {
	p.mu.Lock()
	p.fails = 0
	p.quarantined = false
	p.mu.Unlock()
}

func (p *peer) isQuarantined() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quarantined
}

// healthzReply mirrors the worker's /healthz document: liveness plus the
// in-flight jobs with their shard lineage.
type healthzReply struct {
	OK   bool `json:"ok"`
	Jobs []struct {
		Fingerprint string `json:"fingerprint"`
		Parent      string `json:"parent"`
		ShardStart  int    `json:"shard_start"`
		ShardEnd    int    `json:"shard_end"`
	} `json:"jobs"`
}

// probe asks a peer's /healthz whether it is alive, returning its reply.
func (c *Coordinator) probe(ctx context.Context, p *peer) (healthzReply, error) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return healthzReply{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return healthzReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return healthzReply{}, fmt.Errorf("fabric: %s healthz: %s", p.url, resp.Status)
	}
	var h healthzReply
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return healthzReply{}, err
	}
	if !h.OK {
		return healthzReply{}, fmt.Errorf("fabric: %s reports not ok", p.url)
	}
	return h, nil
}

// acquire picks the next worker for a dispatch, round-robin over healthy
// peers. Quarantined peers are probed as they come up in rotation and
// reinstated when /healthz answers again; with every peer quarantined and
// unresponsive it returns an error, which cascades into the caller's
// local-execution fallback.
func (c *Coordinator) acquire(ctx context.Context) (*peer, error) {
	for range c.peers {
		c.mu.Lock()
		p := c.peers[c.next%len(c.peers)]
		c.next++
		c.mu.Unlock()
		if !p.isQuarantined() {
			return p, nil
		}
		if _, err := c.probe(ctx, p); err == nil {
			p.ok()
			mReinstates.Inc()
			c.logf("fabric: worker %s reinstated", p.url)
			return p, nil
		}
	}
	return nil, fmt.Errorf("fabric: all %d workers are quarantined", len(c.peers))
}

// findInFlight scans healthy peers' /healthz job lineage for a shard
// already queued or running under fp, so a retried dispatch reattaches to
// the worker that owns it instead of running the shard twice elsewhere.
func (c *Coordinator) findInFlight(ctx context.Context, fp string) *peer {
	for _, p := range c.peers {
		if p.isQuarantined() {
			continue
		}
		h, err := c.probe(ctx, p)
		if err != nil {
			continue
		}
		for _, j := range h.Jobs {
			if j.Fingerprint == fp {
				return p
			}
		}
	}
	return nil
}
