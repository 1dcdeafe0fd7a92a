// Package store is a content-addressed, on-disk result store for finished
// sweeps: the sweep fingerprint (see internal/core) is the address, the
// value is the completed JSONL record stream plus a small metadata
// document. Because equal fingerprints mean byte-identical record
// streams, a hit can be served instantly in place of re-running the sweep
// - the durability layer under hbmrdd and any future batch tooling.
//
// Layout under the root:
//
//	objects/<aa>/<rest-of-fingerprint>/results.jsonl
//	objects/<aa>/<rest-of-fingerprint>/results.hbmc  (columnar twin)
//	objects/<aa>/<rest-of-fingerprint>/meta.json
//	derived/<aa>/<rest-of-key>.json  (cached query results)
//	tmp/  (staging for atomic finalize)
//
// Finalize is atomic: an object is staged under tmp/ and renamed into
// objects/ in one step, so a crashed writer can never leave a half-object
// at an address. Losing a race to another writer is success - the content
// is identical by construction.
//
// # Columnar twin
//
// JSONL is the interchange contract - fingerprints, golden digests,
// resume and the HTTP streaming surface are all defined over it - but it
// is a slow read: one reflective JSON parse per record. At finalize, Put
// therefore transcodes a whole sweep into a compact columnar twin
// (results.hbmc, see core.EncodeColumnar: per-field typed arrays behind a
// self-describing header) stored beside the JSONL under the same
// fingerprint, and queries read only the twin. Shard objects (Meta.Parent
// set) finalize without one: their coordinator reads only the JSONL, so a
// shard gets its twin when it is first queried. The twin is derived data,
// best-effort by design: a stream the transcoder cannot decode finalizes
// without one, and EnsureColumnar rebuilds it from the JSONL for shard
// objects, for objects finalized before the format existed, and for those
// whose twin was dropped as corrupt (DropColumnar). GetColumnar refreshes
// the object's LRU recency exactly as raw reads do, and Prune evicts and
// accounts the twin together with its object.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hbmrd/internal/core"
)

// ErrNotFound reports a fingerprint with no finished sweep in the store.
var ErrNotFound = errors.New("store: sweep not found")

// ErrNoColumnar reports a stored sweep without a columnar twin (a shard
// object not yet queried, one finalized before the format existed or from
// a stream the transcoder could not decode, or one with its twin
// dropped). EnsureColumnar rebuilds it from the JSONL.
var ErrNoColumnar = errors.New("store: sweep has no columnar artifact")

// Meta describes one stored sweep. Fingerprint, Kind and Cells identify
// the sweep; Records and Bytes size it (Put computes both from the stream
// itself, so callers never re-scan the JSONL); the remaining fields are
// optional catalog metadata a submitting service fills from its sweep
// spec - sweeps ingested from bare JSONL files leave them empty.
type Meta struct {
	// Fingerprint is the sweep's content address.
	Fingerprint string `json:"fingerprint"`
	// Kind is the experiment kind ("ber", "hcfirst", ...).
	Kind string `json:"kind"`
	// Cells is the sweep's plan cell count.
	Cells int `json:"cells"`
	// Records is the number of record lines (excluding the header).
	// Computed by Put while staging the stream.
	Records int `json:"records"`
	// Bytes is the size of results.jsonl. Computed by Put.
	Bytes int64 `json:"bytes"`
	// Generation is the producer's core.CodeGeneration (from the header).
	Generation int `json:"generation,omitempty"`
	// Geometry is the chip organization preset name the sweep ran on.
	Geometry string `json:"geometry,omitempty"`
	// Ranks is the geometry's rank count per pseudo channel (0 on sweeps
	// stored before the rank dimension existed; read it as 1).
	Ranks int `json:"ranks,omitempty"`
	// DataRateMbps is the preset's per-pin data rate, when the geometry
	// preset carries one (the ported Ramulator2 matrix; legacy hand-rolled
	// presets leave it 0).
	DataRateMbps int `json:"data_rate_mbps,omitempty"`
	// Chips are the study chip indices of the sweep's fleet.
	Chips []int `json:"chips,omitempty"`
	// Parent is the full sweep's fingerprint when this object is a shard
	// produced by the distributed fabric; empty for whole sweeps.
	Parent string `json:"parent,omitempty"`
	// ShardStart and ShardEnd bound the parent-plan cell range
	// [ShardStart, ShardEnd) a shard object covers.
	ShardStart int `json:"shard_start,omitempty"`
	ShardEnd   int `json:"shard_end,omitempty"`
	// Config is the sweep's raw runner config as submitted (canonical
	// identity lives in the fingerprint; this copy exists so catalog
	// queries can filter on config fields without re-deriving them).
	Config json.RawMessage `json:"config,omitempty"`
}

// Store is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use across goroutines and
// processes; atomicity comes from staged writes and rename.
type Store struct {
	root string
}

// Open prepares a store rooted at dir, creating the layout if needed.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "derived", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// shardedHex validates a "sha256:<hex>" address and returns its hex
// portion, which keys the two-level sharded layout.
func shardedHex(addr string) (string, error) {
	hex := strings.TrimPrefix(addr, "sha256:")
	if hex == addr || len(hex) < 8 {
		return "", fmt.Errorf("store: malformed fingerprint %q", addr)
	}
	for _, c := range hex {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", fmt.Errorf("store: malformed fingerprint %q", addr)
		}
	}
	return hex, nil
}

// objectDir maps a fingerprint to its object directory, two-level sharded
// so no single directory grows unbounded. The "sha256:" scheme prefix is
// folded into the hex portion's directory name.
func (s *Store) objectDir(fingerprint string) (string, error) {
	hex, err := shardedHex(fingerprint)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.root, "objects", hex[:2], hex[2:]), nil
}

// Has reports whether a finished sweep is stored at the fingerprint.
func (s *Store) Has(fingerprint string) bool {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return false
	}
	_, err = os.Stat(filepath.Join(dir, "meta.json"))
	return err == nil
}

// Get opens the stored record stream (header line first) and its
// metadata. The caller closes the reader. Returns ErrNotFound when the
// fingerprint has no finished sweep.
func (s *Store) Get(fingerprint string) (io.ReadCloser, *Meta, error) {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return nil, nil, err
	}
	meta, err := readMeta(filepath.Join(dir, "meta.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNotFound
		}
		return nil, nil, err
	}
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNotFound
		}
		return nil, nil, err
	}
	touch(filepath.Join(dir, "meta.json"))
	mReadsJSONL.Inc()
	return f, meta, nil
}

// Path returns the on-disk path of the stored record stream, for callers
// that serve the file directly (http.ServeFile). Returns ErrNotFound when
// absent.
func (s *Store) Path(fingerprint string) (string, *Meta, error) {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return "", nil, err
	}
	meta, err := readMeta(filepath.Join(dir, "meta.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil, ErrNotFound
		}
		return "", nil, err
	}
	touch(filepath.Join(dir, "meta.json"))
	mReadsJSONL.Inc()
	return filepath.Join(dir, "results.jsonl"), meta, nil
}

// touch stamps a path's modification time to now - the access clock
// Prune's LRU eviction runs on. Best-effort: a read-only store still
// serves hits, it just stops refreshing recency.
func touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// PutFile finalizes the completed sweep file at path into the store by
// copying it into a staging object and atomically renaming the object
// into place. The source file is left untouched. If the fingerprint is
// already stored, the existing object wins (identical content) and the
// staged copy is discarded.
func (s *Store) PutFile(meta Meta, path string) error {
	src, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer src.Close()
	return s.put(meta, src)
}

// Put finalizes a completed sweep read from r, as PutFile does for files.
func (s *Store) Put(meta Meta, r io.Reader) error {
	return s.put(meta, r)
}

func (s *Store) put(meta Meta, r io.Reader) error {
	dir, err := s.objectDir(meta.Fingerprint)
	if err != nil {
		return err
	}
	if meta.Kind == "" {
		return fmt.Errorf("store: meta has no kind")
	}

	stage, err := os.MkdirTemp(filepath.Join(s.root, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.RemoveAll(stage)

	dst, err := os.Create(filepath.Join(stage, "results.jsonl"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Size the sweep while staging it: every line past the header is one
	// record, so callers never have to re-scan the stored JSONL.
	var lc lineCounter
	n, err := io.Copy(dst, io.TeeReader(r, &lc))
	if err == nil {
		err = dst.Sync()
	}
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: staging %s: %w", meta.Fingerprint, err)
	}
	meta.Bytes = n
	meta.Records = 0
	if lc.lines > 0 {
		meta.Records = lc.lines - 1
	}

	// Transcode the staged stream into its columnar twin. Best-effort: a
	// stream the decoder rejects (not a sweep, unknown kind) finalizes
	// without one, and a query over it fails its rebuild the same way. A
	// shard object skips it; its first query builds the twin.
	if meta.Parent == "" {
		_ = transcodeColumnar(filepath.Join(stage, "results.jsonl"), filepath.Join(stage, "results.hbmc"))
	}

	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.WriteFile(filepath.Join(stage, "meta.json"), append(mb, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(stage, dir); err != nil {
		if s.Has(meta.Fingerprint) {
			// Lost a finalize race; the winner's content is identical.
			return nil
		}
		return fmt.Errorf("store: finalizing %s: %w", meta.Fingerprint, err)
	}
	mPuts.Inc()
	mPutBytes.Add(n)
	return nil
}

// transcodeColumnar decodes the sweep JSONL at src and writes its
// columnar twin to dst (written whole, then synced - callers either stage
// inside a not-yet-visible object or rename into place themselves).
func transcodeColumnar(src, dst string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	h, recs, err := core.DecodeRecords("", f)
	if err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	err = core.EncodeColumnar(out, h, recs)
	if serr := out.Sync(); err == nil {
		err = serr
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
	}
	return err
}

// GetColumnar opens the stored sweep's columnar twin and its metadata.
// The caller closes the reader. Returns ErrNotFound when the fingerprint
// has no finished sweep, and ErrNoColumnar when the sweep is stored but
// carries no twin (EnsureColumnar rebuilds it). A columnar hit refreshes
// the object's LRU recency just like a raw read.
func (s *Store) GetColumnar(fingerprint string) (io.ReadCloser, *Meta, error) {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return nil, nil, err
	}
	meta, err := readMeta(filepath.Join(dir, "meta.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNotFound
		}
		return nil, nil, err
	}
	f, err := os.Open(filepath.Join(dir, "results.hbmc"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoColumnar, fingerprint)
		}
		return nil, nil, err
	}
	touch(filepath.Join(dir, "meta.json"))
	mReadsColumnar.Inc()
	return f, meta, nil
}

// HasColumnar reports whether the stored sweep carries a columnar twin.
func (s *Store) HasColumnar(fingerprint string) bool {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return false
	}
	_, err = os.Stat(filepath.Join(dir, "results.hbmc"))
	return err == nil
}

// EnsureColumnar backfills the columnar twin of an already-finalized
// sweep - the lazy migration path for stores populated before the format
// existed, and the rebuild after DropColumnar. Idempotent: a present twin
// is left untouched. The twin is
// staged under tmp/ and renamed into the object, so concurrent callers
// race safely (identical content by construction) and a crash leaves no
// half-written artifact. Returns ErrNotFound when the fingerprint has no
// finished sweep.
func (s *Store) EnsureColumnar(fingerprint string) error {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); err != nil {
		if os.IsNotExist(err) {
			return ErrNotFound
		}
		return err
	}
	dst := filepath.Join(dir, "results.hbmc")
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	stage, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "columnar-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	stagePath := stage.Name()
	stage.Close()
	if err := transcodeColumnar(filepath.Join(dir, "results.jsonl"), stagePath); err != nil {
		os.Remove(stagePath)
		return fmt.Errorf("store: transcoding %s: %w", fingerprint, err)
	}
	if err := os.Rename(stagePath, dst); err != nil {
		os.Remove(stagePath)
		return fmt.Errorf("store: backfilling %s: %w", fingerprint, err)
	}
	mBackfills.Inc()
	return nil
}

// DropColumnar removes the stored sweep's columnar twin, leaving the
// JSONL and metadata in place. The recovery path for a twin that no
// longer decodes (disk corruption): EnsureColumnar then re-transcodes a
// fresh twin from the JSONL. A missing twin is success; returns
// ErrNotFound when the fingerprint has no finished sweep at all.
func (s *Store) DropColumnar(fingerprint string) error {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); err != nil {
		if os.IsNotExist(err) {
			return ErrNotFound
		}
		return err
	}
	if err := os.Remove(filepath.Join(dir, "results.hbmc")); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: dropping columnar twin of %s: %w", fingerprint, err)
	}
	mDrops.Inc()
	return nil
}

// List returns the metadata of every stored sweep, sorted by fingerprint.
func (s *Store) List() ([]Meta, error) {
	var out []Meta
	shards, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(s.root, "objects", shard.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, obj := range objs {
			meta, err := readMeta(filepath.Join(s.root, "objects", shard.Name(), obj.Name(), "meta.json"))
			if err != nil {
				continue // half-visible entry; skip rather than fail the listing
			}
			out = append(out, *meta)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}

// Count reports how many finished sweeps the store holds, by counting
// object directories without opening any metadata - cheap enough for a
// liveness probe to call on every poll.
func (s *Store) Count() (int, error) {
	shards, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(s.root, "objects", shard.Name()))
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		n += len(objs)
	}
	return n, nil
}

// lineCounter counts newline-terminated lines flowing through a write.
type lineCounter struct{ lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// GetDerived returns a cached derived result (an aggregate computed from a
// stored sweep) by its content key, "sha256:<hex>" like a fingerprint.
// Returns ErrNotFound when the key has never been put or was pruned.
func (s *Store) GetDerived(key string) ([]byte, error) {
	path, err := s.derivedPath(key)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	touch(path)
	mDerivedGets.Inc()
	return b, nil
}

// PutDerived caches a derived result under its content key, atomically
// (staged write + rename). Losing a race to another writer is success: the
// key is a content address over (sweep fingerprint, canonical query spec),
// so concurrent writers stage identical bytes. The write is not synced: a
// crash can leave the entry empty or torn, which costs one recompute,
// because the query engine treats bytes that do not decode to a current
// aggregate as a miss and rewrites them.
func (s *Store) PutDerived(key string, data []byte) error {
	path, err := s.derivedPath(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	stage, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "derived-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := stage.Write(data)
	if cerr := stage.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(stage.Name())
		return fmt.Errorf("store: staging derived %s: %w", key, werr)
	}
	if err := os.Rename(stage.Name(), path); err != nil {
		os.Remove(stage.Name())
		return fmt.Errorf("store: finalizing derived %s: %w", key, err)
	}
	mDerivedPuts.Inc()
	return nil
}

func (s *Store) derivedPath(key string) (string, error) {
	hex, err := shardedHex(key)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.root, "derived", hex[:2], hex[2:]+".json"), nil
}

// pruneEntry is one evictable unit: a whole sweep object or one derived
// result, with the payload bytes it frees and the recency stamp it is
// ranked by.
type pruneEntry struct {
	path     string // object dir, or derived file
	isObject bool
	bytes    int64
	accessed time.Time
}

// Prune evicts least-recently-accessed content - stored sweeps and cached
// derived results alike - until the store's payload is at most keepBytes,
// and reports how many entries it removed. Recency is the meta.json (or
// derived file) modification time, which Get, Path and GetDerived refresh
// on every hit, so the store behaves as an LRU cache of bounded size.
// Safe to run concurrently with readers: an open descriptor keeps serving
// after its object is unlinked, and a later identical Put simply restores
// the address.
func (s *Store) Prune(keepBytes int64) (removed int, err error) {
	mPruneRuns.Inc()
	defer func() { mPruneEvicted.Add(int64(removed)) }()
	var entries []pruneEntry
	var total int64

	shards, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		shardDir := filepath.Join(s.root, "objects", shard.Name())
		objs, err := os.ReadDir(shardDir)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		for _, obj := range objs {
			dir := filepath.Join(shardDir, obj.Name())
			metaInfo, err := os.Stat(filepath.Join(dir, "meta.json"))
			if err != nil {
				continue // half-visible entry; skip, as List does
			}
			var size int64
			if files, err := os.ReadDir(dir); err == nil {
				for _, f := range files {
					if fi, err := f.Info(); err == nil {
						size += fi.Size()
					}
				}
			}
			entries = append(entries, pruneEntry{path: dir, isObject: true, bytes: size, accessed: metaInfo.ModTime()})
			total += size
		}
	}

	derivedShards, err := os.ReadDir(filepath.Join(s.root, "derived"))
	if err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("store: %w", err)
	}
	for _, shard := range derivedShards {
		if !shard.IsDir() {
			continue
		}
		shardDir := filepath.Join(s.root, "derived", shard.Name())
		files, err := os.ReadDir(shardDir)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			fi, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, pruneEntry{path: filepath.Join(shardDir, f.Name()), bytes: fi.Size(), accessed: fi.ModTime()})
			total += fi.Size()
		}
	}

	// Oldest access first; ties break on path so eviction is deterministic.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].accessed.Equal(entries[j].accessed) {
			return entries[i].accessed.Before(entries[j].accessed)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= keepBytes {
			break
		}
		if e.isObject {
			err = os.RemoveAll(e.path)
		} else {
			err = os.Remove(e.path)
		}
		if err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("store: pruning %s: %w", e.path, err)
		}
		removed++
		total -= e.bytes
	}
	return removed, nil
}

func readMeta(path string) (*Meta, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt meta %s: %w", path, err)
	}
	// The meta document is stored indented; hand the raw config back
	// compact so catalog consumers see one canonical byte form.
	if len(m.Config) > 0 {
		var cb bytes.Buffer
		if json.Compact(&cb, m.Config) == nil {
			m.Config = append(json.RawMessage(nil), cb.Bytes()...)
		}
	}
	return &m, nil
}
