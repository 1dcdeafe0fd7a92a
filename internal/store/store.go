// Package store is a content-addressed, on-disk result store for finished
// sweeps: the sweep fingerprint (see internal/core) is the address, the
// value is the completed JSONL record stream plus a small metadata
// document. Because equal fingerprints mean byte-identical record
// streams, a hit can be served instantly in place of re-running the sweep
// - the durability layer under hbmrdd and any future batch tooling.
//
// Put is the one reader of what a finished stream says about itself.
// While staging the JSONL it reads the header line through core's header
// check and counts the records after it, so the sweep's identity and size
// in meta.json always come from the stream. It refuses a stream that is
// empty, has no valid sweep header, or names a fingerprint or kind other
// than the address and kind it is stored under.
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
// is identical by construction. Every file the store writes goes through
// one whole-file writer; results.jsonl and results.hbmc are synced before
// their rename, meta.json and derived entries are not.
//
// # Columnar twin
//
// JSONL is the interchange contract - fingerprints, golden digests,
// resume and the HTTP streaming surface are all defined over it - but it
// is a slow read: one reflective JSON parse per record. At finalize, Put
// therefore transcodes a whole sweep into a compact columnar twin
// (results.hbmc, see core.EncodeColumnar: per-field typed arrays behind a
// self-describing header) stored beside the JSONL under the same
// fingerprint, and queries read only the twin. Shard objects (a Parent in
// the header) finalize without one: their coordinator reads only the
// JSONL, so a shard gets its twin when it is first queried. The twin is
// derived data, best-effort by design: a stream whose records the
// transcoder cannot decode finalizes without one, and EnsureColumnar
// rebuilds it from the JSONL for shard objects, for objects finalized
// before the format existed, and for those whose twin was dropped as
// corrupt (DropColumnar). GetColumnar refreshes the object's LRU recency
// exactly as raw reads do, and Prune evicts and accounts the twin together
// with its object.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hbmrd/internal/core"
	"hbmrd/internal/telemetry"
)

// ErrNotFound reports a fingerprint with no finished sweep in the store.
var ErrNotFound = errors.New("store: sweep not found")

// ErrNoColumnar reports a stored sweep without a columnar twin (a shard
// object not yet queried, one finalized before the format existed or from
// a stream the transcoder could not decode, or one with its twin
// dropped). EnsureColumnar rebuilds it from the JSONL.
var ErrNoColumnar = errors.New("store: sweep has no columnar artifact")

// Meta describes one stored sweep. Fingerprint and Kind are the address
// the caller stores the sweep under; the stream's header must name both.
// Put fills Cells, Generation, Parent, ShardStart and ShardEnd from that
// header and Records and Bytes from the stream itself, overwriting
// whatever the caller passed, so no caller parses or re-scans the JSONL.
// The remaining fields are optional catalog metadata a submitting service
// fills from its sweep spec - sweeps ingested from bare JSONL files leave
// them empty.
type Meta struct {
	// Fingerprint is the sweep's content address.
	Fingerprint string `json:"fingerprint"`
	// Kind is the experiment kind ("ber", "hcfirst", ...).
	Kind string `json:"kind"`
	// Cells is the stream's plan cell count (from the header).
	Cells int `json:"cells"`
	// Records is the number of record lines (excluding the header).
	Records int `json:"records"`
	// Bytes is the size of results.jsonl.
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
	// produced by the distributed fabric; empty for whole sweeps (from the
	// header).
	Parent string `json:"parent,omitempty"`
	// ShardStart and ShardEnd bound the parent-plan cell range
	// [ShardStart, ShardEnd) a shard object covers (from the header).
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

// object resolves a fingerprint to its object directory and parsed
// metadata. Returns ErrNotFound when the fingerprint has no finished
// sweep.
func (s *Store) object(fingerprint string) (string, *Meta, error) {
	dir, err := s.objectDir(fingerprint)
	if err != nil {
		return "", nil, err
	}
	meta, err := readMeta(filepath.Join(dir, "meta.json"))
	if os.IsNotExist(err) {
		return "", nil, ErrNotFound
	}
	if err != nil {
		return "", nil, err
	}
	return dir, meta, nil
}

// open resolves a fingerprint and opens one file of its object, counting
// the read in reads and refreshing the object's LRU recency; missing is
// the error for an object without that file.
func (s *Store) open(fingerprint, name string, missing error, reads *telemetry.Counter) (io.ReadCloser, *Meta, error) {
	dir, meta, err := s.object(fingerprint)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, nil, missing
	}
	if err != nil {
		return nil, nil, err
	}
	touch(filepath.Join(dir, "meta.json"))
	reads.Inc()
	return f, meta, nil
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
	return s.open(fingerprint, "results.jsonl", ErrNotFound, mReadsJSONL)
}

// Path returns the on-disk path of the stored record stream, for callers
// that serve the file directly (http.ServeFile). Returns ErrNotFound when
// absent.
func (s *Store) Path(fingerprint string) (string, *Meta, error) {
	dir, meta, err := s.object(fingerprint)
	if err != nil {
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
// staged copy is discarded. A file that is empty, has no sweep header,
// or whose header names another fingerprint or kind than meta is
// refused; see Meta for the fields taken from the file.
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

	var tap streamTap
	if _, err := writeFile(stage, "results.jsonl", true, func(w io.Writer) error {
		_, err := io.Copy(w, io.TeeReader(r, &tap))
		return err
	}); err != nil {
		return fmt.Errorf("store: staging %s: %w", meta.Fingerprint, err)
	}
	if err := tap.stamp(&meta); err != nil {
		return fmt.Errorf("store: refusing %s: %w", meta.Fingerprint, err)
	}

	// Transcode the staged stream into its columnar twin. Best-effort: a
	// stream whose records the decoder rejects finalizes without one, and
	// a query over it fails its rebuild the same way. A shard object
	// skips it; its first query builds the twin.
	if meta.Parent == "" {
		_, _ = writeFile(stage, "results.hbmc", true, transcode(filepath.Join(stage, "results.jsonl")))
	}

	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := writeFile(stage, "meta.json", false, bytesOf(append(mb, '\n'))); err != nil {
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
	mPutBytes.Add(meta.Bytes)
	return nil
}

// streamTap watches a stream while put stages it: it keeps the header
// line and counts newline-terminated lines and bytes.
type streamTap struct {
	header []byte
	lines  int
	bytes  int64
}

func (t *streamTap) Write(p []byte) (int, error) {
	if t.lines == 0 {
		line := p
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			line = p[:i+1]
		}
		t.header = append(t.header, line...)
	}
	t.lines += bytes.Count(p, []byte{'\n'})
	t.bytes += int64(len(p))
	return len(p), nil
}

// stamp fills meta with what the stream says about itself - the header's
// identity and lineage, the record and byte counts - and refuses a stream
// that is empty, has no valid sweep header, or is not the sweep meta
// addresses.
func (t *streamTap) stamp(meta *Meta) error {
	if t.bytes == 0 {
		return errors.New("empty stream")
	}
	h, err := core.ParseSweepHeader(t.header)
	if err != nil {
		return err
	}
	if h.Fingerprint != meta.Fingerprint || h.Kind != meta.Kind {
		return fmt.Errorf("stream holds %s sweep %s, not %s sweep %s", h.Kind, h.Fingerprint, meta.Kind, meta.Fingerprint)
	}
	meta.Cells, meta.Generation = h.Cells, h.Generation
	meta.Parent, meta.ShardStart, meta.ShardEnd = h.Parent, h.ShardStart, h.ShardEnd
	meta.Records, meta.Bytes = t.lines-1, t.bytes
	return nil
}

// writeFile writes one whole file in dir through fill, syncs it when sync
// is set, closes it, and removes it on any failure. name is the file's
// name, or an os.CreateTemp pattern when it holds a '*'. It returns the
// file's path.
func writeFile(dir, name string, sync bool, fill func(io.Writer) error) (string, error) {
	var f *os.File
	var err error
	if strings.Contains(name, "*") {
		f, err = os.CreateTemp(dir, name)
	} else {
		f, err = os.Create(filepath.Join(dir, name))
	}
	if err != nil {
		return "", err
	}
	err = fill(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// bytesOf is a writeFile fill that writes b.
func bytesOf(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// transcode is a writeFile fill that writes the columnar twin of the
// sweep JSONL at src.
func transcode(src string) func(io.Writer) error {
	return func(w io.Writer) error {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		h, recs, err := core.DecodeRecords("", f)
		if err != nil {
			return err
		}
		return core.EncodeColumnar(w, h, recs)
	}
}

// replaceFile writes a whole file under tmp/ (named by an os.CreateTemp
// pattern) and renames it to path, so a reader of path never sees it
// half-written.
func (s *Store) replaceFile(path, pattern string, sync bool, fill func(io.Writer) error) error {
	stage, err := writeFile(filepath.Join(s.root, "tmp"), pattern, sync, fill)
	if err != nil {
		return err
	}
	if err := os.Rename(stage, path); err != nil {
		os.Remove(stage)
		return err
	}
	return nil
}

// GetColumnar opens the stored sweep's columnar twin and its metadata.
// The caller closes the reader. Returns ErrNotFound when the fingerprint
// has no finished sweep, and ErrNoColumnar when the sweep is stored but
// carries no twin (EnsureColumnar rebuilds it). A columnar hit refreshes
// the object's LRU recency just like a raw read.
func (s *Store) GetColumnar(fingerprint string) (io.ReadCloser, *Meta, error) {
	return s.open(fingerprint, "results.hbmc", fmt.Errorf("%w: %s", ErrNoColumnar, fingerprint), mReadsColumnar)
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
// is left untouched. The twin is staged under tmp/ and renamed into the
// object, so concurrent callers race safely (identical content by
// construction) and a crash leaves no half-written artifact. Returns
// ErrNotFound when the fingerprint has no finished sweep.
func (s *Store) EnsureColumnar(fingerprint string) error {
	dir, _, err := s.object(fingerprint)
	if err != nil {
		return err
	}
	dst := filepath.Join(dir, "results.hbmc")
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	if err := s.replaceFile(dst, "columnar-*", true, transcode(filepath.Join(dir, "results.jsonl"))); err != nil {
		return fmt.Errorf("store: transcoding %s: %w", fingerprint, err)
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
	dir, _, err := s.object(fingerprint)
	if err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, "results.hbmc")); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: dropping columnar twin of %s: %w", fingerprint, err)
	}
	mDrops.Inc()
	return nil
}

// walk calls visit with the path of every entry two levels under the
// store subtree sub: each object directory under objects/, each derived
// result under derived/.
func (s *Store) walk(sub string, visit func(path string)) error {
	top := filepath.Join(s.root, sub)
	shards, err := os.ReadDir(top)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(top, shard.Name()))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, e := range ents {
			visit(filepath.Join(top, shard.Name(), e.Name()))
		}
	}
	return nil
}

// List returns the metadata of every stored sweep, sorted by fingerprint.
func (s *Store) List() ([]Meta, error) {
	var out []Meta
	err := s.walk("objects", func(dir string) {
		// A half-visible entry is skipped rather than failing the listing.
		if meta, err := readMeta(filepath.Join(dir, "meta.json")); err == nil {
			out = append(out, *meta)
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}

// Count reports how many finished sweeps the store holds, by counting
// object directories without opening any metadata - cheap enough for a
// liveness probe to call on every poll.
func (s *Store) Count() (int, error) {
	n := 0
	err := s.walk("objects", func(string) { n++ })
	return n, err
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
	if err := s.replaceFile(path, "derived-*", false, bytesOf(data)); err != nil {
		return fmt.Errorf("store: caching derived %s: %w", key, err)
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

	err = s.walk("objects", func(dir string) {
		metaInfo, err := os.Stat(filepath.Join(dir, "meta.json"))
		if err != nil {
			return // half-visible entry; skip, as List does
		}
		var size int64
		if files, err := os.ReadDir(dir); err == nil {
			for _, f := range files {
				if fi, err := f.Info(); err == nil {
					size += fi.Size()
				}
			}
		}
		entries = append(entries, pruneEntry{path: dir, bytes: size, accessed: metaInfo.ModTime()})
		total += size
	})
	if err != nil {
		return 0, err
	}
	err = s.walk("derived", func(path string) {
		if fi, err := os.Stat(path); err == nil {
			entries = append(entries, pruneEntry{path: path, bytes: fi.Size(), accessed: fi.ModTime()})
			total += fi.Size()
		}
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
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
		if err := os.RemoveAll(e.path); err != nil {
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
