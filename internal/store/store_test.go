package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hbmrd/internal/core"
)

const testFP = "sha256:0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func testContent() string {
	return `{"hbmrd_sweep":1,"kind":"ber","fingerprint":"` + testFP + `","cells":2,"generation":1}` + "\n" +
		`{"Chip":0}` + "\n" + `{"Chip":1}` + "\n"
}

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGet(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)

	if s.Has(testFP) {
		t.Error("empty store claims the fingerprint")
	}
	if _, _, err := s.Get(testFP); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty store: err = %v, want ErrNotFound", err)
	}

	meta := Meta{Fingerprint: testFP, Kind: "ber", Cells: 2, Records: 2}
	if err := s.Put(meta, strings.NewReader(testContent())); err != nil {
		t.Fatal(err)
	}
	if !s.Has(testFP) {
		t.Error("stored sweep not found")
	}
	rc, got, err := s.Get(testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != testContent() {
		t.Error("stored content diverges")
	}
	if got.Kind != "ber" || got.Cells != 2 || got.Records != 2 || got.Bytes != int64(len(testContent())) {
		t.Errorf("meta = %+v", got)
	}

	path, _, err := s.Path(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != testContent() {
		t.Errorf("Path read: %v", err)
	}

	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Fingerprint != testFP {
		t.Errorf("List = %+v", list)
	}
}

func TestStorePutFileLeavesSource(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	src := filepath.Join(t.TempDir(), "spool.jsonl")
	if err := os.WriteFile(src, []byte(testContent()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.PutFile(Meta{Fingerprint: testFP, Kind: "ber"}, src); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Errorf("PutFile consumed the source: %v", err)
	}
	if !s.Has(testFP) {
		t.Error("stored sweep not found")
	}
}

// TestStorePutRace: concurrent finalizes of the same fingerprint all
// succeed, and exactly one object survives with the full content (losing
// a rename race is success - the content is identical by construction).
func TestStorePutRace(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Put(Meta{Fingerprint: testFP, Kind: "ber", Cells: 2, Records: 2},
				strings.NewReader(testContent()))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("putter %d: %v", i, err)
		}
	}
	rc, _, err := s.Get(testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if b, _ := io.ReadAll(rc); string(b) != testContent() {
		t.Error("raced store content diverges")
	}
	// No staging debris left behind.
	ents, err := os.ReadDir(filepath.Join(s.Root(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d staging directories left in tmp", len(ents))
	}
}

func TestStoreRejectsMalformedFingerprints(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	for _, fp := range []string{"", "sha256:", "sha256:xyz", "md5:aabbccdd", "sha256:AABBCCDD11223344", "sha256:../../../etc/passwd"} {
		if err := s.Put(Meta{Fingerprint: fp, Kind: "ber"}, strings.NewReader("x")); err == nil {
			t.Errorf("Put accepted fingerprint %q", fp)
		}
		if s.Has(fp) {
			t.Errorf("Has accepted fingerprint %q", fp)
		}
	}
	if err := s.Put(Meta{Fingerprint: testFP}, strings.NewReader("x")); err == nil {
		t.Error("Put accepted meta without a kind")
	}
}

// TestStorePutCountsRecords: Put sizes the sweep itself - record count
// and byte size come from the staged stream, not from the caller - so no
// consumer ever re-scans the JSONL to size a sweep.
func TestStorePutCountsRecords(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	// Deliberately wrong counts from the caller: Put must correct both.
	meta := Meta{Fingerprint: testFP, Kind: "ber", Cells: 2, Records: 99, Bytes: 1}
	if err := s.Put(meta, strings.NewReader(testContent())); err != nil {
		t.Fatal(err)
	}
	_, got, err := s.Path(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records != 2 {
		t.Errorf("Records = %d, want 2 (header excluded)", got.Records)
	}
	if got.Bytes != int64(len(testContent())) {
		t.Errorf("Bytes = %d, want %d", got.Bytes, len(testContent()))
	}
}

// TestStorePutReadsStream: Put is the one reader of what a stream says
// about itself. It fills the header's identity and lineage and the stream's
// record and byte counts over whatever the caller passed, reads a header
// followed by a record line longer than 1 MiB, and refuses an empty
// stream, one without a sweep header, and one whose header names another
// fingerprint or kind than the address it is stored under - leaving no
// object and no staging debris behind.
func TestStorePutReadsStream(t *testing.T) {
	t.Parallel()
	header := func(fp, kind, lineage string) string {
		return `{"hbmrd_sweep":1,"kind":"` + kind + `","fingerprint":"` + fp + `","cells":3,"generation":7` + lineage + "}\n"
	}
	otherFP := "sha256:abababababababababababababababababababababababababababababababab"
	long := `{"Chip":0,"Pad":"` + strings.Repeat("x", 1<<20+17) + `"}` + "\n"
	for _, tc := range []struct {
		name, body, wantErr string
		want                Meta
	}{
		{name: "empty", body: "", wantErr: "empty stream"},
		{name: "no header", body: `{"Chip":0,"Row":12}` + "\n", wantErr: core.ErrNoHeader.Error()},
		{name: "not json", body: "garbage\n", wantErr: core.ErrNoHeader.Error()},
		{name: "header without newline", body: strings.TrimSuffix(header(testFP, "ber", ""), "\n"), wantErr: core.ErrNoHeader.Error()},
		{name: "other fingerprint", body: header(otherFP, "ber", "") + `{"Chip":0}` + "\n", wantErr: "not ber sweep " + testFP},
		{name: "other kind", body: header(testFP, "hcfirst", "") + `{"Chip":0}` + "\n", wantErr: "holds hcfirst sweep"},
		{name: "header then long record", body: header(testFP, "ber", "") + long,
			want: Meta{Cells: 3, Generation: 7, Records: 1}},
		{name: "shard lineage", body: header(testFP, "ber", `,"parent":"`+otherFP+`","shard_start":4,"shard_end":7`) + `{"Chip":0}` + "\n" + `{"Chip":1}` + "\n",
			want: Meta{Cells: 3, Generation: 7, Records: 2, Parent: otherFP, ShardStart: 4, ShardEnd: 7}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := openTestStore(t)
			// Deliberately wrong header fields from the caller: Put must
			// take every one of them from the stream.
			meta := Meta{Fingerprint: testFP, Kind: "ber", Cells: 99, Generation: 99, Records: 99, Bytes: 1, Parent: otherFP, ShardStart: 1, ShardEnd: 2}
			err := s.Put(meta, strings.NewReader(tc.body))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if s.Has(testFP) {
					t.Error("refused stream was stored")
				}
				if ents, err := os.ReadDir(filepath.Join(s.Root(), "tmp")); err != nil || len(ents) != 0 {
					t.Errorf("refused put left %d staging entries (err %v)", len(ents), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := s.Path(testFP)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			want.Fingerprint, want.Kind, want.Bytes = testFP, "ber", int64(len(tc.body))
			if got.Cells != want.Cells || got.Generation != want.Generation || got.Records != want.Records ||
				got.Bytes != want.Bytes || got.Parent != want.Parent || got.ShardStart != want.ShardStart || got.ShardEnd != want.ShardEnd {
				t.Errorf("meta = %+v, want %+v", *got, want)
			}
		})
	}
}

// TestStoreCatalogMetaRoundTrips: the optional catalog fields (geometry,
// chips, generation, raw config) persist through Put and List.
func TestStoreCatalogMetaRoundTrips(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	meta := Meta{
		Fingerprint: testFP, Kind: "ber", Cells: 2, Generation: 1,
		Geometry: "HBM2_8Gb", Chips: []int{0, 5}, Config: []byte(`{"Reps":1}`),
	}
	if err := s.Put(meta, strings.NewReader(testContent())); err != nil {
		t.Fatal(err)
	}
	list, err := s.List()
	if err != nil || len(list) != 1 {
		t.Fatalf("List: %v (%d entries)", err, len(list))
	}
	got := list[0]
	if got.Geometry != "HBM2_8Gb" || got.Generation != 1 ||
		len(got.Chips) != 2 || got.Chips[0] != 0 || got.Chips[1] != 5 ||
		string(got.Config) != `{"Reps":1}` {
		t.Errorf("catalog meta = %+v", got)
	}
}

// TestStoreDerived: derived results round-trip under their content key,
// miss with ErrNotFound, and reject malformed keys.
func TestStoreDerived(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	key := "sha256:aaaa567890abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, err := s.GetDerived(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetDerived on empty store: %v, want ErrNotFound", err)
	}
	if err := s.PutDerived(key, []byte(`{"groups":[]}`+"\n")); err != nil {
		t.Fatal(err)
	}
	b, err := s.GetDerived(key)
	if err != nil || string(b) != `{"groups":[]}`+"\n" {
		t.Errorf("GetDerived = %q, %v", b, err)
	}
	if err := s.PutDerived("not-an-address", nil); err == nil {
		t.Error("malformed derived key accepted")
	}
}

// TestStorePruneLRU: Prune evicts least-recently-accessed entries - sweep
// objects (with their columnar twins) and derived results alike - until
// the payload fits the budget, and a Get or GetColumnar refreshes recency
// so hot sweeps survive. The object mix is deliberately old/new: one
// stale sweep has its twin stripped (an object finalized before the
// columnar format existed) and must still be sized and evicted correctly.
func TestStorePruneLRU(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	fps := []string{
		"sha256:1111111111111111111111111111111111111111111111111111111111111111",
		"sha256:2222222222222222222222222222222222222222222222222222222222222222",
		"sha256:3333333333333333333333333333333333333333333333333333333333333333",
	}
	for _, fp := range fps {
		content := strings.Replace(testContent(), testFP, fp, 1)
		if err := s.Put(Meta{Fingerprint: fp, Kind: "ber", Cells: 2}, strings.NewReader(content)); err != nil {
			t.Fatal(err)
		}
	}
	// fps[1] predates the columnar format: strip its twin.
	oldDir, err := s.objectDir(fps[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(oldDir, "results.hbmc")); err != nil {
		t.Fatal(err)
	}
	dkey := "sha256:4444444444444444444444444444444444444444444444444444444444444444"
	if err := s.PutDerived(dkey, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}

	// Age the access stamps explicitly: fps[0] oldest, then the derived
	// result, then fps[1]; fps[2] stays newest.
	base := time.Now().Add(-time.Hour)
	stamp := func(addr string, age time.Duration, derived bool) {
		var path string
		var err error
		if derived {
			path, err = s.derivedPath(addr)
		} else {
			var dir string
			dir, err = s.objectDir(addr)
			path = filepath.Join(dir, "meta.json")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, base.Add(age), base.Add(age)); err != nil {
			t.Fatal(err)
		}
	}
	stamp(fps[0], 0, false)
	stamp(dkey, time.Minute, true)
	stamp(fps[1], 2*time.Minute, false)
	stamp(fps[2], 3*time.Minute, false)

	// A columnar read on the oldest sweep refreshes it past everything
	// else, exactly as a raw Get would.
	rc, _, err := s.GetColumnar(fps[0])
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()

	// Budget for exactly one sweep object - results.jsonl plus its
	// columnar twin plus meta.json; the twin counts toward the budget -
	// so the derived result and the two stale sweeps go, the refreshed
	// one stays.
	dir, err := s.objectDir(fps[0])
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keep int64
	sawTwin := false
	for _, f := range files {
		fi, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		keep += fi.Size()
		sawTwin = sawTwin || f.Name() == "results.hbmc"
	}
	if !sawTwin {
		t.Fatal("finalized object has no columnar twin to account for")
	}
	removed, err := s.Prune(keep)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Errorf("Prune removed %d entries, want 3", removed)
	}
	if !s.Has(fps[0]) {
		t.Error("recently accessed sweep was evicted")
	}
	if s.Has(fps[1]) || s.Has(fps[2]) {
		t.Error("stale sweep survived the budget")
	}
	if _, err := s.GetDerived(dkey); !errors.Is(err, ErrNotFound) {
		t.Error("stale derived result survived the budget")
	}

	// A later identical Put restores a pruned address.
	content := strings.Replace(testContent(), testFP, fps[1], 1)
	if err := s.Put(Meta{Fingerprint: fps[1], Kind: "ber", Cells: 2}, strings.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(fps[1]) {
		t.Error("re-put after prune not visible")
	}
}

// TestStoreColumnarTwin: Put transcodes the finalized stream into a
// columnar twin under the same fingerprint; GetColumnar serves it and
// decodes back to the exact records of the JSONL; a shard stream and a
// stream with an undecodable record finalize without a twin and
// GetColumnar reports ErrNoColumnar.
func TestStoreColumnarTwin(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	// Byte-identity through the twin only holds for streams in canonical
	// EncodeRecords form (the only form the pipeline ever finalizes), so
	// normalize the shorthand test content first.
	raw := strings.ReplaceAll(testContent(), `{"Chip":0}`, `{"Chip":0,"Pattern":"Rowstripe0"}`)
	raw = strings.ReplaceAll(raw, `{"Chip":1}`, `{"Chip":1,"Pattern":"Checkered1"}`)
	hdr, recs, err := core.DecodeRecords("", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if err := core.EncodeRecords(&canon, hdr, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Meta{Fingerprint: testFP, Kind: "ber"}, bytes.NewReader(canon.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !s.HasColumnar(testFP) {
		t.Fatal("finalized sweep has no columnar twin")
	}
	rc, meta, err := s.GetColumnar(testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if meta.Kind != "ber" {
		t.Errorf("columnar meta kind = %q", meta.Kind)
	}
	cs, err := core.DecodeColumnar(rc)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Header.Fingerprint != testFP || cs.Len() != 2 {
		t.Fatalf("columnar twin header %+v, %d rows", cs.Header, cs.Len())
	}
	back, err := cs.Records()
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := core.EncodeRecords(&re, cs.Header, back); err != nil {
		t.Fatal(err)
	}
	if re.String() != canon.String() {
		t.Error("columnar twin does not re-encode to the stored JSONL")
	}

	// A shard object (lineage in its header) finalizes without a twin; the
	// first query of it builds one through EnsureColumnar.
	shardFP := core.ShardFingerprint(testFP, 0, 2)
	shardHdr := hdr
	shardHdr.Fingerprint, shardHdr.Parent, shardHdr.ShardStart, shardHdr.ShardEnd = shardFP, testFP, 0, 2
	var shard bytes.Buffer
	if err := core.EncodeRecords(&shard, shardHdr, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Meta{Fingerprint: shardFP, Kind: "ber"}, bytes.NewReader(shard.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, meta, err := s.Path(shardFP); err != nil || meta.Parent != testFP || meta.ShardStart != 0 || meta.ShardEnd != 2 {
		t.Errorf("shard object meta = %+v (err %v), want the header's lineage", meta, err)
	}
	if _, _, err := s.GetColumnar(shardFP); !errors.Is(err, ErrNoColumnar) {
		t.Errorf("GetColumnar on a fresh shard object: %v, want ErrNoColumnar", err)
	}
	if err := s.EnsureColumnar(shardFP); err != nil || !s.HasColumnar(shardFP) {
		t.Errorf("EnsureColumnar left the shard object without a twin (err %v)", err)
	}

	// A stream with a valid header but a record the decoder rejects
	// finalizes without a twin; one with no header is refused.
	junkFP := "sha256:9999999999999999999999999999999999999999999999999999999999999999"
	junk := `{"hbmrd_sweep":1,"kind":"ber","fingerprint":"` + junkFP + `","cells":1,"generation":1}` + "\n" + `{"NoSuchField":1}` + "\n"
	if err := s.Put(Meta{Fingerprint: junkFP, Kind: "ber"}, strings.NewReader(junk)); err != nil {
		t.Fatal(err)
	}
	if s.HasColumnar(junkFP) {
		t.Error("undecodable stream grew a columnar twin")
	}
	if _, _, err := s.GetColumnar(junkFP); !errors.Is(err, ErrNoColumnar) {
		t.Errorf("GetColumnar on twin-less object: %v, want ErrNoColumnar", err)
	}
	bareFP := "sha256:7777777777777777777777777777777777777777777777777777777777777777"
	if err := s.Put(Meta{Fingerprint: bareFP, Kind: "ber"}, strings.NewReader("not a sweep\n")); err == nil || s.Has(bareFP) {
		t.Errorf("header-less stream stored (err %v)", err)
	}
	if _, _, err := s.GetColumnar("sha256:" + strings.Repeat("ab", 32)); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetColumnar on absent object: %v, want ErrNotFound", err)
	}
}

// TestEnsureColumnarBackfill: an object finalized without a twin (a store
// populated before the format existed) is backfilled in place, and the
// call is idempotent.
func TestEnsureColumnarBackfill(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	if err := s.Put(Meta{Fingerprint: testFP, Kind: "ber", Cells: 2}, strings.NewReader(testContent())); err != nil {
		t.Fatal(err)
	}
	dir, err := s.objectDir(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "results.hbmc")); err != nil {
		t.Fatal(err)
	}
	if s.HasColumnar(testFP) {
		t.Fatal("twin still present after strip")
	}
	if err := s.EnsureColumnar(testFP); err != nil {
		t.Fatal(err)
	}
	if !s.HasColumnar(testFP) {
		t.Fatal("EnsureColumnar left no twin")
	}
	before, err := os.Stat(filepath.Join(dir, "results.hbmc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnsureColumnar(testFP); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, "results.hbmc"))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("idempotent EnsureColumnar rewrote the twin")
	}
	if err := s.EnsureColumnar("sha256:" + strings.Repeat("cd", 32)); !errors.Is(err, ErrNotFound) {
		t.Errorf("EnsureColumnar on absent object: %v, want ErrNotFound", err)
	}
}

// TestStoreCount: the cheap catalog-size probe matches List without
// reading metadata.
func TestStoreCount(t *testing.T) {
	t.Parallel()
	s := openTestStore(t)
	if n, err := s.Count(); err != nil || n != 0 {
		t.Errorf("empty Count = %d, %v", n, err)
	}
	for _, fp := range []string{
		"sha256:5555555555555555555555555555555555555555555555555555555555555555",
		"sha256:6666666666666666666666666666666666666666666666666666666666666666",
	} {
		content := strings.Replace(testContent(), testFP, fp, 1)
		if err := s.Put(Meta{Fingerprint: fp, Kind: "ber", Cells: 2}, strings.NewReader(content)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Count(); err != nil || n != 2 {
		t.Errorf("Count = %d, %v, want 2", n, err)
	}
}
