package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hbmrd/internal/core"
	"hbmrd/internal/store"
)

// storedSweep is a stored sweep that passed its output checks.
type storedSweep struct {
	raw       []byte // results.jsonl, header line first
	footprint int64  // JSONL plus .hbmc bytes on disk
	records   int
}

// checkStored verifies the sweep stored at fp: its JSONL decodes through
// core.DecodeRecords and passes core.VerifyComplete, and its columnar
// twin decodes through core.DecodeColumnar to the same record count.
func checkStored(st *store.Store, fp string) (storedSweep, error) {
	var out storedSweep
	rc, meta, err := st.Get(fp)
	if err != nil {
		return out, fmt.Errorf("get %s: %w", fp, err)
	}
	raw, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return out, fmt.Errorf("read %s: %w", fp, err)
	}
	h, recs, err := core.DecodeRecords(core.Kind(meta.Kind), bytes.NewReader(raw))
	if err != nil {
		return out, fmt.Errorf("decode %s: %w", fp, err)
	}
	if h.Fingerprint != fp {
		return out, fmt.Errorf("object %s holds sweep %s", fp, h.Fingerprint)
	}
	if err := core.VerifyComplete(h, recs); err != nil {
		return out, fmt.Errorf("verify %s: %w", fp, err)
	}
	n := core.RecordCount(recs)
	crc, _, err := st.GetColumnar(fp)
	if err != nil {
		return out, fmt.Errorf("columnar twin of %s: %w", fp, err)
	}
	cs, err := core.DecodeColumnar(crc)
	crc.Close()
	if err != nil {
		return out, fmt.Errorf("decode columnar %s: %w", fp, err)
	}
	if cs.Len() != n {
		return out, fmt.Errorf("columnar twin of %s holds %d records, JSONL %d", fp, cs.Len(), n)
	}
	path, _, err := st.Path(fp)
	if err != nil {
		return out, err
	}
	twin, err := os.Stat(filepath.Join(filepath.Dir(path), "results.hbmc"))
	if err != nil {
		return out, fmt.Errorf("columnar twin of %s: %w", fp, err)
	}
	return storedSweep{raw: raw, footprint: int64(len(raw)) + twin.Size(), records: n}, nil
}
