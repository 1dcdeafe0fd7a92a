package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hbmrd"
	"hbmrd/internal/query"
	"hbmrd/internal/report"
	"hbmrd/internal/store"
)

// TestFigureArtifactsMatchQuery runs every figure artifact at demo scale
// on chip 0 with -out, stores the file, and requires the artifact's table
// to equal, byte for byte, what POST /query answers for the artifact's
// preset over that stored sweep (Engine.Run of the preset, rendered as
// `hbmrd query -figure` renders it). One more run takes a -shard range,
// whose table names the shard's sub-fingerprint.
func TestFigureArtifactsMatchQuery(t *testing.T) {
	type artifactRun struct {
		name  string
		shard *hbmrd.ShardRange
	}
	var runs []artifactRun
	for name := range figures {
		runs = append(runs, artifactRun{name: name})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].name < runs[j].name })
	runs = append(runs, artifactRun{"fig5", &hbmrd.ShardRange{Start: 1, End: 3}})
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(st)
	for _, r := range runs {
		name, fig := r.name, figures[r.name]
		label := name
		if r.shard != nil {
			label = fmt.Sprintf("%s_shard_%d_%d", name, r.shard.Start, r.shard.End)
		}
		t.Run(label, func(t *testing.T) {
			if testing.Short() && name == "fig16" {
				t.Skip("fig16 runs a full refresh window per victim; skipped in -short")
			}
			path := filepath.Join(t.TempDir(), name+".jsonl")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			c := runCtx{chips: []int{0}, out: hbmrd.NewJSONLFileSink(f), shard: r.shard, label: name}
			out, err := fig.run(context.Background(), c)
			if err == nil {
				err = c.out.Err()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			meta, err := query.Ingest(st, path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := query.FigureSpec(fig.preset, meta.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if want := report.AggregateTable(&res.Aggregate); out != want {
				t.Errorf("artifact %s printed\n%s\nPOST /query of %s over its -out file answers\n%s", name, out, fig.preset, want)
			}
		})
	}
}

// TestAllRejectsResultsFile: -out, -resume and -shard name one sweep, so
// with "all" they fail before any results file is created.
func TestAllRejectsResultsFile(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "all.jsonl")
	for _, flag := range [][]string{{"-out", path}, {"-resume", path}, {"-shard", "0:1"}} {
		err := run(context.Background(), append([]string{"-chips", "0"}, append(flag, "all")...))
		if err == nil || !strings.Contains(err.Error(), `not "all"`) {
			t.Errorf("%s with all: err = %v, want the \"all\" rejection", flag[0], err)
		}
		if _, serr := os.Stat(path); !errors.Is(serr, fs.ErrNotExist) {
			t.Errorf("%s with all left %s behind (stat: %v)", flag[0], path, serr)
		}
	}
}
