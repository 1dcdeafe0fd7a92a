// Command resume-and-serve walks the durability layer end to end, the
// same machinery `hbmrd -out/-resume` and the hbmrdd service run on:
//
//  1. stream a BER sweep to a JSONL file and cancel it partway through,
//  2. resume from the truncated file's valid prefix and finish it
//     byte-identically to an uninterrupted run,
//  3. finalize the finished sweep into a content-addressed store and
//     serve a repeat of the identical sweep spec from disk, without
//     re-executing anything.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"hbmrd"
)

// cancelAfter cancels a sweep once n cells have completed, standing in
// for the Ctrl-C (or SIGTERM) that interrupts a real campaign.
type cancelAfter struct {
	cancel context.CancelFunc
	after  int
}

func (s *cancelAfter) Start(int) {}
func (s *cancelAfter) Progress(done, _ int) {
	if done == s.after {
		s.cancel()
	}
}
func (s *cancelAfter) Record(any)   {}
func (s *cancelAfter) Finish(error) {}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "resume-and-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	newFleet := func() ([]*hbmrd.TestChip, error) {
		return hbmrd.NewFleet([]int{0, 1}, hbmrd.WithIdentityMapping())
	}
	cfg := hbmrd.BERConfig{
		Channels: []int{0, 1},
		Rows:     hbmrd.SampleRows(6),
		Patterns: []hbmrd.Pattern{hbmrd.Rowstripe0, hbmrd.Checkered0},
		Reps:     1,
	}

	// Reference: the same sweep, uninterrupted.
	fleet, err := newFleet()
	if err != nil {
		return err
	}
	refPath := filepath.Join(dir, "reference.jsonl")
	rf, err := os.Create(refPath)
	if err != nil {
		return err
	}
	refSink := hbmrd.NewJSONLFileSink(rf)
	if _, err := hbmrd.RunBERContext(context.Background(), fleet, cfg, hbmrd.WithSink(refSink)); err != nil {
		return err
	}
	if err := refSink.Err(); err != nil {
		return err
	}
	rf.Close()
	ref, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	fmt.Printf("uninterrupted run: %d bytes\n", len(ref))

	// 1. The interrupted campaign: cancel after 5 of 24 cells.
	outPath := filepath.Join(dir, "results.jsonl")
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fleet, err = newFleet()
	if err != nil {
		return err
	}
	_, err = hbmrd.RunBERContext(ctx, fleet, cfg, hbmrd.WithJobs(2),
		hbmrd.WithSink(hbmrd.MultiSink(hbmrd.NewJSONLFileSink(f), &cancelAfter{cancel: cancel, after: 5})))
	f.Close()
	fmt.Printf("interrupted run:   %v\n", err)

	// 2. Resume: read the valid prefix back, skip its cells, finish the
	// file. ResumeFrom validates the header; the runner validates that the
	// fingerprint still matches this config, chip set, and code build.
	f, err = os.OpenFile(outPath, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	cp, err := hbmrd.ResumeFrom(f)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint:        %d complete records (%d bytes valid)\n", cp.Records(), cp.ValidBytes())
	fleet, err = newFleet()
	if err != nil {
		return err
	}
	sink := hbmrd.NewJSONLFileSink(f)
	if _, err := hbmrd.RunBERContext(context.Background(), fleet, cfg,
		hbmrd.WithSink(sink), hbmrd.WithResume(cp)); err != nil {
		return err
	}
	if err := sink.Err(); err != nil {
		return err
	}
	f.Close()
	resumed, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	fmt.Printf("resumed run:       %d bytes, byte-identical: %v\n", len(resumed), bytes.Equal(resumed, ref))

	// 3. Durability: finalize into the content-addressed store, then
	// serve a repeat of the identical spec from disk - the same dedup
	// hbmrdd performs on every POST /sweeps.
	st, err := hbmrd.OpenSweepStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	// The caller names the address and kind; the store reads the rest
	// (cells, generation, record and byte counts) from the file itself.
	fp := cp.Header.Fingerprint
	if err := st.PutFile(hbmrd.SweepStoreMeta{Fingerprint: fp, Kind: cp.Header.Kind}, outPath); err != nil {
		return err
	}

	// "Would this exact sweep re-run?" is one fingerprint computation.
	fleet, err = newFleet()
	if err != nil {
		return err
	}
	again, err := hbmrd.SweepFingerprint(hbmrd.KindBER, fleet, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("repeat spec:       fingerprint match %v, store hit %v\n", again == fp, st.Has(again))
	rc, meta, err := st.Get(again)
	if err != nil {
		return err
	}
	defer rc.Close()
	served, err := io.ReadAll(rc)
	if err != nil {
		return err
	}
	fmt.Printf("served from store: %d records, %d bytes, byte-identical: %v\n",
		meta.Records, len(served), bytes.Equal(served, ref))
	return nil
}
