package hbm

import (
	"bytes"
	"fmt"
	"testing"
)

// TestFullRowWriteMatchesPerColumnWrite pins the full-row write
// composites, whose ACT skips evaluating the flips of the row it is about
// to overwrite: WriteRow and FillRow over a row with pending wordline,
// column and retention disturbance must leave everything observable as
// Activate + one Write per column + Precharge leaves it - the written
// bytes, the channel clock, and the flips a later hammer and read produce
// (the skipped evaluation must not change restore epochs, and so the
// trial jitter), with ECC on and off.
func TestFullRowWriteMatchesPerColumnWrite(t *testing.T) {
	t.Parallel()
	const (
		pc, bank = 1, 3
		victim   = 3000
		colAggr  = victim + 4 // column-read aggressor in the victim's subarray
	)
	data := make([]byte, RowBytes)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}

	type outcome struct {
		rows [][]byte // victim-2 .. victim+2, after the write and after a later hammer
		now  TimePS
	}
	// run disturbs the victim (double-sided hammer, a column-read burst,
	// and a retention wait), overwrites it with write, then reads the
	// neighbourhood before and after a second hammer.
	run := func(t *testing.T, ecc bool, write func(ch *Channel) error) outcome {
		c := newTestChip(t, 2)
		c.SetECC(ecc)
		if !c.Model().Floorplan().SameSubarray(victim, colAggr) {
			t.Fatalf("rows %d and %d straddle a subarray boundary", victim, colAggr)
		}
		ch := channelOf(t, c, 1)
		initNeighborhood(t, ch, pc, bank, victim, 0x55)
		if err := ch.FillRow(pc, bank, colAggr, 0xAA); err != nil {
			t.Fatal(err)
		}
		if err := ch.HammerDoubleSided(pc, bank, victim-1, victim+1, 300_000, 0); err != nil {
			t.Fatal(err)
		}
		if err := ch.ColumnRead(pc, bank, colAggr, 200_000); err != nil {
			t.Fatal(err)
		}
		ch.Wait(2 * SEC)
		if err := write(ch); err != nil {
			t.Fatal(err)
		}
		var out outcome
		read := func() {
			for r := victim - 2; r <= victim+2; r++ {
				buf := make([]byte, RowBytes)
				if err := ch.ReadRow(pc, bank, r, buf); err != nil {
					t.Fatal(err)
				}
				out.rows = append(out.rows, buf)
			}
		}
		read()
		if err := ch.HammerDoubleSided(pc, bank, victim-1, victim+1, 1_000_000, 0); err != nil {
			t.Fatal(err)
		}
		read()
		out.now = ch.Now()
		return out
	}
	perColumn := func(img []byte) func(ch *Channel) error {
		return func(ch *Channel) error {
			if err := ch.Activate(pc, bank, victim); err != nil {
				return err
			}
			for col := 0; col < NumCols; col++ {
				if err := ch.Write(pc, bank, col, img[col*ColBytes:]); err != nil {
					return err
				}
			}
			return ch.Precharge(pc, bank)
		}
	}

	for _, ecc := range []bool{false, true} {
		// The pending disturbance must be real: a read in place of the
		// write observes flips, so the composites do skip evaluating them.
		pending := run(t, ecc, func(ch *Channel) error { return nil })
		if countDiff(pending.rows[2], fill(0x55)) == 0 {
			t.Fatalf("ecc=%v: test vacuous, the victim holds no pending flips", ecc)
		}
		for _, tc := range []struct {
			name  string
			img   []byte
			write func(ch *Channel) error
		}{
			{"WriteRow", data, func(ch *Channel) error { return ch.WriteRow(pc, bank, victim, data) }},
			{"FillRow", fill(0x33), func(ch *Channel) error { return ch.FillRow(pc, bank, victim, 0x33) }},
		} {
			t.Run(fmt.Sprintf("%s/ecc=%v", tc.name, ecc), func(t *testing.T) {
				got := run(t, ecc, tc.write)
				want := run(t, ecc, perColumn(tc.img))
				if !bytes.Equal(got.rows[2], tc.img) {
					t.Errorf("written row reads back %d bits off its image", countDiff(got.rows[2], tc.img))
				}
				if got.now != want.now {
					t.Errorf("clock %d after the composite, %d after per-column writes", got.now, want.now)
				}
				for i := range want.rows {
					if !bytes.Equal(got.rows[i], want.rows[i]) {
						t.Errorf("read %d (row %d): %d bits differ from the per-column twin",
							i, victim-2+i%5, countDiff(got.rows[i], want.rows[i]))
					}
				}
				if countDiff(want.rows[7], tc.img) == 0 {
					t.Error("test vacuous: the later hammer flipped nothing in the victim")
				}
			})
		}
	}
}
