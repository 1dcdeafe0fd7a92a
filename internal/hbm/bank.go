package hbm

import (
	"hbmrd/internal/trr"
)

// Disturbance coupling weights by physical distance from the aggressor.
// Distance-1 neighbours take full dose; distance-2 neighbours a small
// fraction (the "blast radius" beyond immediate neighbours observed for
// real DRAM). Coupling never crosses subarray boundaries, which is what
// makes the paper's single-sided subarray-boundary discovery work.
const (
	coupleDist1 = 1.0
	coupleDist2 = 0.015
)

// maxColDisturbDist bounds the bitline blast radius of a column-read
// burst: victims further than this many rows from the open aggressor
// (still within the same subarray) take no column disturbance. Far
// beyond the distances the sweep runner probes, and it keeps the
// per-burst victim scan bounded.
const maxColDisturbDist = 16

// colDose records one column-read burst's worth of bitline disturbance
// pending against a victim row: the signed row distance from the
// aggressor to the victim, the read count, and a snapshot of the
// aggressor's image at burst time (nil = never written, reads as
// zeros). Like doseAbove/doseBelow, it materializes into flips at the
// victim's next restore.
type colDose struct {
	dist  int
	reads int
	agg   []byte
}

// rowState is the device-side state of one physical row. Rows materialize
// lazily: a bank only holds state for rows that an experiment has touched.
type rowState struct {
	// data is the stored image (RowBytes) or nil if never written; unwritten
	// rows read as zeros and take no disturbance flips.
	data []byte
	// parity holds one SECDED check byte per 8-byte word, present only if
	// the row was written while ECC was enabled.
	parity []byte
	// doseAbove/doseBelow accumulate disturbance from the physical
	// neighbours above (row+1 side) and below, in reference activations,
	// already amplification- and jitter-scaled.
	doseAbove, doseBelow float64
	// colDoses accumulates column-read (bitline) disturbance bursts from
	// aggressor rows in the same subarray (ColumnRead).
	colDoses []colDose
	// epoch counts restores (activate/refresh/write cycles); it seeds the
	// per-trial dose jitter.
	epoch uint64
	// jitter is the trial-jitter multiplier for the current epoch, drawn
	// at the epoch's first dose; 0 until then (the log-normal draw is
	// never 0).
	jitter float64
	// lastRestore is when the row's cells last had full charge.
	lastRestore TimePS
}

// bank models one DRAM bank: a row-state store, the open-row state machine,
// per-bank timing history, and the in-DRAM TRR engine.
type bank struct {
	ch            *Channel
	pseudo, index int

	open        bool
	openLogical int
	openPhys    int

	// ts holds the timing history the gate table indexes (see gates.go):
	// ACT time of the open interval, previous ACT/PRE, last RD/WR, the
	// write-recovery mark, and the channel's mirrored REF-cycle end.
	ts [numStates]TimePS

	rows map[int]*rowState
	trr  *trr.Engine
}

func newBank(ch *Channel, pseudo, index int, trrCfg trr.Config) (*bank, error) {
	eng, err := trr.NewEngine(trrCfg)
	if err != nil {
		return nil, err
	}
	b := &bank{
		ch:     ch,
		pseudo: pseudo,
		index:  index,
		rows:   make(map[int]*rowState),
		trr:    eng,
	}
	for s := range b.ts {
		b.ts[s] = tsFloor
	}
	return b, nil
}

// row returns the state for a physical row, creating it on first touch. A
// freshly created row is considered refreshed "now" (its content is
// undefined until written, so there is nothing older to corrupt).
func (b *bank) row(phys int, now TimePS) *rowState {
	if rs, ok := b.rows[phys]; ok {
		return rs
	}
	rs := &rowState{lastRestore: now}
	b.rows[phys] = rs
	return rs
}

// peek returns the state for a physical row without creating it.
func (b *bank) peek(phys int) *rowState { return b.rows[phys] }
