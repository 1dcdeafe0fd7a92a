package hbm

import (
	"fmt"

	"hbmrd/internal/ecc"
)

// This file provides the row-level convenience operations experiments use:
// whole-row writes and reads (composed of JEDEC commands with automatic
// timing) and the batched hammer paths that make paper-scale hammer counts
// tractable. The batched paths are exactly equivalent to issuing the
// corresponding ACT/PRE sequences one by one (a property the test suite
// verifies) but run in O(1) per burst, mirroring the hardware loop
// instructions of the real DRAM Bender platform.

// WriteRow activates a logical row, writes all its columns from data
// (Geometry().RowBytes bytes), and precharges. The write replaces every
// cell (and, with ECC on, every check byte), so the flips the ACT would
// materialize from pending disturbance are never observable: the ACT skips
// evaluating them but still restores the row (doses cleared, retention
// clock and restore epoch advanced), so the result equals Activate, a
// Write per column, and Precharge.
func (ch *Channel) WriteRow(pc, bankIdx, row int, data []byte) error {
	if len(data) < ch.geom.RowBytes {
		return fmt.Errorf("%w: need %d bytes", ErrShortBuffer, ch.geom.RowBytes)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.writeRowLocked(pc, bankIdx, row, data)
}

// writeRowLocked is the full-row write composite. Skipping the ACT's flip
// evaluation is safe because the column burst cannot fail once the ACT
// succeeded: it only re-checks the bank the ACT opened, and its gate runs
// in forced-auto mode.
func (ch *Channel) writeRowLocked(pc, bankIdx, row int, data []byte) error {
	if err := ch.activateLocked(pc, bankIdx, row, true); err != nil {
		return err
	}
	if err := ch.writeColumnsLocked(pc, bankIdx, data); err != nil {
		return err
	}
	return ch.prechargeLocked(pc, bankIdx, true)
}

// writeColumnsLocked writes every column of the open row in one burst:
// the bounds, bank and timing checks of the per-column loop are hoisted
// out (tRCD and tCCD_L gate the first WR, every later WR lands exactly
// max(tCK, tCCD_L) after its predecessor — the same schedule the
// per-command loop converges to), and the data moves with one copy. The
// burst is the only column path: composites gate their opening ACT under
// the channel's timing mode, and their interior commands always run at
// this earliest-legal cadence (see gateLocked), so strict mode shares the
// bulk fast path instead of falling back to per-command issue.
func (ch *Channel) writeColumnsLocked(pc, bankIdx int, data []byte) error {
	b, step, err := ch.burstGateLocked(cmdWR, pc, bankIdx)
	if err != nil {
		return err
	}
	rs := b.row(b.openPhys, ch.now)
	if rs.data == nil {
		rs.data = make([]byte, ch.geom.RowBytes)
	}
	copy(rs.data, data[:ch.geom.RowBytes])
	if ch.chip.modeRegs.ECCEnabled {
		if rs.parity == nil {
			rs.parity = make([]byte, ch.geom.RowBytes/ecc.WordBytes)
		}
		cb := ch.geom.ColBytes
		for col := 0; col < ch.geom.Cols(); col++ {
			updateParityColumn(rs.data, rs.parity, col*cb, cb)
		}
	}
	b.ts[tsLastRW] = ch.now + TimePS(ch.geom.Cols()-1)*step
	b.ts[tsWrRW] = b.ts[tsLastRW]
	ch.now = b.ts[tsLastRW] + ch.chip.timing.TCK
	return nil
}

// burstGateLocked runs the shared preamble of a bulk column burst: bank
// lookup, open-row check, one gate-table probe covering the burst's first
// command (tRCD and tCCD_L), and the per-column step the per-command loop
// converges to (each command advances the clock by tCK, the next is gated
// on tCCD_L). Interior commands of a composite always run at the
// earliest-legal cadence, so the probe forces auto mode.
func (ch *Channel) burstGateLocked(cmd command, pc, bankIdx int) (*bank, TimePS, error) {
	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return nil, 0, err
	}
	if !b.open {
		return nil, 0, ErrBankClosed
	}
	if err := ch.gateLocked(cmd, &b.ts, true); err != nil {
		return nil, 0, err
	}
	t := ch.chip.timing
	step := t.TCK
	if t.TCCDL > step {
		step = t.TCCDL
	}
	return b, step, nil
}

// FillRow writes the same byte to every cell of a logical row, as WriteRow
// does (pending disturbance of the overwritten row is not evaluated). The
// fill data is staged in a per-channel buffer reused across calls (and
// kept when consecutive fills use the same byte), so hot loops (pattern
// initialization before every hammer) do not allocate.
func (ch *Channel) FillRow(pc, bankIdx, row int, fill byte) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.fillBuf == nil {
		ch.fillBuf = make([]byte, ch.geom.RowBytes)
		ch.fillOK = false
	}
	if !ch.fillOK || ch.fillByte != fill {
		// Doubling copies run at memmove speed; pattern init alternates
		// victim and aggressor bytes, so this refill runs on nearly every
		// call, and a byte-at-a-time loop here costs as much as the write.
		buf := ch.fillBuf
		buf[0] = fill
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n])
		}
		ch.fillByte, ch.fillOK = fill, true
	}
	return ch.writeRowLocked(pc, bankIdx, row, ch.fillBuf)
}

// ReadRow activates a logical row, reads all its columns into buf
// (Geometry().RowBytes bytes), and precharges. Activation materializes any
// pending disturbance first, so this is how experiments observe bitflips.
func (ch *Channel) ReadRow(pc, bankIdx, row int, buf []byte) error {
	if len(buf) < ch.geom.RowBytes {
		return fmt.Errorf("%w: need %d bytes", ErrShortBuffer, ch.geom.RowBytes)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if err := ch.activateLocked(pc, bankIdx, row, false); err != nil {
		return err
	}
	if err := ch.readColumnsLocked(pc, bankIdx, buf); err != nil {
		return err
	}
	return ch.prechargeLocked(pc, bankIdx, true)
}

// readColumnsLocked is the read half of the bulk column path; see
// writeColumnsLocked for the timing reasoning.
func (ch *Channel) readColumnsLocked(pc, bankIdx int, buf []byte) error {
	b, step, err := ch.burstGateLocked(cmdRD, pc, bankIdx)
	if err != nil {
		return err
	}
	n := ch.geom.RowBytes
	rs := b.peek(b.openPhys)
	if rs == nil || rs.data == nil {
		for i := 0; i < n; i++ {
			buf[i] = 0
		}
	} else {
		copy(buf[:n], rs.data[:n])
		if ch.chip.modeRegs.ECCEnabled && rs.parity != nil {
			cb := ch.geom.ColBytes
			for col := 0; col < ch.geom.Cols(); col++ {
				correctColumn(buf[col*cb:(col+1)*cb], rs.parity, col*cb, cb)
			}
		}
	}
	b.ts[tsLastRW] = ch.now + TimePS(ch.geom.Cols()-1)*step
	if b.ts[tsWrRW] != tsFloor {
		b.ts[tsWrRW] = b.ts[tsLastRW]
	}
	ch.now = b.ts[tsLastRW] + ch.chip.timing.TCK
	return nil
}

// ColumnRead opens a logical row and streams `reads` back-to-back column
// reads through it before precharging - the ColumnDisturb access pattern
// (arXiv 2510.14750). Unlike hammering, the disturbance is carried by the
// bitlines: every materialized row sharing the aggressor's subarray
// within the blast radius accrues a pending column dose, scaled by the
// read count and the data pattern, on top of the ordinary long-open
// (RowPress) wordline dose on the immediate neighbours. Equivalent to
// ACT + reads*RD + PRE, in O(1).
func (ch *Channel) ColumnRead(pc, bankIdx, row, reads int) error {
	if row < 0 || row >= ch.geom.Rows {
		return fmt.Errorf("hbm: row %d out of range", row)
	}
	if reads < 0 {
		return fmt.Errorf("hbm: negative column read count %d", reads)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()

	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return err
	}
	if b.open {
		return fmt.Errorf("%w: %s", ErrBankOpen, Addr{ch.index, pc, bankIdx, b.openLogical})
	}
	if reads == 0 {
		return nil
	}

	// The row stays open for the whole read burst at the bulk column
	// cadence (see burstGateLocked), never less than tRAS.
	t := ch.chip.timing
	step := t.TCK
	if t.TCCDL > step {
		step = t.TCCDL
	}
	onTime := TimePS(reads) * step
	if onTime < t.TRAS {
		onTime = t.TRAS
	}
	perAct := t.TRC
	if onTime+t.TRP > perAct {
		perAct = onTime + t.TRP
	}

	phys := ch.chip.mapper.ToPhysical(row)
	rs := b.row(phys, ch.now)
	ch.restoreLocked(pc, bankIdx, b, phys, rs)
	b.trr.OnActivateN(phys, 1)
	ch.applyDoseLocked(pc, bankIdx, b, phys, 1, onTime, nil)
	ch.applyColDisturbLocked(b, phys, rs, reads)

	ch.now += perAct
	b.ts[tsLastAct] = ch.now
	b.ts[tsLastPre] = ch.now
	return nil
}

// HammerDoubleSided performs the paper's double-sided access pattern: it
// alternately activates the two aggressor rows `count` times each, keeping
// each activation open for tOn (clamped up to tRAS). Equivalent to the
// explicit ACT/wait/PRE loop, in O(1).
func (ch *Channel) HammerDoubleSided(pc, bankIdx, rowA, rowB, count int, tOn TimePS) error {
	rows := [2]int{rowA, rowB}
	counts := [2]int{count, count}
	return ch.hammer(pc, bankIdx, rows[:], counts[:], tOn, true)
}

// HammerSingleSided activates one aggressor row `count` times. Single-sided
// hammering is the paper's tool for discovering subarray boundaries and
// physical adjacency.
func (ch *Channel) HammerSingleSided(pc, bankIdx, row, count int, tOn TimePS) error {
	rows := [1]int{row}
	counts := [1]int{count}
	return ch.hammer(pc, bankIdx, rows[:], counts[:], tOn, true)
}

// HammerRows activates each rows[i] counts[i] times in order (rows[0]
// first). Unlike the double-sided helpers, rows in the burst are NOT
// excluded from each other's disturbance, matching access patterns - like
// the TRR bypass pattern - whose rows are far apart or re-restored every
// burst anyway.
func (ch *Channel) HammerRows(pc, bankIdx int, rows, counts []int, tOn TimePS) error {
	return ch.hammer(pc, bankIdx, rows, counts, tOn, false)
}

func (ch *Channel) hammer(pc, bankIdx int, rows, counts []int, tOn TimePS, excludeSelf bool) error {
	if len(rows) != len(counts) {
		return fmt.Errorf("hbm: %d rows but %d counts", len(rows), len(counts))
	}
	for i, r := range rows {
		if r < 0 || r >= ch.geom.Rows {
			return fmt.Errorf("hbm: row %d out of range", r)
		}
		if counts[i] < 0 {
			return fmt.Errorf("hbm: negative hammer count %d", counts[i])
		}
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()

	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return err
	}
	if b.open {
		return fmt.Errorf("%w: %s", ErrBankOpen, Addr{ch.index, pc, bankIdx, b.openLogical})
	}

	t := ch.chip.timing
	if tOn < t.TRAS {
		tOn = t.TRAS
	}
	perAct := t.TRC
	if tOn+t.TRP > perAct {
		perAct = tOn + t.TRP
	}

	// Translate to physical rows; each hammered row's own charge restores
	// at its first activation of the burst. Both scratch slices live on
	// the channel so paper-scale hammer loops never allocate.
	phys := ch.physBuf[:0]
	for _, r := range rows {
		phys = append(phys, ch.chip.mapper.ToPhysical(r))
	}
	ch.physBuf = phys
	var exclude []int
	if excludeSelf {
		exclude = append(ch.exclBuf[:0], phys...)
		ch.exclBuf = exclude
	}
	for _, p := range phys {
		rs := b.row(p, ch.now)
		ch.restoreLocked(pc, bankIdx, b, p, rs)
	}

	// TRR sees the first occurrence of each row in order, then the bulk.
	for i, p := range phys {
		if counts[i] > 0 {
			b.trr.OnActivateN(p, 1)
		}
	}
	totalActs := 0
	for i, p := range phys {
		if counts[i] > 1 {
			b.trr.OnActivateN(p, counts[i]-1)
		}
		totalActs += counts[i]
	}

	// Dose application (O(1) per row).
	for i, p := range phys {
		if counts[i] > 0 {
			ch.applyDoseLocked(pc, bankIdx, b, p, counts[i], tOn, exclude)
		}
	}

	ch.now += TimePS(totalActs) * perAct
	b.ts[tsLastAct] = ch.now
	b.ts[tsLastPre] = ch.now
	return nil
}
