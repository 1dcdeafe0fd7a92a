package hbm

import (
	"fmt"
	"slices"
	"sync"

	"hbmrd/internal/disturb"
	"hbmrd/internal/ecc"
)

// Channel is one independently operating HBM2 channel: two pseudo channels
// of sixteen banks each, a command clock, and a refresh engine. Channels of
// the same chip can be driven concurrently (the paper's platform tests
// channels in parallel); all methods of one Channel are serialized by an
// internal mutex.
type Channel struct {
	mu sync.Mutex

	chip  *Chip
	geom  Geometry
	fp    *disturb.Floorplan
	index int

	now        TimePS
	refCounter int // internal refresh row counter, shared by all banks

	banks [][]*bank

	// autoTiming makes every command wait for its earliest legal issue
	// time instead of failing. The platform's interpreter turns this off
	// to validate hand-written programs.
	autoTiming bool

	// Per-channel scratch reused across calls so the row-op and hammer hot
	// paths stay allocation-free. All guarded by mu.
	scratch  []byte // flip-mask scratch buffer
	fillBuf  []byte // FillRow data buffer
	fillByte byte   // current fillBuf content (valid when fillOK)
	fillOK   bool
	physBuf  []int // hammer: translated physical rows
	exclBuf  []int // hammer: self-excluded victims
}

// SetAutoTiming selects between auto-delayed commands (true, default) and
// strict checking where early commands return *TimingError (false).
func (ch *Channel) SetAutoTiming(auto bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.autoTiming = auto
}

// Index returns the channel number (0 .. Geometry().Channels-1).
func (ch *Channel) Index() int { return ch.index }

// Geometry returns the organization of the chip the channel belongs to.
func (ch *Channel) Geometry() Geometry { return ch.geom }

// Now returns the channel's current simulated time.
func (ch *Channel) Now() TimePS {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.now
}

// Wait advances the channel clock by d picoseconds (issuing nothing).
func (ch *Channel) Wait(d TimePS) {
	if d <= 0 {
		return
	}
	ch.mu.Lock()
	ch.now += d
	ch.mu.Unlock()
}

func (ch *Channel) bank(pc, b int) (*bank, error) {
	if pc < 0 || pc >= ch.geom.PseudoChannels {
		return nil, fmt.Errorf("hbm: pseudo channel %d out of range", pc)
	}
	if b < 0 || b >= ch.geom.BanksPerPC() {
		return nil, fmt.Errorf("hbm: bank %d out of range", b)
	}
	return ch.banks[pc][b], nil
}

func (ch *Channel) rowLoc(pc, bankIdx, phys int) disturb.RowLoc {
	return disturb.RowLoc{Channel: ch.index, Pseudo: pc, Bank: bankIdx, Row: phys}
}

// Activate opens a logical row: earliest-legal timing, logical-to-physical
// translation, materialization of pending disturbance into the row, charge
// restore, and TRR tracker update.
func (ch *Channel) Activate(pc, bankIdx, logicalRow int) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.activateLocked(pc, bankIdx, logicalRow, false)
}

// activateLocked opens a row. overwrite marks the ACT of a full-row write
// (writeRowLocked): the column burst that follows replaces every cell, so
// the pending flips are never observable and are not evaluated. The
// restore bookkeeping still runs, because restore epochs drive the trial
// jitter.
func (ch *Channel) activateLocked(pc, bankIdx, logicalRow int, overwrite bool) error {
	if logicalRow < 0 || logicalRow >= ch.geom.Rows {
		return fmt.Errorf("hbm: row %d out of range", logicalRow)
	}
	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return err
	}
	if b.open {
		return fmt.Errorf("%w: %s", ErrBankOpen, Addr{ch.index, pc, bankIdx, b.openLogical})
	}
	if err := ch.gateLocked(cmdACT, &b.ts, false); err != nil {
		return err
	}

	phys := ch.chip.mapper.ToPhysical(logicalRow)
	rs := b.row(phys, ch.now)
	if !overwrite {
		ch.materializeLocked(pc, bankIdx, b, phys, rs)
	}
	ch.rechargeLocked(rs)

	b.open = true
	b.openLogical = logicalRow
	b.openPhys = phys
	b.ts[tsActAt] = ch.now
	b.ts[tsLastAct] = ch.now
	b.ts[tsWrRW] = tsFloor // no write recovery pending in the new interval
	b.trr.OnActivate(phys)

	ch.now += ch.chip.timing.TCK
	return nil
}

// Precharge closes the bank's open row (a PRE to an idle bank is a legal
// no-op). Closing applies the row's disturbance dose to its physical
// neighbours, scaled by how long the row stayed open (RowPress).
func (ch *Channel) Precharge(pc, bankIdx int) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.prechargeLocked(pc, bankIdx, false)
}

// prechargeLocked closes the bank. With forceAuto the PRE is the closing
// command of a row-level composite and runs at its earliest legal time
// even in strict mode (see gateLocked).
func (ch *Channel) prechargeLocked(pc, bankIdx int, forceAuto bool) error {
	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return err
	}
	t := ch.chip.timing
	if !b.open {
		b.ts[tsLastPre] = ch.now
		ch.now += t.TCK
		return nil
	}
	if err := ch.gateLocked(cmdPRE, &b.ts, forceAuto); err != nil {
		return err
	}

	onTime := ch.now - b.ts[tsActAt]
	ch.applyDoseLocked(pc, bankIdx, b, b.openPhys, 1, onTime, nil)

	b.open = false
	b.ts[tsLastPre] = ch.now
	ch.now += t.TCK
	return nil
}

// applyDoseLocked distributes count activations' worth of disturbance from
// aggressor physRow to its physical neighbours. Rows listed in exclude
// receive no dose (used by the batched hammer path for rows that are
// themselves re-activated every iteration, which continually resets their
// accumulation; at most a handful of rows, so a slice scan beats a map).
func (ch *Channel) applyDoseLocked(pc, bankIdx int, b *bank, physRow, count int, onTime TimePS, exclude []int) {
	amp := disturb.AggOnAmp(float64(onTime) / float64(NS))
	base := float64(count) * amp
	for _, d := range [...]struct {
		dist   int
		weight float64
	}{{1, coupleDist1}, {2, coupleDist2}} {
		for _, sign := range [...]int{+1, -1} {
			victim := physRow + sign*d.dist
			if victim < 0 || victim >= ch.geom.Rows || slices.Contains(exclude, victim) {
				continue
			}
			if !ch.fp.SameSubarray(physRow, victim) {
				continue
			}
			vrs := b.row(victim, ch.now)
			if vrs.jitter == 0 {
				vrs.jitter = ch.chip.model.TrialJitter(ch.rowLoc(pc, bankIdx, victim), vrs.epoch)
			}
			dose := base * d.weight * vrs.jitter
			if sign > 0 {
				// Aggressor is above... no: victim = physRow + dist means
				// the aggressor sits below the victim.
				vrs.doseBelow += dose
			} else {
				vrs.doseAbove += dose
			}
		}
	}
}

// restoreLocked materializes pending disturbance (wordline dose, column
// doses, retention) and flips into the row's stored data, then restores
// full charge (dose and retention clock reset, epoch advance).
func (ch *Channel) restoreLocked(pc, bankIdx int, b *bank, phys int, rs *rowState) {
	ch.materializeLocked(pc, bankIdx, b, phys, rs)
	ch.rechargeLocked(rs)
}

// materializeLocked applies the flips of the row's pending disturbance to
// its stored data.
func (ch *Channel) materializeLocked(pc, bankIdx int, b *bank, phys int, rs *rowState) {
	rowPending := rs.doseAbove > 0 || rs.doseBelow > 0 || ch.now-rs.lastRestore > 30*MS
	if rs.data != nil && (rowPending || len(rs.colDoses) > 0) {
		if ch.scratch == nil {
			ch.scratch = make([]byte, ch.geom.RowBytes)
		}
		mask := ch.scratch
		for i := range mask {
			mask[i] = 0
		}
		flips := 0
		if rowPending {
			var above, below []byte
			if n := b.peek(phys + 1); n != nil {
				above = n.data
			}
			if n := b.peek(phys - 1); n != nil {
				below = n.data
			}
			retSec := float64(ch.now-rs.lastRestore) / float64(SEC)
			n, err := ch.chip.model.FlipMask(
				ch.rowLoc(pc, bankIdx, phys),
				rs.data, above, below,
				disturb.Dose{Above: rs.doseAbove, Below: rs.doseBelow},
				retSec, mask,
			)
			if err == nil {
				flips += n
			}
		}
		for _, cd := range rs.colDoses {
			n, err := ch.chip.model.ColFlipMask(
				ch.rowLoc(pc, bankIdx, phys),
				rs.data, cd.agg, cd.dist, cd.reads, mask,
			)
			if err == nil {
				flips += n
			}
		}
		if flips > 0 {
			for i := range rs.data {
				rs.data[i] ^= mask[i]
			}
		}
	}
}

// rechargeLocked restores the row's full charge: pending doses and the
// retention clock reset, and the restore epoch advances (the row's trial
// jitter is redrawn for the new epoch at its first dose).
func (ch *Channel) rechargeLocked(rs *rowState) {
	rs.doseAbove = 0
	rs.doseBelow = 0
	rs.colDoses = nil
	rs.lastRestore = ch.now
	rs.epoch++
	rs.jitter = 0
}

// applyColDisturbLocked queues one column-read burst's bitline
// disturbance against every materialized row of the bank that shares the
// aggressor's subarray within the blast radius. The aggressor's image is
// snapshotted once (flip eligibility depends on the data pattern on the
// shared bitlines at burst time, not whatever is stored when the victim
// eventually restores). Map iteration order does not matter: each
// victim's dose list is independent and ColFlipMask's outcome is a pure
// per-cell function, so the materialized flips are order-invariant.
func (ch *Channel) applyColDisturbLocked(b *bank, aggPhys int, aggRS *rowState, reads int) {
	var snap []byte
	snapped := false
	for phys, vrs := range b.rows {
		if phys == aggPhys || vrs.data == nil {
			continue
		}
		if d := phys - aggPhys; d >= -maxColDisturbDist && d <= maxColDisturbDist &&
			ch.fp.SameSubarray(aggPhys, phys) {
			if !snapped {
				if aggRS.data != nil {
					snap = append([]byte(nil), aggRS.data...)
				}
				snapped = true
			}
			vrs.colDoses = append(vrs.colDoses, colDose{dist: d, reads: reads, agg: snap})
		}
	}
}

// Read issues a RD for one column (ColBytes bytes) of the open row into buf.
// With ECC enabled, single-bit errors per 64-bit word are corrected on the
// fly when the row carries check bits.
func (ch *Channel) Read(pc, bankIdx, col int, buf []byte) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.readLocked(pc, bankIdx, col, buf)
}

func (ch *Channel) readLocked(pc, bankIdx, col int, buf []byte) error {
	if col < 0 || col >= ch.geom.Cols() {
		return fmt.Errorf("hbm: column %d out of range", col)
	}
	if len(buf) < ch.geom.ColBytes {
		return fmt.Errorf("%w: need %d bytes", ErrShortBuffer, ch.geom.ColBytes)
	}
	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return err
	}
	if !b.open {
		return ErrBankClosed
	}
	if err := ch.gateLocked(cmdRD, &b.ts, false); err != nil {
		return err
	}

	rs := b.peek(b.openPhys)
	cb := ch.geom.ColBytes
	off := col * cb
	if rs == nil || rs.data == nil {
		for i := 0; i < cb; i++ {
			buf[i] = 0
		}
	} else {
		copy(buf[:cb], rs.data[off:off+cb])
		if ch.chip.modeRegs.ECCEnabled && rs.parity != nil {
			correctColumn(buf[:cb], rs.parity, off, cb)
		}
	}
	b.ts[tsLastRW] = ch.now
	if b.ts[tsWrRW] != tsFloor {
		// Write recovery tracks the last RW of any kind once the open
		// interval has seen a WR.
		b.ts[tsWrRW] = ch.now
	}
	ch.now += ch.chip.timing.TCK
	return nil
}

// Write issues a WR for one column of the open row.
func (ch *Channel) Write(pc, bankIdx, col int, data []byte) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.writeLocked(pc, bankIdx, col, data)
}

func (ch *Channel) writeLocked(pc, bankIdx, col int, data []byte) error {
	if col < 0 || col >= ch.geom.Cols() {
		return fmt.Errorf("hbm: column %d out of range", col)
	}
	if len(data) < ch.geom.ColBytes {
		return fmt.Errorf("%w: need %d bytes", ErrShortBuffer, ch.geom.ColBytes)
	}
	b, err := ch.bank(pc, bankIdx)
	if err != nil {
		return err
	}
	if !b.open {
		return ErrBankClosed
	}
	if err := ch.gateLocked(cmdWR, &b.ts, false); err != nil {
		return err
	}

	rs := b.row(b.openPhys, ch.now)
	if rs.data == nil {
		rs.data = make([]byte, ch.geom.RowBytes)
	}
	cb := ch.geom.ColBytes
	off := col * cb
	copy(rs.data[off:off+cb], data[:cb])
	if ch.chip.modeRegs.ECCEnabled {
		if rs.parity == nil {
			rs.parity = make([]byte, ch.geom.RowBytes/ecc.WordBytes)
		}
		updateParityColumn(rs.data, rs.parity, off, cb)
	}
	b.ts[tsLastRW] = ch.now
	b.ts[tsWrRW] = ch.now
	ch.now += ch.chip.timing.TCK
	return nil
}

// Refresh issues an all-bank REF: every bank must be precharged; the
// internal refresh counter restores the next rows of every bank, and each
// bank's TRR engine may piggyback victim refreshes (every 17th REF).
func (ch *Channel) Refresh() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.refreshLocked()
}

func (ch *Channel) refreshLocked() error {
	banksPerPC := ch.geom.BanksPerPC()
	for pc := 0; pc < ch.geom.PseudoChannels; pc++ {
		for bi := 0; bi < banksPerPC; bi++ {
			if ch.banks[pc][bi].open {
				return fmt.Errorf("%w: %s open", ErrBanksNotIdle, Addr{ch.index, pc, bi, ch.banks[pc][bi].openLogical})
			}
		}
	}
	// All banks carry the same mirrored REF-cycle end, so any one of them
	// can answer for the channel-level tRFC gate.
	if err := ch.gateLocked(cmdREF, &ch.banks[0][0].ts, false); err != nil {
		return err
	}

	t := ch.chip.timing
	refEnd := ch.now + t.TRFC
	rowsPerRef := t.RowsPerREF(ch.geom.Rows)
	for pc := 0; pc < ch.geom.PseudoChannels; pc++ {
		for bi := 0; bi < banksPerPC; bi++ {
			b := ch.banks[pc][bi]
			for k := 0; k < rowsPerRef; k++ {
				phys := (ch.refCounter + k) % ch.geom.Rows
				if rs := b.peek(phys); rs != nil {
					ch.restoreLocked(pc, bi, b, phys, rs)
				}
			}
			for _, victim := range b.trr.OnRefresh() {
				if victim < 0 || victim >= ch.geom.Rows {
					continue
				}
				if rs := b.peek(victim); rs != nil {
					ch.restoreLocked(pc, bi, b, victim, rs)
				}
			}
			b.ts[tsRefEnd] = refEnd
		}
	}
	ch.refCounter = (ch.refCounter + rowsPerRef) % ch.geom.Rows

	ch.now = refEnd
	return nil
}
