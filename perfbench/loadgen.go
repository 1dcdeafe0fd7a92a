package main

import (
	"sync"
	"time"
)

// openLoop sends ops on a fixed schedule regardless of how the system
// keeps up: op i is due at start + i/rate, for every due time inside
// dur. conns workers take due ops in order; an op that finds every
// worker busy waits, and since callers time ops from their due time,
// that wait counts against the system. The scheduler's own lateness -
// how far behind a due time it handed an op out - goes to late.
// openLoop returns once every op has finished.
func openLoop(start time.Time, rate float64, dur time.Duration, conns int,
	late func(time.Duration), op func(i int, due time.Time)) int {
	n := int(dur.Seconds() * rate)
	type job struct {
		i   int
		due time.Time
	}
	// Buffered for every op, so the scheduler never blocks on a busy
	// worker: an open loop keeps sending while requests queue.
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				op(j.i, j.due)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late(time.Since(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return n
}

// closedLoop runs op back to back on one client until dur has passed
// and at least minOps ops have run, and returns the op count. The
// minimum keeps the digest's op set fixed however slow the run is.
func closedLoop(dur time.Duration, minOps int, op func(i int)) int {
	deadline := time.Now().Add(dur)
	i := 0
	for ; i < minOps || time.Now().Before(deadline); i++ {
		op(i)
	}
	return i
}
