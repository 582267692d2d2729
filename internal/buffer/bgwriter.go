package buffer

import (
	"sync/atomic"
	"time"
)

// BackgroundWriter is the retry engine of the fault-tolerance path: each
// round drains the pool's dirty quarantine (pages whose eviction
// write-back failed), then spends what is left of a bounded budget
// (pagesPerRound, 64 pages a round, every 100ms by default) sweeping dirty,
// unpinned frames to the device, the way PostgreSQL's bgwriter does. It is
// not a latency aid: a writing workload dirties pages far faster than 640 a
// second, so evictions write back nearly every dirty victim themselves
// (EvictWritebacks). When a round makes no progress at all — every write
// failed — the writer backs off exponentially up to maxBackoff intervals
// instead of hammering a device that is clearly down; the first successful
// round resets the cadence. Nothing retunes the interval or the budget
// while the writer runs.
type BackgroundWriter struct {
	pool     *Pool
	interval time.Duration // between rounds, before any backoff

	written atomic.Int64 // pages made durable (frames + quarantine)

	stop chan struct{}
	done chan struct{}
}

// BackgroundWriterStats counts the writer's activity.
type BackgroundWriterStats struct {
	Written int64 // pages made durable (frames + quarantine)
}

// BackgroundWriterConfig tunes a BackgroundWriter.
type BackgroundWriterConfig struct {
	// Interval between write-back rounds. Zero means 100ms.
	Interval time.Duration
}

const (
	// maxBackoff caps the exponential backoff entered when a round's
	// writes all fail, in round intervals.
	maxBackoff = 16
	// pagesPerRound bounds each round's write burst so the writer cannot
	// monopolize the device.
	pagesPerRound = 64
)

// StartBackgroundWriter launches a write-back goroutine for the pool. Call
// Stop to terminate it; the final round runs before Stop returns.
func (p *Pool) StartBackgroundWriter(cfg BackgroundWriterConfig) *BackgroundWriter {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	w := &BackgroundWriter{
		pool:     p,
		interval: cfg.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *BackgroundWriter) run() {
	defer close(w.done)
	wait := w.interval
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			written, failed := w.round()
			if failed > 0 && written == 0 {
				// The device refused everything: retrying at full cadence
				// only adds load to a struggling device. Back off.
				wait = min(2*wait, maxBackoff*w.interval)
			} else {
				wait = w.interval
			}
			timer.Reset(wait)
		case <-w.stop:
			w.round() // final sweep so Stop leaves the pool clean-ish
			return
		}
	}
}

// round retries the quarantine, then writes back dirty, unpinned frames
// through Pool.flushFrame (pin, write from the frame, clear the dirty bit
// only once the write is durable), up to pagesPerRound pages, so the
// per-round device burst stays bounded. A sweep resumes at the frame the
// last one stopped at (PostgreSQL's next_to_clean), so frames that are
// dirtied again as fast as they are cleaned cannot keep the writer from the
// rest. It reports pages made durable and failed attempts.
func (w *BackgroundWriter) round() (written, failed int64) {
	p := w.pool
	qn, qfailed, _ := p.drainQuarantine()
	written += int64(qn)
	failed += int64(qfailed)
	n := len(p.frames)
	at := int(p.nextToClean.Load())
	for left := n; left > 0 && written+failed < pagesPerRound; left-- {
		wrote, err := p.flushFrame(&p.frames[at])
		if err != nil {
			failed++
		} else if wrote {
			written++
		}
		if at++; at == n {
			at = 0
		}
	}
	p.nextToClean.Store(int64(at))
	w.written.Add(written)
	return written, failed
}

// Stop terminates the writer after a final write-back round.
func (w *BackgroundWriter) Stop() {
	close(w.stop)
	<-w.done
}

// Stats returns a snapshot of the writer's counters.
func (w *BackgroundWriter) Stats() BackgroundWriterStats {
	return BackgroundWriterStats{Written: w.written.Load()}
}
