package main

import (
	"sync/atomic"
	"time"
)

// The calibration loop measures how fast this host runs kernel-like code at
// the moment, so CPU-bound timings can be reported at a reference speed. It
// is frozen: changing the matrix, the pass count or the loop body changes
// what one repetition costs, and calib_ref_s in pins.json must be pinned
// again from the calib_median_s that runs report in their header.
//
// One repetition replays a packing walk over a fixed pseudo-random 30×500
// matrix stored column-major, the layout of mkp.Instance.WeightCol, so the
// 120 KB working set spills L1d into L2 the way the farm workload's does.
// Each column is tested against the running slack with an early exit on the
// first row that does not fit, packed columns are dropped back on a fixed
// schedule, and the walk allocates nothing.
const (
	calibRows   = 30
	calibCols   = 500
	calibPasses = 192
)

type calibLoop struct {
	w     []float64 // column-major: column j is w[j*calibRows : (j+1)*calibRows]
	cap0  []float64
	slack []float64
	in    []bool
}

func newCalibLoop() *calibLoop {
	c := &calibLoop{
		w:     make([]float64, calibRows*calibCols),
		cap0:  make([]float64, calibRows),
		slack: make([]float64, calibRows),
		in:    make([]bool, calibCols),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for k := range c.w {
		// xorshift64*: a fixed stream, independent of any package RNG.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		c.w[k] = float64(1 + (x*0x2545F4914F6CDD1D)>>54) // 1..1024
	}
	for j := 0; j < calibCols; j++ {
		for i := 0; i < calibRows; i++ {
			c.cap0[i] += c.w[j*calibRows+i]
		}
	}
	for i := range c.cap0 {
		c.cap0[i] *= 0.25
	}
	return c
}

// rep runs one repetition from the same initial state and returns a checksum
// of the decisions it took; every repetition returns the same checksum.
func (c *calibLoop) rep() uint64 {
	copy(c.slack, c.cap0)
	for j := range c.in {
		c.in[j] = false
	}
	var sum uint64
	for pass := 0; pass < calibPasses; pass++ {
		for j := 0; j < calibCols; j++ {
			col := c.w[j*calibRows : (j+1)*calibRows : (j+1)*calibRows]
			if c.in[j] {
				if (j+pass)%3 == 0 {
					for i, wi := range col {
						c.slack[i] += wi
					}
					c.in[j] = false
					sum += uint64(j)
				}
				continue
			}
			fits := true
			for i, wi := range col {
				if wi > c.slack[i] {
					fits = false
					sum += uint64(i + 1)
					break
				}
			}
			if fits {
				for i, wi := range col {
					c.slack[i] -= wi
				}
				c.in[j] = true
				sum += uint64(j) << 1
			}
		}
	}
	return sum
}

// calibPair runs one repetition on each of two goroutines that wait for
// each other before they start, so the two repetitions overlap on both vCPUs
// the way a P=2 round's slaves do. A pair's time is the slower repetition,
// each timed from its own start, as a rendezvous round waits for its slowest
// slave.
type calibPair struct {
	loops [2]*calibLoop
	start [2]chan struct{}
	ready atomic.Int32
	done  chan calibRep
}

type calibRep struct {
	seconds float64
	sum     uint64
}

func newCalibPair() *calibPair {
	p := &calibPair{done: make(chan calibRep, 2)}
	for i := range p.loops {
		p.loops[i] = newCalibLoop()
		p.start[i] = make(chan struct{})
		go p.worker(i)
	}
	return p
}

func (p *calibPair) worker(i int) {
	for range p.start[i] {
		// Spin until the other repetition is about to start too; a woken
		// goroutine can otherwise wait a scheduler tick and run alone.
		p.ready.Add(1)
		for p.ready.Load() < 2 {
		}
		t0 := time.Now()
		sum := p.loops[i].rep()
		p.done <- calibRep{time.Since(t0).Seconds(), sum}
	}
}

// timedRep runs one paired repetition and returns the slower time and the
// checksum, or checksum 0 when the two disagree.
func (p *calibPair) timedRep() (float64, uint64) {
	p.ready.Store(0)
	for i := range p.start {
		p.start[i] <- struct{}{}
	}
	a, b := <-p.done, <-p.done
	if a.sum != b.sum {
		return max(a.seconds, b.seconds), 0
	}
	return max(a.seconds, b.seconds), a.sum
}

// close stops the two goroutines.
func (p *calibPair) close() {
	for i := range p.start {
		close(p.start[i])
	}
}
