// Package vtime models execution time on the paper's hardware: a farm of
// 500-MIPS Alpha processors linked by a 16×16 crossbar of 200 Mb/s fibers
// (§5). The tabu move's dominant cost is the Add phase's O(n·m) scan, so a
// move is priced in cycles proportional to n·m and converted to seconds at
// the model's MIPS rating; messages are priced as latency plus bytes over
// the link bandwidth.
//
// The solvers run on move budgets for determinism; this model translates
// between the paper's fixed-execution-time protocol and move budgets, and
// lets the harness report "Max.Exec.Time" columns in simulated 1997 seconds
// that are comparable to the paper's, independent of the host machine.
package vtime

import (
	"fmt"
	"time"
)

// Model prices moves and messages.
type Model struct {
	// MIPS is the processor rating (instructions per second / 1e6). The
	// paper's Alphas peak at 500 MIPS.
	MIPS float64
	// CyclesPerCell is the instruction cost per (item × constraint) cell
	// touched by one compound move. The kernel's move is a small constant
	// number of passes over the n×m weight matrix.
	CyclesPerCell float64
	// LinkLatency is the fixed per-message cost.
	LinkLatency time.Duration
	// LinkMbps is the link bandwidth in megabits per second (200 for the
	// paper's fiber crossbar).
	LinkMbps float64
}

// Alpha returns the model of the paper's platform: 500 MIPS processors,
// 200 Mb/s links, and an estimated 12 instructions per matrix cell per move
// (slack updates, fit tests and ratio comparisons across the Add passes).
func Alpha() Model {
	return Model{
		MIPS:          500,
		CyclesPerCell: 12,
		LinkLatency:   50 * time.Microsecond,
		LinkMbps:      200,
	}
}

// Validate rejects non-positive ratings.
func (m Model) Validate() error {
	if m.MIPS <= 0 {
		return fmt.Errorf("vtime: MIPS %v <= 0", m.MIPS)
	}
	if m.CyclesPerCell <= 0 {
		return fmt.Errorf("vtime: CyclesPerCell %v <= 0", m.CyclesPerCell)
	}
	if m.LinkLatency < 0 {
		return fmt.Errorf("vtime: negative LinkLatency %v", m.LinkLatency)
	}
	if m.LinkMbps <= 0 {
		return fmt.Errorf("vtime: LinkMbps %v <= 0", m.LinkMbps)
	}
	return nil
}

// MoveDuration returns the simulated cost of one compound move on an
// instance with n items and mcons constraints.
func (m Model) MoveDuration(n, mcons int) time.Duration {
	cycles := m.CyclesPerCell * float64(n) * float64(mcons)
	seconds := cycles / (m.MIPS * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// MessageDuration returns the simulated cost of shipping `bytes` over one
// crossbar link.
func (m Model) MessageDuration(bytes int) time.Duration {
	transfer := float64(bytes*8) / (m.LinkMbps * 1e6) // seconds
	return m.LinkLatency + time.Duration(transfer*float64(time.Second))
}

// RoundDuration returns the simulated wall-clock of one synchronous
// rendezvous round: the slowest slave's compute (its move budget times the
// per-move cost) plus the master's serialized send+receive of one solution
// and one strategy per slave.
func (m Model) RoundDuration(n, mcons int, slaveBudgets []int64, solutionBytes, strategyBytes int) time.Duration {
	per := m.MoveDuration(n, mcons)
	var slowest time.Duration
	for _, b := range slaveBudgets {
		if d := time.Duration(b) * per; d > slowest {
			slowest = d
		}
	}
	comm := time.Duration(len(slaveBudgets)) * (m.MessageDuration(solutionBytes+strategyBytes) + m.MessageDuration(solutionBytes))
	return slowest + comm
}
