// Package transport defines the message fabric the parallel search runs on:
// a small datagram interface between one master (node 0) and P slaves (nodes
// 1..P). The paper's execution environment was a farm of 16 Alpha processors
// exchanging PVM messages over a crossbar (§5); this seam is what lets the
// reproduction swap that environment's stand-ins without touching the search.
//
// Two implementations are provided:
//
//   - transport/inproc: goroutine nodes and FIFO mailboxes with injected
//     latency and a deterministic fault injector — the substrate every seeded
//     experiment replays on, bit for bit.
//
//   - transport/wire: separate OS processes over TCP, with length-prefixed
//     CRC-checked frames and a versioned binary codec (transport/proto) for
//     the real payloads. This is the paper's distribution actually reproduced:
//     slaves that share no memory with the master.
//
// The master and slaves speak only this interface, so every later scaling
// layer (sharding, remote fleets) slots in underneath them.
package transport

import "time"

// Message is one typed datagram between nodes. Payload is an in-memory value
// on the in-process substrate and a decoded proto value on the wire; Size is
// the accounted payload size in bytes (derived from the wire codec, see
// transport/proto), kept identical across substrates so traffic accounting
// and the simulated clock never depend on which one carried the run.
type Message struct {
	From, To int
	Tag      string
	Payload  any
	Size     int
}

// Transport connects n nodes (0..n-1) with FIFO per-destination delivery.
// Implementations must preserve per-link FIFO order; cross-link ordering is
// unspecified, which is exactly what the master's slot/round bookkeeping is
// built to tolerate.
type Transport interface {
	// Nodes returns the number of nodes (master included).
	Nodes() int
	// Send delivers a message from `from` to `to`, subject to the substrate's
	// failure model. A swallowed message (fault injector, dead peer) returns
	// nil — exactly what the sender of a lost datagram observes; an error
	// means the endpoints themselves are invalid.
	Send(from, to int, tag string, payload any, size int) error
	// SendControl is Send minus the failure model: an out-of-band control
	// message (shutdown, stop orders) that lossy links cannot swallow.
	// Substrates without an injected failure model may treat it as Send.
	SendControl(from, to int, tag string, payload any, size int) error
	// Recv blocks until a message for node arrives and is due.
	Recv(node int) Message
	// RecvTimeout waits for a message to ARRIVE for node; ok=false ends the
	// wait empty-handed. The in-process farm returns it for node 0 exactly
	// when nothing more can arrive, never because d elapsed (other nodes wait
	// up to d); a wire fleet, which cannot see remote work, returns it once d
	// has passed in silence. The wait bounds silence, not slowness: a message
	// that arrived is delivered even if its injected delay overruns d.
	RecvTimeout(node int, d time.Duration) (Message, bool)
	// TryRecv returns a pending due message without blocking.
	TryRecv(node int) (Message, bool)
	// Drain discards all pending messages for node and returns the count.
	Drain(node int) int
	// Crashed reports whether node's sends are currently being swallowed —
	// the rest of the farm can no longer hear it, however hard it computes.
	Crashed(node int) bool
	// Revive re-registers a node whose process was replaced: pending messages
	// are drained (returned as the count) and the node's link restored, where
	// the substrate supports replacement.
	Revive(node int) int
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
}

// Stats is a snapshot of a transport's accounting counters.
type Stats struct {
	Messages   int64            // messages enqueued for delivery (duplicates included)
	Bytes      int64            // payload bytes enqueued for delivery
	Dropped    int64            // messages swallowed by faults, crashed senders or dead peers
	Duplicated int64            // messages the fault injector delivered twice
	LinkMsgs   map[[2]int]int64 // directed link -> delivered message count
	BusiestIn  int              // node receiving the most messages
}
