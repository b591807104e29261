// Package transport defines the message fabric the parallel search runs on:
// datagrams between one master (node 0) and P slaves (nodes 1..P). The
// paper's execution environment was a farm of 16 Alpha processors exchanging
// PVM messages over a crossbar (§5); this seam is what lets the reproduction
// swap that environment's stand-ins without touching the search.
//
// The seam has two sides, each sized to its caller. A slave sees a Transport:
// it sends reports and blocks for its next order. The master sees a Hub: it
// sends orders, waits for reports with a bound, and reads the traffic
// counters at the end of a run. Two implementations are provided:
//
//   - transport/inproc: goroutine nodes and FIFO mailboxes with a
//     deterministic fault injector, reading no clock — the substrate every
//     seeded experiment replays on, bit for bit. One Farm is both the
//     master's Hub and every slave's Transport.
//
//   - transport/wire: separate OS processes over TCP, with length-prefixed
//     CRC-checked frames and a versioned binary codec (transport/proto) for
//     the real payloads. This is the paper's distribution actually reproduced:
//     slaves that share no memory with the master. wire.Fleet is the master's
//     Hub, and each worker's wire.Session its Transport.
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

// Transport is a slave's view of the fabric. Implementations must preserve
// per-link FIFO order; cross-link ordering is unspecified, which is exactly
// what the master's slot/round bookkeeping is built to tolerate.
type Transport interface {
	// Send delivers a message from `from` to `to`, subject to the substrate's
	// failure model. A swallowed message (fault injector, dead peer) returns
	// nil — exactly what the sender of a lost datagram observes; an error
	// means the endpoints themselves are invalid.
	Send(from, to int, tag string, payload any, size int) error
	// SendControl is Send minus the failure model: an out-of-band control
	// message (shutdown, stop orders) that lossy links cannot swallow.
	// Substrates without an injected failure model may treat it as Send.
	SendControl(from, to int, tag string, payload any, size int) error
	// Recv blocks until a message for node arrives.
	Recv(node int) Message
}

// Hub is the master's view of the fabric: Send and SendControl as on
// Transport, a bounded receive for node 0 and the traffic counters.
type Hub interface {
	Send(from, to int, tag string, payload any, size int) error
	SendControl(from, to int, tag string, payload any, size int) error
	// RecvTimeout waits for the master's next message; ok=false ends the
	// wait empty-handed. A message that has arrived is always delivered
	// first. The in-process farm returns ok=false exactly when nothing more
	// can arrive, never because d elapsed; a wire fleet, which cannot see
	// remote work, returns it once d has passed in silence.
	RecvTimeout(d time.Duration) (Message, bool)
	// Stats returns a snapshot of the traffic counters.
	Stats() Stats
}

// Stats is a snapshot of a transport's accounting counters, the same on
// every substrate.
type Stats struct {
	Messages int64 // messages enqueued for delivery (duplicates included)
	Bytes    int64 // payload bytes enqueued for delivery
	Dropped  int64 // messages swallowed by faults, crashed senders or dead peers
}
