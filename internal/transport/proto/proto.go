// Package proto defines the messages the master and slaves exchange and
// their versioned binary encoding. The in-process transport passes the
// message structs by value; the wire transport encodes them with this codec.
// Keeping both substrates on the same types (and deriving every accounted
// byte size from the real encoder) is what guarantees the traffic accounting,
// the simulated clock and the wire protocol can never drift apart.
//
// The encoding is little-endian and fixed-width: integers are 8 bytes,
// floats are IEEE-754 bits, solutions are the objective value followed by
// ceil(n/8) packed assignment bytes (item 0 in the low bit of the first
// byte). Variable-length fields (strings, pools, instance rows) carry a
// 32-bit length prefix. Decoding is bounds-checked at every read and rejects
// trailing bytes, so a truncated or corrupted payload errors out instead of
// mis-decoding.
package proto

import (
	"repro/internal/mkp"
	"repro/internal/tabu"
)

// Version is the codec version stamped into every wire frame. A peer that
// sees any other value must reject the frame: there is exactly one live
// version at a time, and skew is an operator error, not a negotiation.
// Version 2 added the elastic-membership messages (Join/Leave/Gossip and a
// Steal offer) and extended Hello with the fleet epoch and membership view.
// Version 3 added the portfolio algorithm id to every encoded strategy, so
// dispatch frames name the search algorithm a slave must run for the round.
// Version 4 removed the Steal offer: the master picks a thief among the
// members whose result for the round it already holds.
const Version = 4

// Message tags exchanged between the master (node 0) and slaves (nodes 1..P).
const (
	TagStart     = "start"     // master -> slave: Start
	TagResult    = "result"    // slave -> master: Result
	TagStop      = "stop"      // master -> slave: Stop, or nil for silent shutdown
	TagStopped   = "stopped"   // slave -> master: Ack (control plane)
	TagHeartbeat = "heartbeat" // slave -> master: Heartbeat (wire liveness)
	TagJoin      = "join"      // worker -> master: Join (elastic handshake opener)
	TagLeave     = "leave"     // worker -> master: Leave (graceful departure)
	TagGossip    = "gossip"    // both ways: Gossip (epoch-stamped incumbent)
)

// Start is what the master sends a slave at each rendezvous: an initial
// solution, a full parameter set (strategy included) and a move budget
// (Fig. 2: "Send Initial solutions and strategies to slaves"). Slot names
// the per-slave bookkeeping entry the work belongs to — normally the slave's
// own, but a lost round may be re-dispatched to a different live slave.
// Round stamps the rendezvous so the master can discard stale replies.
//
// Params' Tracer, Metrics and Heartbeat fields are process-local and do not
// cross the wire; a remote slave runs its kernel uninstrumented.
type Start struct {
	Slot   int
	Round  int
	Start  mkp.Solution
	Params tabu.Params
	Budget int64
}

// Result is the slave's report: its round result or the error that ended it.
// Slot and Round echo the Start; Node is the worker that actually ran the
// round (== Slot+1 unless the work was re-dispatched). Err is a string, not
// an error: it must survive a process boundary.
type Result struct {
	Slot  int
	Node  int
	Round int
	Res   *tabu.Result
	Err   string
}

// Stop is the supervisor's stop order to a dying incarnation. Inc names the
// incarnation the order targets (a fresh incarnation ignores orders for its
// predecessors); Ack asks the slave to confirm its exit on the control plane
// so the master knows the node's mailbox is safe to drain. The shutdown path
// sends a nil payload instead: exit silently, no ack.
type Stop struct {
	Inc int
	Ack bool
}

// Ack confirms that incarnation Inc of node Node consumed its stop order and
// is about to return.
type Ack struct {
	Node int
	Inc  int
}

// Heartbeat is a wire-level liveness report: Node's kernel has executed
// Moves lifetime moves. The in-process substrate publishes the same
// watermark through shared memory instead; collectors ignore the tag.
type Heartbeat struct {
	Node  int
	Moves int64
}

// Join is the first frame an elastic worker sends after dialing a fleet
// master: a request for admission. Name is a free-form label for logs and
// the membership view ("host:pid"); the master assigns the node id in its
// Hello reply, so a joiner carries no identity of its own.
type Join struct {
	Name string
}

// Leave announces a graceful departure: node Node is done after the current
// round and its connection teardown must not be counted as a crash. Reason
// is a free-form label for logs ("budget", "drain", "shutdown").
type Leave struct {
	Node   int
	Reason string
}

// Gossip is an epoch-stamped incumbent broadcast. Master -> worker it
// announces a new global best under a freshly bumped epoch (replacing the
// synchronous rendezvous as the only best-propagation channel); worker ->
// master it donates the worker's own best (a leaver's parting rescue, or an
// asynchronous improvement report). Epoch is the fleet epoch the sender last
// observed; receivers reject regressions.
type Gossip struct {
	Epoch uint64
	Best  mkp.Solution
}

// Hello is the master's handshake to a freshly connected worker: which node
// it is, the seed for its searcher stream, and the full instance (the wire
// equivalent of Fig. 2's "Read and send to slaves problem data"). On an
// elastic fleet the master also stamps its current epoch and the live
// membership view, so a late joiner knows the fleet state it is entering.
type Hello struct {
	Node    int
	Seed    uint64
	Ins     *mkp.Instance
	Epoch   uint64
	Members []int
}

// SolutionSize returns the encoded size of an n-item 0-1 solution: one
// float64 objective value plus the packed assignment bits. This is the
// number AppendSolution produces, pinned by test so the accounting constant
// and the real encoder cannot drift apart.
func SolutionSize(n int) int { return (n+7)/8 + 8 }

// StrategySize returns the encoded size of a strategy: the paper's three
// integer parameters (§4.2) plus the v3 portfolio algorithm id, 8 bytes
// each.
func StrategySize() int { return 4 * 8 }
