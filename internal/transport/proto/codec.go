package proto

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/mkp"
	"repro/internal/tabu"
)

// maxSliceLen bounds every length prefix the decoder will honor. It is far
// above anything the search produces (pools are BBest-sized, instances are a
// few thousand items) and far below anything that could be used to make the
// decoder allocate absurdly from a corrupted prefix.
const maxSliceLen = 1 << 24

// --- primitive encoders -----------------------------------------------------

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(dst []byte, v int64) []byte   { return appendU64(dst, uint64(v)) }
func appendInt(dst []byte, v int) []byte     { return appendI64(dst, int64(v)) }
func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// cursor is a bounds-checked reader over an encoded payload. Every read
// checks the remaining length first; the first failure sticks, so callers
// can chain reads and test err once.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("proto: truncated payload reading %s at offset %d (len %d)", what, c.off, len(c.buf))
	}
}

func (c *cursor) bytes(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.buf) {
		c.fail(what)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u64(what string) uint64 {
	b := c.bytes(8, what)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (c *cursor) i64(what string) int64   { return int64(c.u64(what)) }
func (c *cursor) int(what string) int     { return int(c.i64(what)) }
func (c *cursor) f64(what string) float64 { return math.Float64frombits(c.u64(what)) }

func (c *cursor) u32(what string) uint32 {
	b := c.bytes(4, what)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (c *cursor) length(what string) int {
	v := c.u32(what)
	if c.err == nil && v > maxSliceLen {
		c.err = fmt.Errorf("proto: %s length %d exceeds limit %d", what, v, maxSliceLen)
		return 0
	}
	return int(v)
}

func (c *cursor) bool(what string) bool {
	b := c.bytes(1, what)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		if c.err == nil {
			c.err = fmt.Errorf("proto: %s byte %d is not a bool", what, b[0])
		}
		return false
	}
}

func (c *cursor) string(what string) string {
	n := c.length(what)
	b := c.bytes(n, what)
	if b == nil {
		return ""
	}
	return string(b)
}

// done rejects trailing bytes: a payload that decodes but is longer than its
// message is corruption, not slack.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.buf) {
		return fmt.Errorf("proto: %d trailing bytes after payload", len(c.buf)-c.off)
	}
	return nil
}

// --- solutions and strategies ------------------------------------------------

// AppendSolution encodes an n-item solution: objective value then packed
// assignment bits, item 0 in the low bit of the first byte. The solution's
// bitset must have exactly n bits.
func AppendSolution(dst []byte, s mkp.Solution, n int) ([]byte, error) {
	if s.X == nil || s.X.Len() != n {
		return dst, fmt.Errorf("proto: solution bitset does not match n=%d", n)
	}
	dst = appendF64(dst, s.Value)
	packed := make([]byte, (n+7)/8)
	for j := s.X.NextSet(0); j >= 0; j = s.X.NextSet(j + 1) {
		packed[j/8] |= 1 << uint(j%8)
	}
	return append(dst, packed...), nil
}

func (c *cursor) solution(n int, what string) mkp.Solution {
	value := c.f64(what)
	packed := c.bytes((n+7)/8, what)
	if c.err != nil {
		return mkp.Solution{}
	}
	// Stray bits above n in the last byte are corruption the bitset would
	// silently mask; reject them instead.
	if r := n % 8; r != 0 {
		if packed[len(packed)-1]&^byte((1<<uint(r))-1) != 0 {
			c.err = fmt.Errorf("proto: %s has assignment bits beyond item %d", what, n)
			return mkp.Solution{}
		}
	}
	x := bitset.New(n)
	for j := 0; j < n; j++ {
		if packed[j/8]&(1<<uint(j%8)) != 0 {
			x.Set(j)
		}
	}
	return mkp.Solution{X: x, Value: value}
}

// AppendStrategy encodes the paper's three strategy integers plus the v3
// portfolio algorithm id.
func AppendStrategy(dst []byte, s tabu.Strategy) []byte {
	dst = appendInt(dst, s.LtLength)
	dst = appendInt(dst, s.NbDrop)
	dst = appendInt(dst, s.NbLocal)
	return appendInt(dst, int(s.Algo))
}

func (c *cursor) strategy(what string) tabu.Strategy {
	s := tabu.Strategy{
		LtLength: c.int(what),
		NbDrop:   c.int(what),
		NbLocal:  c.int(what),
		Algo:     tabu.AlgoID(c.int(what)),
	}
	if c.err == nil && !s.Algo.Valid() {
		c.err = fmt.Errorf("proto: %s: unknown algorithm id %d", what, int(s.Algo))
	}
	return s
}

// --- params ------------------------------------------------------------------

// appendParams encodes the serializable fields of tabu.Params in fixed
// order. Tracer, Metrics and Heartbeat are process-local interfaces and are
// deliberately dropped: a remote kernel runs uninstrumented.
func appendParams(dst []byte, p tabu.Params) []byte {
	dst = AppendStrategy(dst, p.Strategy)
	dst = appendInt(dst, int(p.Policy))
	dst = appendInt(dst, p.REMDepth)
	dst = appendInt(dst, p.NbInt)
	dst = appendInt(dst, p.NbDiv)
	dst = appendInt(dst, p.BBest)
	dst = appendInt(dst, int(p.Intensify))
	dst = appendInt(dst, p.OscDepth)
	dst = appendF64(dst, p.AddNoise)
	dst = appendF64(dst, p.DropNoise)
	dst = appendInt(dst, p.CandWidth)
	dst = appendF64(dst, p.HighFreq)
	dst = appendF64(dst, p.LowFreq)
	dst = appendInt(dst, p.DiverLock)
	return appendInt(dst, p.TraceID)
}

func (c *cursor) params() tabu.Params {
	return tabu.Params{
		Strategy:  c.strategy("params.strategy"),
		Policy:    tabu.TabuPolicy(c.int("params.policy")),
		REMDepth:  c.int("params.remdepth"),
		NbInt:     c.int("params.nbint"),
		NbDiv:     c.int("params.nbdiv"),
		BBest:     c.int("params.bbest"),
		Intensify: tabu.IntensifyMode(c.int("params.intensify")),
		OscDepth:  c.int("params.oscdepth"),
		AddNoise:  c.f64("params.addnoise"),
		DropNoise: c.f64("params.dropnoise"),
		CandWidth: c.int("params.candwidth"),
		HighFreq:  c.f64("params.highfreq"),
		LowFreq:   c.f64("params.lowfreq"),
		DiverLock: c.int("params.diverlock"),
		TraceID:   c.int("params.traceid"),
	}
}

// --- payload dispatch --------------------------------------------------------

// EncodePayload encodes a tagged payload for the wire. n is the instance
// size (solutions encode against it). A nil TagStop payload encodes to an
// empty body: the silent-shutdown order.
func EncodePayload(tag string, payload any, n int) ([]byte, error) {
	switch tag {
	case TagStart:
		m, ok := payload.(Start)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendInt(nil, m.Slot)
		dst = appendInt(dst, m.Round)
		dst = appendI64(dst, m.Budget)
		dst = appendParams(dst, m.Params)
		return AppendSolution(dst, m.Start, n)
	case TagResult:
		m, ok := payload.(Result)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendInt(nil, m.Slot)
		dst = appendInt(dst, m.Node)
		dst = appendInt(dst, m.Round)
		dst = appendString(dst, m.Err)
		if m.Res == nil {
			return appendBool(dst, false), nil
		}
		dst = appendBool(dst, true)
		dst = appendI64(dst, m.Res.Moves)
		dst = appendBool(dst, m.Res.Improved)
		dst, err := AppendSolution(dst, m.Res.Best, n)
		if err != nil {
			return nil, err
		}
		dst = appendU32(dst, uint32(len(m.Res.Pool)))
		for _, s := range m.Res.Pool {
			if dst, err = AppendSolution(dst, s, n); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case TagStop:
		if payload == nil {
			return nil, nil
		}
		m, ok := payload.(Stop)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendInt(nil, m.Inc)
		return appendBool(dst, m.Ack), nil
	case TagStopped:
		m, ok := payload.(Ack)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendInt(nil, m.Node)
		return appendInt(dst, m.Inc), nil
	case TagHeartbeat:
		m, ok := payload.(Heartbeat)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendInt(nil, m.Node)
		return appendI64(dst, m.Moves), nil
	case TagJoin:
		m, ok := payload.(Join)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		return appendString(nil, m.Name), nil
	case TagLeave:
		m, ok := payload.(Leave)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendInt(nil, m.Node)
		return appendString(dst, m.Reason), nil
	case TagGossip:
		m, ok := payload.(Gossip)
		if !ok {
			return nil, fmt.Errorf("proto: %s payload is %T", tag, payload)
		}
		dst := appendU64(nil, m.Epoch)
		return AppendSolution(dst, m.Best, n)
	}
	return nil, fmt.Errorf("proto: unknown tag %q", tag)
}

// DecodePayload decodes a tagged payload encoded by EncodePayload. It never
// panics on hostile input: truncation, stray bits, bad lengths and trailing
// bytes all return errors.
func DecodePayload(tag string, data []byte, n int) (any, error) {
	c := &cursor{buf: data}
	switch tag {
	case TagStart:
		m := Start{
			Slot:   c.int("start.slot"),
			Round:  c.int("start.round"),
			Budget: c.i64("start.budget"),
			Params: c.params(),
		}
		m.Start = c.solution(n, "start.solution")
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagResult:
		m := Result{
			Slot:  c.int("result.slot"),
			Node:  c.int("result.node"),
			Round: c.int("result.round"),
			Err:   c.string("result.err"),
		}
		if c.bool("result.hasres") {
			res := &tabu.Result{
				Moves:    c.i64("result.moves"),
				Improved: c.bool("result.improved"),
			}
			res.Best = c.solution(n, "result.best")
			poolLen := c.length("result.pool")
			for i := 0; i < poolLen && c.err == nil; i++ {
				res.Pool = append(res.Pool, c.solution(n, "result.pool"))
			}
			m.Res = res
		}
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagStop:
		if len(data) == 0 {
			return nil, nil // silent-shutdown order
		}
		m := Stop{Inc: c.int("stop.inc"), Ack: c.bool("stop.ack")}
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagStopped:
		m := Ack{Node: c.int("ack.node"), Inc: c.int("ack.inc")}
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagHeartbeat:
		m := Heartbeat{Node: c.int("heartbeat.node"), Moves: c.i64("heartbeat.moves")}
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagJoin:
		m := Join{Name: c.string("join.name")}
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagLeave:
		m := Leave{Node: c.int("leave.node"), Reason: c.string("leave.reason")}
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	case TagGossip:
		m := Gossip{Epoch: c.u64("gossip.epoch")}
		m.Best = c.solution(n, "gossip.best")
		if err := c.done(); err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("proto: unknown tag %q", tag)
}

// --- handshake ---------------------------------------------------------------

// EncodeHello encodes the master's handshake, instance included. The floats
// are bit-exact: a worker must evaluate exactly the objective the master
// would, or the cross-transport equivalence guarantee is meaningless.
func EncodeHello(h Hello) ([]byte, error) {
	ins := h.Ins
	if ins == nil {
		return nil, fmt.Errorf("proto: hello without instance")
	}
	if len(ins.Profit) != ins.N || len(ins.Capacity) != ins.M || len(ins.Weight) != ins.M {
		return nil, fmt.Errorf("proto: hello instance arrays inconsistent with n=%d m=%d", ins.N, ins.M)
	}
	// Node, seed, name, n, m, best known, the N+M+M·N floats, epoch and the
	// member list: sized up front, the payload is one allocation.
	size := 8 + 8 + 4 + len(ins.Name) + 8 + 8 + 8 + 8*(ins.N+ins.M+ins.M*ins.N) + 8 + 4 + 8*len(h.Members)
	dst := appendInt(make([]byte, 0, size), h.Node)
	dst = appendU64(dst, h.Seed)
	dst = appendString(dst, ins.Name)
	dst = appendInt(dst, ins.N)
	dst = appendInt(dst, ins.M)
	dst = appendF64(dst, ins.BestKnown)
	for _, p := range ins.Profit {
		dst = appendF64(dst, p)
	}
	for _, c := range ins.Capacity {
		dst = appendF64(dst, c)
	}
	for _, row := range ins.Weight {
		if len(row) != ins.N {
			return nil, fmt.Errorf("proto: hello weight row has %d entries, want %d", len(row), ins.N)
		}
		for _, w := range row {
			dst = appendF64(dst, w)
		}
	}
	dst = appendU64(dst, h.Epoch)
	dst = appendU32(dst, uint32(len(h.Members)))
	for _, m := range h.Members {
		dst = appendInt(dst, m)
	}
	return dst, nil
}

// DecodeHello decodes a handshake and validates the carried instance.
func DecodeHello(data []byte) (Hello, error) {
	c := &cursor{buf: data}
	h := Hello{Node: c.int("hello.node"), Seed: c.u64("hello.seed")}
	name := c.string("hello.name")
	n := c.int("hello.n")
	m := c.int("hello.m")
	bestKnown := c.f64("hello.bestknown")
	if c.err != nil {
		return Hello{}, c.err
	}
	if n < 1 || n > maxSliceLen || m < 1 || m > maxSliceLen {
		return Hello{}, fmt.Errorf("proto: hello instance dimensions n=%d m=%d out of range", n, m)
	}
	ins := &mkp.Instance{Name: name, N: n, M: m, BestKnown: bestKnown}
	ins.Profit = make([]float64, n)
	for j := range ins.Profit {
		ins.Profit[j] = c.f64("hello.profit")
	}
	ins.Capacity = make([]float64, m)
	for i := range ins.Capacity {
		ins.Capacity[i] = c.f64("hello.capacity")
	}
	ins.Weight = make([][]float64, m)
	for i := range ins.Weight {
		ins.Weight[i] = make([]float64, n)
		for j := range ins.Weight[i] {
			ins.Weight[i][j] = c.f64("hello.weight")
		}
	}
	h.Epoch = c.u64("hello.epoch")
	memberLen := c.length("hello.members")
	for i := 0; i < memberLen && c.err == nil; i++ {
		node := c.int("hello.member")
		if node < 1 {
			return Hello{}, fmt.Errorf("proto: hello member node %d out of range", node)
		}
		h.Members = append(h.Members, node)
	}
	if err := c.done(); err != nil {
		return Hello{}, err
	}
	if err := ins.Validate(); err != nil {
		return Hello{}, fmt.Errorf("proto: hello instance invalid: %w", err)
	}
	h.Ins = ins
	return h, nil
}
