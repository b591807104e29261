package proto

import (
	"bytes"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
)

// codecInstance builds a small valid instance for handshake tests.
func codecInstance(n, m int, seed uint64) *mkp.Instance {
	r := rng.New(seed)
	ins := &mkp.Instance{
		Name:      "codec",
		N:         n,
		M:         m,
		BestKnown: 123.5,
		Profit:    make([]float64, n),
		Weight:    make([][]float64, m),
		Capacity:  make([]float64, m),
	}
	for j := 0; j < n; j++ {
		ins.Profit[j] = float64(r.IntRange(1, 100))
	}
	for i := 0; i < m; i++ {
		ins.Weight[i] = make([]float64, n)
		total := 0.0
		for j := 0; j < n; j++ {
			ins.Weight[i][j] = float64(r.IntRange(1, 50))
			total += ins.Weight[i][j]
		}
		ins.Capacity[i] = 0.5 * total
	}
	return ins
}

func randomSolution(n int, seed uint64) mkp.Solution {
	r := rng.New(seed)
	x := bitset.New(n)
	for j := 0; j < n; j++ {
		if r.Float64() < 0.4 {
			x.Set(j)
		}
	}
	return mkp.Solution{X: x, Value: r.Float64() * 10000}
}

func sampleParams() tabu.Params {
	return tabu.Params{
		Strategy:  tabu.Strategy{LtLength: 9, NbDrop: 3, NbLocal: 25, Algo: tabu.AlgoAssim},
		Policy:    1,
		REMDepth:  4,
		NbInt:     7,
		NbDiv:     2,
		BBest:     5,
		Intensify: 1,
		OscDepth:  3,
		AddNoise:  0.125,
		DropNoise: 0.25,
		CandWidth: 12,
		HighFreq:  0.9,
		LowFreq:   0.1,
		DiverLock: 6,
		TraceID:   42,
	}
}

// samplePayloads returns one representative encodable payload per tag,
// covering the optional branches (error results, nil pools, ack stops).
func samplePayloads(n int) map[string][]any {
	return map[string][]any{
		TagStart: {
			Start{Slot: 2, Round: 7, Start: randomSolution(n, 1), Params: sampleParams(), Budget: 1200},
		},
		TagResult: {
			Result{Slot: 1, Node: 2, Round: 3, Res: &tabu.Result{
				Moves: 900, Improved: true, Best: randomSolution(n, 2),
				Pool: []mkp.Solution{randomSolution(n, 3), randomSolution(n, 4)},
			}},
			Result{Slot: 0, Node: 1, Round: 0, Err: "params: NbLocal must be positive"},
		},
		TagStop: {
			Stop{Inc: 3, Ack: true},
			Stop{Inc: 0, Ack: false},
		},
		TagStopped: {
			Ack{Node: 2, Inc: 3},
		},
		TagHeartbeat: {
			Heartbeat{Node: 1, Moves: 123456},
		},
		TagJoin: {
			Join{Name: "spot-worker-7"},
			Join{},
		},
		TagLeave: {
			Leave{Node: 9, Reason: "budget"},
			Leave{Node: 1},
		},
		TagGossip: {
			Gossip{Epoch: 42, Best: randomSolution(n, 6)},
			Gossip{Epoch: 0, Best: randomSolution(n, 7)},
		},
	}
}

func equalSolutions(a, b mkp.Solution) bool {
	return a.Value == b.Value && a.X.Equal(b.X)
}

func equalResults(a, b Result) bool {
	if a.Slot != b.Slot || a.Node != b.Node || a.Round != b.Round || a.Err != b.Err {
		return false
	}
	if (a.Res == nil) != (b.Res == nil) {
		return false
	}
	if a.Res == nil {
		return true
	}
	if a.Res.Moves != b.Res.Moves || a.Res.Improved != b.Res.Improved ||
		!equalSolutions(a.Res.Best, b.Res.Best) || len(a.Res.Pool) != len(b.Res.Pool) {
		return false
	}
	for i := range a.Res.Pool {
		if !equalSolutions(a.Res.Pool[i], b.Res.Pool[i]) {
			return false
		}
	}
	return true
}

func TestPayloadRoundTrip(t *testing.T) {
	const n = 37
	for tag, payloads := range samplePayloads(n) {
		for i, p := range payloads {
			data, err := EncodePayload(tag, p, n)
			if err != nil {
				t.Fatalf("%s[%d]: encode: %v", tag, i, err)
			}
			back, err := DecodePayload(tag, data, n)
			if err != nil {
				t.Fatalf("%s[%d]: decode: %v", tag, i, err)
			}
			// The canonical encoding is a bijection on the serialized fields,
			// so decode∘encode must reproduce the bytes exactly.
			again, err := EncodePayload(tag, back, n)
			if err != nil {
				t.Fatalf("%s[%d]: re-encode: %v", tag, i, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s[%d]: round trip changed encoding:\n  sent %+v\n  got  %+v", tag, i, p, back)
			}
			// Spot checks against the original structs catch a field dropped
			// symmetrically by both codec directions.
			same := true
			switch want := p.(type) {
			case Start:
				got := back.(Start)
				same = got.Slot == want.Slot && got.Round == want.Round &&
					got.Budget == want.Budget &&
					got.Params.Strategy == want.Params.Strategy &&
					got.Params.AddNoise == want.Params.AddNoise &&
					got.Params.CandWidth == want.Params.CandWidth &&
					equalSolutions(got.Start, want.Start)
			case Result:
				same = equalResults(back.(Result), want)
			case Stop:
				same = back.(Stop) == want
			case Ack:
				same = back.(Ack) == want
			case Heartbeat:
				same = back.(Heartbeat) == want
			case Join:
				same = back.(Join) == want
			case Leave:
				same = back.(Leave) == want
			case Gossip:
				got := back.(Gossip)
				same = got.Epoch == want.Epoch && equalSolutions(got.Best, want.Best)
			}
			if !same {
				t.Fatalf("%s[%d]: round trip changed payload:\n  sent %+v\n  got  %+v", tag, i, p, back)
			}
		}
	}
}

func TestSilentStopRoundTrip(t *testing.T) {
	data, err := EncodePayload(TagStop, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("silent stop encoded to %d bytes, want 0", len(data))
	}
	back, err := DecodePayload(TagStop, data, 10)
	if err != nil {
		t.Fatal(err)
	}
	if back != nil {
		t.Fatalf("silent stop decoded to %+v, want nil", back)
	}
}

// TestWireSizes pins the accounted sizes against the real encoder: the
// simulated clock and the traffic stats use SolutionSize/StrategySize, so a
// codec change that shifts an encoded length must show up here.
func TestWireSizes(t *testing.T) {
	if s := StrategySize(); s != 32 {
		t.Fatalf("StrategySize() = %d, want 32", s)
	}
	if s := SolutionSize(100); s != 21 {
		t.Fatalf("SolutionSize(100) = %d, want 21", s)
	}
	if s := SolutionSize(8); s != 9 {
		t.Fatalf("SolutionSize(8) = %d, want 9", s)
	}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 100} {
		data, err := AppendSolution(nil, randomSolution(n, uint64(n)), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != SolutionSize(n) {
			t.Fatalf("n=%d: encoded solution is %d bytes, SolutionSize says %d", n, len(data), SolutionSize(n))
		}
	}
	if got := len(AppendStrategy(nil, tabu.Strategy{LtLength: 1, NbDrop: 2, NbLocal: 3, Algo: tabu.AlgoRepair})); got != StrategySize() {
		t.Fatalf("encoded strategy is %d bytes, StrategySize says %d", got, StrategySize())
	}
}

// TestDecodeRejectsUnknownAlgo pins the v3 validation: the algorithm id in a
// dispatched strategy must name a registered portfolio member. A forged or
// future id is structural corruption — rejected at decode, never handed to a
// slave that would have to guess.
func TestDecodeRejectsUnknownAlgo(t *testing.T) {
	const n = 37
	p := sampleParams()
	p.Strategy.Algo = tabu.AlgoID(tabu.NumAlgos) // first invalid id
	data, err := EncodePayload(TagStart, Start{Start: randomSolution(n, 1), Params: p, Budget: 10}, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(TagStart, data, n); err == nil {
		t.Fatal("out-of-range algorithm id accepted")
	}
	p.Strategy.Algo = -1
	data, err = EncodePayload(TagStart, Start{Start: randomSolution(n, 1), Params: p, Budget: 10}, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(TagStart, data, n); err == nil {
		t.Fatal("negative algorithm id accepted")
	}
}

// TestDecodeRejectsV2Strategy pins payload-level skew in the other
// direction: a v2 peer's strategy (three integers, no algorithm id) is eight
// bytes short, so the cursor must report truncation rather than absorb a
// following field as the id. The frame-level version gate rejects such peers
// first (TestFrameRejectsVersionSkew in wire); this guards the codec itself.
func TestDecodeRejectsV2Strategy(t *testing.T) {
	const n = 37
	data, err := EncodePayload(TagStart, Start{Start: randomSolution(n, 1), Params: sampleParams(), Budget: 10}, n)
	if err != nil {
		t.Fatal(err)
	}
	// The strategy triple leads Params; excising the id's 8 bytes yields
	// exactly what a v2 encoder would have produced for these fields.
	off := 8 + 8 + 8 + 3*8 // slot + round + budget + triple
	v2 := append(append([]byte(nil), data[:off]...), data[off+8:]...)
	if _, err := DecodePayload(TagStart, v2, n); err == nil {
		t.Fatal("v2-shaped strategy (no algorithm id) accepted")
	}
}

// TestDecodeTruncationRejected feeds every proper prefix of every valid
// encoding to the decoder: all of them must error, none may panic or
// mis-decode. (The zero-length TagStop prefix is excluded: an empty stop
// body IS the silent-shutdown order by design.)
func TestDecodeTruncationRejected(t *testing.T) {
	const n = 37
	for tag, payloads := range samplePayloads(n) {
		for i, p := range payloads {
			data, err := EncodePayload(tag, p, n)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < len(data); k++ {
				if tag == TagStop && k == 0 {
					continue
				}
				if _, err := DecodePayload(tag, data[:k], n); err == nil {
					t.Fatalf("%s[%d]: %d-byte prefix of %d accepted", tag, i, k, len(data))
				}
			}
		}
	}
}

// TestDecodeTrailingBytesRejected: a payload longer than its message is
// corruption, not slack.
func TestDecodeTrailingBytesRejected(t *testing.T) {
	const n = 37
	for tag, payloads := range samplePayloads(n) {
		data, err := EncodePayload(tag, payloads[0], n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePayload(tag, append(data, 0), n); err == nil {
			t.Fatalf("%s: trailing byte accepted", tag)
		}
	}
}

// TestDecodeBitFlipsNeverPanic flips every bit of every sample encoding.
// Without the frame CRC a flip may still decode (a changed float is a valid
// float); the codec's contract at this layer is weaker but absolute: no
// panic, no allocation explosion, and structural damage is an error.
func TestDecodeBitFlipsNeverPanic(t *testing.T) {
	const n = 37
	for tag, payloads := range samplePayloads(n) {
		for _, p := range payloads {
			data, err := EncodePayload(tag, p, n)
			if err != nil {
				t.Fatal(err)
			}
			for bit := 0; bit < len(data)*8; bit++ {
				mut := append([]byte(nil), data...)
				mut[bit/8] ^= 1 << uint(bit%8)
				DecodePayload(tag, mut, n) // must not panic
			}
		}
	}
}

// TestStrayAssignmentBitsRejected: packed bits above item n-1 would be
// silently masked by the bitset; the decoder must reject them instead.
func TestStrayAssignmentBitsRejected(t *testing.T) {
	const n = 12 // 2 packed bytes, top 4 bits of the last one unused
	data, err := EncodePayload(TagStart, Start{Start: randomSolution(n, 5), Params: sampleParams()}, n)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] |= 0x80
	if _, err := DecodePayload(TagStart, mut, n); err == nil {
		t.Fatal("stray assignment bit beyond n accepted")
	}
}

func TestEncodeRejectsWrongTypes(t *testing.T) {
	if _, err := EncodePayload(TagStart, Result{}, 8); err == nil {
		t.Fatal("Result accepted as start payload")
	}
	if _, err := EncodePayload("rumor", Heartbeat{}, 8); err == nil {
		t.Fatal("unknown tag accepted")
	}
	if _, err := DecodePayload("rumor", nil, 8); err == nil {
		t.Fatal("unknown tag decoded")
	}
	if _, err := EncodePayload(TagGossip, Leave{}, 8); err == nil {
		t.Fatal("Leave accepted as gossip payload")
	}
	short := mkp.Solution{X: bitset.New(4), Value: 1}
	if _, err := EncodePayload(TagStart, Start{Start: short, Params: sampleParams()}, 8); err == nil {
		t.Fatal("solution with wrong bit count accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ins := codecInstance(23, 4, 77)
	data, err := EncodeHello(Hello{Node: 3, Seed: 0xDEADBEEFCAFE, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeHello(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Node != 3 || back.Seed != 0xDEADBEEFCAFE {
		t.Fatalf("handshake header changed: %+v", back)
	}
	got := back.Ins
	if got.Name != ins.Name || got.N != ins.N || got.M != ins.M || got.BestKnown != ins.BestKnown {
		t.Fatalf("instance header changed: %+v", got)
	}
	// Bit-exact floats: the worker must evaluate exactly the master's
	// objective or cross-transport equivalence is meaningless.
	for j, p := range ins.Profit {
		if got.Profit[j] != p {
			t.Fatalf("profit %d changed", j)
		}
	}
	for i := range ins.Weight {
		if got.Capacity[i] != ins.Capacity[i] {
			t.Fatalf("capacity %d changed", i)
		}
		for j := range ins.Weight[i] {
			if got.Weight[i][j] != ins.Weight[i][j] {
				t.Fatalf("weight %d,%d changed", i, j)
			}
		}
	}
}

// TestHelloElasticRoundTrip covers the membership fields the elastic fleet
// added to the handshake: the joiner's admission epoch and the live-member
// view it receives so it knows the fleet it entered.
func TestHelloElasticRoundTrip(t *testing.T) {
	ins := codecInstance(11, 3, 81)
	want := Hello{Node: 7, Seed: 99, Ins: ins, Epoch: 1 << 40, Members: []int{1, 3, 7, 250}}
	data, err := EncodeHello(want)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeHello(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != want.Epoch {
		t.Fatalf("epoch changed: got %d, want %d", back.Epoch, want.Epoch)
	}
	if len(back.Members) != len(want.Members) {
		t.Fatalf("members changed: got %v, want %v", back.Members, want.Members)
	}
	for i, node := range want.Members {
		if back.Members[i] != node {
			t.Fatalf("members changed: got %v, want %v", back.Members, want.Members)
		}
	}
}

// TestEncodeHelloAllocatesOnce: the handshake payload is sized up front, so
// encoding it is one allocation of exactly the bytes it carries, however
// large the instance.
func TestEncodeHelloAllocatesOnce(t *testing.T) {
	h := Hello{Node: 7, Seed: 99, Ins: codecInstance(250, 10, 81), Epoch: 3, Members: []int{1, 3, 7}}
	data, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Fatalf("payload of %d bytes in a buffer of %d", len(data), cap(data))
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = EncodeHello(h) }); allocs != 1 {
		t.Fatalf("EncodeHello made %v allocations, want 1", allocs)
	}
}

// TestHelloRejectsInvalidMember: a membership view naming node 0 (the master)
// or a negative id is structural corruption, not data.
func TestHelloRejectsInvalidMember(t *testing.T) {
	ins := codecInstance(9, 2, 82)
	data, err := EncodeHello(Hello{Node: 1, Seed: 5, Ins: ins, Members: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	// The single member id occupies the final 8 bytes of the encoding.
	mut := append([]byte(nil), data...)
	for i := len(mut) - 8; i < len(mut); i++ {
		mut[i] = 0
	}
	if _, err := DecodeHello(mut); err == nil {
		t.Fatal("member id 0 accepted")
	}
}

func TestHelloTruncationRejected(t *testing.T) {
	ins := codecInstance(9, 2, 78)
	data, err := EncodeHello(Hello{Node: 1, Seed: 5, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(data); k += 7 {
		if _, err := DecodeHello(data[:k]); err == nil {
			t.Fatalf("%d-byte hello prefix accepted", k)
		}
	}
	if _, err := DecodeHello(append(data, 1)); err == nil {
		t.Fatal("hello with trailing byte accepted")
	}
}

func TestHelloRejectsCorruptDimensions(t *testing.T) {
	ins := codecInstance(9, 2, 79)
	data, err := EncodeHello(Hello{Node: 1, Seed: 5, Ins: ins})
	if err != nil {
		t.Fatal(err)
	}
	// The item count sits after node (8) + seed (8) + name (4 + 5). Blowing
	// it up must be rejected by the dimension guard, not attempted as an
	// allocation.
	mut := append([]byte(nil), data...)
	off := 8 + 8 + 4 + len(ins.Name)
	for i := 0; i < 8; i++ {
		mut[off+i] = 0xFF
	}
	if _, err := DecodeHello(mut); err == nil {
		t.Fatal("absurd item count accepted")
	}
}

// FuzzDecodePayload drives the decoder with arbitrary bytes under every tag.
// The invariant is crash-freedom: hostile input may only ever produce an
// error, never a panic or a runaway allocation.
func FuzzDecodePayload(f *testing.F) {
	const n = 37
	for tag, payloads := range samplePayloads(n) {
		for _, p := range payloads {
			if data, err := EncodePayload(tag, p, n); err == nil {
				f.Add(data)
			}
		}
	}
	tags := []string{TagStart, TagResult, TagStop, TagStopped, TagHeartbeat, TagJoin, TagLeave, TagGossip}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tag := range tags {
			DecodePayload(tag, data, n)
		}
	})
}

// FuzzDecodeHello does the same for the handshake decoder, whose instance
// arrays make it the largest allocation surface in the codec.
func FuzzDecodeHello(f *testing.F) {
	ins := codecInstance(9, 2, 80)
	if data, err := EncodeHello(Hello{Node: 1, Seed: 5, Ins: ins}); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeHello(data)
	})
}

// TestCorruptedResultDecodesCleanly pins the trust boundary: a Result whose
// payload is a semantic lie — a forged objective value, an infeasible
// assignment, a stale round stamp — is still a perfectly well-formed frame,
// and the codec must decode it verbatim. The codec rejects only structural
// corruption (truncation, bad lengths); catching lies is the master's
// revalidation (vetResult) at the collect layer, which needs the decoded lie
// intact to recompute the truth from the bits. These three shapes are also
// seeded into the FuzzDecodePayload corpus.
func TestCorruptedResultDecodesCleanly(t *testing.T) {
	const n = 37
	empty := bitset.New(n)
	full := bitset.New(n)
	for j := 0; j < n; j++ {
		full.Set(j)
	}
	cases := map[string]Result{
		"forged value":      {Slot: 1, Node: 2, Round: 3, Res: &tabu.Result{Moves: 1, Best: mkp.Solution{X: empty, Value: 1e12}}},
		"infeasible bitset": {Slot: 0, Node: 1, Round: 2, Res: &tabu.Result{Moves: 50, Best: mkp.Solution{X: full, Value: 1234}}},
		"stale round stamp": {Slot: 2, Node: 3, Round: 1 << 40, Res: &tabu.Result{Moves: 10, Best: mkp.Solution{X: empty, Value: 99}}},
	}
	for name, r := range cases {
		data, err := EncodePayload(TagResult, r, n)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := DecodePayload(TagResult, data, n)
		if err != nil {
			t.Fatalf("%s: the codec rejected a well-formed lie: %v", name, err)
		}
		got, ok := back.(Result)
		if !ok {
			t.Fatalf("%s: decoded %T", name, back)
		}
		if got.Round != r.Round || got.Res == nil || got.Res.Best.Value != r.Res.Best.Value ||
			!got.Res.Best.X.Equal(r.Res.Best.X) {
			t.Fatalf("%s: lie not preserved verbatim: %+v", name, got)
		}
	}
}
