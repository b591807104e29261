package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mkp"
	"repro/internal/rng"
)

// workload is one named input family of the benchmark.
type workload struct {
	name      string
	n, m      int
	tightness float64
	p         int   // slave slots per solve
	moves     int64 // Options.RoundMoves
	round     int   // trajectory round every target is first reached in
	suite     int   // solves per pass
	guided    bool  // Options.Guide (LP-guided core search)
	wire      bool  // slaves over loopback TCP (Options.Workers)
	serve     bool  // jobs through the serve HTTP API
	// solverSeed is the engine seed of every solve. It is fixed per workload
	// rather than drawn from --seed because it draws the slaves' strategies,
	// and one strategy draw can cost three times another on the same
	// instance; --seed varies the instances instead.
	solverSeed uint64
}

var workloads = []workload{
	{name: "farm", n: 500, m: 30, tightness: 0.25, p: 2, moves: 300, round: 6, suite: 4, solverSeed: 12345},
	{name: "guided", n: 500, m: 5, tightness: 0.75, p: 2, moves: 60, round: 4, suite: 24, guided: true, solverSeed: 12345},
	{name: "wire", n: 250, m: 10, tightness: 0.25, p: 2, moves: 10, round: 12, suite: 64, wire: true, solverSeed: 12345},
	{name: "serve", n: 200, m: 10, tightness: 0.25, p: 1, moves: 200, round: 4, suite: 16, serve: true, solverSeed: 12345},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundCap is the Options.Rounds every solve runs under. A solve that has
// not reached its target by then has failed.
func (w workload) roundCap() int { return 2 * w.round }

// instance regenerates a suite instance from its seed, named the way the
// serve API names a generated instance so solutions round-trip by name.
func (w workload) instance(seed uint64) *mkp.Instance {
	return gen.GK(fmt.Sprintf("gen_%dx%d_s%d", w.m, w.n, seed), w.n, w.m, w.tightness, seed)
}

// options are the engine options of one solve. Workers are filled in by the
// wire runner.
func (w workload) options(target float64) core.Options {
	o := core.Options{P: w.p, Seed: w.solverSeed, Rounds: w.roundCap(), RoundMoves: w.moves, Target: target}
	if w.guided {
		o.Guide = &core.GuideConfig{Gap: 1}
	}
	return o
}

// solve is one seeded solve of a suite: every pass runs the same solves.
type solve struct {
	InsSeed uint64  `json:"ins_seed"`
	Target  float64 `json:"target"`
	ins     *mkp.Instance
}

// maxCandidates bounds the instance search of deriveSuite.
const maxCandidates = 4000

// deriveSuite draws GK instance seeds from the stream of the workload seed
// and keeps, in order, the first w.suite instances whose seeded in-process
// trajectory improves in round w.round. Each solve's target is the best
// value after that round, so every solve reaches its target in exactly
// w.round rounds and every suite does the same amount of search. Round-level
// improvements are sparse (often ten rounds apart), so a target taken at a
// fixed round without this rule would be reached anywhere from round 1 on.
func deriveSuite(w workload, seed uint64) ([]solve, error) {
	r := rng.New(seed)
	var out []solve
	for tries := 0; len(out) < w.suite; tries++ {
		if tries == maxCandidates {
			return nil, fmt.Errorf("%s: only %d of %d instances improve in round %d after %d candidates",
				w.name, len(out), w.suite, w.round, maxCandidates)
		}
		insSeed := r.Uint64() >> 32
		ins := w.instance(insSeed)
		opts := w.options(0)
		opts.Rounds = w.round
		e, err := core.NewEngine(ins, core.CTS2, opts)
		if err != nil {
			return nil, err
		}
		res, err := e.Run()
		e.Close()
		if err != nil {
			return nil, err
		}
		b := res.Stats.BestByRound
		if len(b) == w.round && (w.round == 1 || b[w.round-1] > b[w.round-2]) {
			out = append(out, solve{InsSeed: insSeed, Target: b[w.round-1], ins: ins})
		}
	}
	return out, nil
}

// pinsFile is pins.json: the calibration reference and, for the default and
// the held-out seed, each workload's suite with its trajectory round and
// round cap.
type pinsFile struct {
	CalibRefS     float64                           `json:"calib_ref_s"`
	CalibChecksum uint64                            `json:"calib_checksum"`
	DefaultSeed   uint64                            `json:"default_seed"`
	HeldOutSeed   uint64                            `json:"held_out_seed"`
	Suites        map[string]map[string]pinnedSuite `json:"suites"` // seed -> workload -> suite
}

type pinnedSuite struct {
	Round    int     `json:"round"`
	RoundCap int     `json:"round_cap"`
	Solves   []solve `json:"solves"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinsFile, error) {
	var p pinsFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// checkPins compares a derived suite with the pinned one when the seed is
// pinned. A mismatch means the seeded trajectories changed: the program no
// longer replays them bit for bit.
func (p pinsFile) checkPins(w workload, seed uint64, suite []solve) error {
	ps, ok := p.Suites[strconv.FormatUint(seed, 10)][w.name]
	if !ok {
		return nil
	}
	if ps.Round != w.round || ps.RoundCap != w.roundCap() || len(ps.Solves) != len(suite) {
		return fmt.Errorf("%s seed %d: pinned round %d cap %d with %d solves, benchmark has round %d cap %d with %d",
			w.name, seed, ps.Round, ps.RoundCap, len(ps.Solves), w.round, w.roundCap(), len(suite))
	}
	for i, s := range suite {
		if s.InsSeed != ps.Solves[i].InsSeed || math.Abs(s.Target-ps.Solves[i].Target) > 1e-9 {
			return fmt.Errorf("%s seed %d solve %d: derived instance %d target %v, pinned instance %d target %v",
				w.name, seed, i, s.InsSeed, s.Target, ps.Solves[i].InsSeed, ps.Solves[i].Target)
		}
	}
	return nil
}
