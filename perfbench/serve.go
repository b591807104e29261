package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/serve"
)

// serveClient drives the serve HTTP API the way a user does: submit, follow
// the event stream to the end, fetch the status and the solution.
type serveClient struct {
	base string
	hc   *http.Client
	w    workload
}

// jobRec is what one served job measured. Times are wall-clock stamps: the
// server's come back as JSON, which carries no monotonic reading.
type jobRec struct {
	submit, accepted, done, end time.Time
	status                      serve.Status
	events                      int
	eventGaps                   []float64 // between consecutive round/done events
	bytes                       int64     // transport bytes at done
	httpErrors                  int
	err                         error
}

func now() time.Time { return time.Now().Round(0) }

func (c *serveClient) job(s solve) (rec jobRec) {
	spec := serve.Spec{
		Algorithm: "CTS2", P: c.w.p, Seed: c.w.solverSeed, Rounds: c.w.roundCap(),
		Moves: c.w.moves, Target: s.Target,
		Gen: &serve.GenSpec{N: c.w.n, M: c.w.m, Tightness: c.w.tightness, Seed: s.InsSeed},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.submit = now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = fmt.Errorf("POST /jobs: %w", err)
		return rec
	}
	var st serve.Status
	err = decodeJSON(resp, http.StatusAccepted, &st)
	rec.accepted = now()
	if err != nil {
		rec.httpErrors++
		rec.err = err
		return rec
	}
	if rec.err = c.follow(st.ID, &rec); rec.err != nil {
		return rec
	}
	resp, err = c.hc.Get(c.base + "/jobs/" + st.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	if rec.err = decodeJSON(resp, http.StatusOK, &rec.status); rec.err != nil {
		rec.httpErrors++
		return rec
	}
	rec.err = c.verify(st.ID, s, &rec)
	rec.end = now()
	return rec
}

// follow reads the job's NDJSON event stream until its terminal event.
func (c *serveClient) follow(id string, rec *jobRec) error {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.httpErrors++
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var last time.Time
	for sc.Scan() {
		t := now()
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
		rec.events++
		if (ev.Kind == "round" && ev.Round >= 1) || ev.Kind == "done" {
			if !last.IsZero() {
				rec.eventGaps = append(rec.eventGaps, t.Sub(last).Seconds())
			}
			last = t
		}
		switch ev.Kind {
		case "done":
			rec.done, rec.bytes = t, ev.Bytes
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return nil
		case "failed", "interrupted":
			return fmt.Errorf("job %s %s: %s", id, ev.Kind, ev.Detail)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a terminal event", id)
}

// verify checks the served solution against the regenerated instance.
func (c *serveClient) verify(id string, s solve, rec *jobRec) error {
	if rec.status.State != serve.StateDone {
		return fmt.Errorf("job %s state %s", id, rec.status.State)
	}
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/solution")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.httpErrors++
		return fmt.Errorf("GET solution: %s", resp.Status)
	}
	name, sol, err := mkp.ReadSolution(resp.Body)
	if err != nil {
		return err
	}
	if name != s.ins.Name {
		return fmt.Errorf("solution names instance %q, want %q", name, s.ins.Name)
	}
	if err := mkp.CheckSolution(s.ins, sol); err != nil {
		return err
	}
	if math.Abs(sol.Value-rec.status.Value) > 1e-6 {
		return fmt.Errorf("solution value %v, status value %v", sol.Value, rec.status.Value)
	}
	if sol.Value < s.Target-1e-9 {
		return fmt.Errorf("value %v below target %v", sol.Value, s.Target)
	}
	if rec.status.Round != c.w.round {
		return fmt.Errorf("target reached in round %d, trajectory reached it in round %d", rec.status.Round, c.w.round)
	}
	return nil
}

// scrape reads the server's merged metric snapshot.
func (c *serveClient) scrape() (*metrics.Snapshot, error) {
	resp, err := c.hc.Get(c.base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	var snap metrics.Snapshot
	if err := decodeJSON(resp, http.StatusOK, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func decodeJSON(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}
