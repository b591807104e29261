package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/stats"
)

// abMetric is one end-to-end metric of BENCHMARK.json.
type abMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// abRun is the result line of one perfbench run.
type abRun struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// readABRuns reads a file of concatenated perfbench outputs — a header line
// and a result line per run — and returns the result lines in order.
func readABRuns(path string) ([]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []abRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var run abRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if run.Metrics != nil {
			runs = append(runs, run)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench results", path)
	}
	return runs, nil
}

// abReport prints, for every end-to-end metric the benchmark spec declares,
// the parent's and the change's median and quartiles over their runs, the
// change/parent median ratio, how many pairs the change won (run i of each
// file is pair i; ties count for neither side), and the two-sided
// Mann–Whitney U p-value. It fails when the files hold different numbers of
// runs, a run lacks a metric, or any solve failed.
func abReport(w io.Writer, specPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []abMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %v", specPath, err)
	}
	parent, err := readABRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readABRuns(changePath)
	if err != nil {
		return err
	}
	if len(parent) != len(change) {
		return fmt.Errorf("%d parent runs but %d change runs", len(parent), len(change))
	}
	fmt.Fprintf(w, "%d pairs; parent %s, change %s\n", len(parent), parentPath, changePath)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbetter\tparent median [q1, q3]\tchange median [q1, q3]\tchange/parent\tchange wins\tp (Mann-Whitney U)")
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("%s: metric %s has better=%q", specPath, m.Name, m.Better)
		}
		pv, err := metricColumn(parent, m.Name, parentPath)
		if err != nil {
			return err
		}
		cv, err := metricColumn(change, m.Name, changePath)
		if err != nil {
			return err
		}
		wins := 0
		for i := range pv {
			if m.Better == "lower" && cv[i] < pv[i] || m.Better == "higher" && cv[i] > pv[i] {
				wins++
			}
		}
		p1, pm, p3 := stats.Quartiles(pv)
		c1, cm, c3 := stats.Quartiles(cv)
		_, p := stats.MannWhitneyU(cv, pv)
		fmt.Fprintf(tw, "%s (%s)\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.3f\t%d/%d\t%.2g\n",
			m.Name, m.Unit, m.Better, pm, p1, p3, cm, c1, c3, cm/pm, wins, len(pv), p)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	pa, pf := failures(parent)
	ca, cf := failures(change)
	fmt.Fprintf(w, "failed solves: parent %d of %d, change %d of %d\n", pf, pa, cf, ca)
	if pf > 0 || cf > 0 {
		return fmt.Errorf("runs reported failed solves")
	}
	return nil
}

func metricColumn(runs []abRun, name, path string) ([]float64, error) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s: run %d has no metric %s", path, i+1, name)
		}
		out[i] = v.Value
	}
	return out, nil
}

// failures sums the attempted and failed solves over runs; a run that is
// not correct counts one failure at least.
func failures(runs []abRun) (attempted, failed int) {
	for _, r := range runs {
		attempted += r.Attempted
		f := r.Failed
		if !r.Correct && f == 0 {
			f = 1
		}
		failed += f
	}
	return attempted, failed
}
