package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/core"
)

// Export is a generic tabular view of an experiment's rows, used by the CLI
// to emit machine-readable CSV or JSON next to the human tables.
type Export struct {
	Name   string
	Header []string
	Rows   [][]string
	// Host names the columns whose cells are host wall-clock measurements,
	// which no seed can pin: a baseline check reports their differences and
	// gates every other cell exactly.
	Host []string
}

// WriteCSV writes the table as RFC-4180 CSV with a header row.
func (e Export) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(e.Header); err != nil {
		return err
	}
	for _, row := range e.Rows {
		if len(row) != len(e.Header) {
			return fmt.Errorf("bench: export %q row has %d cells, header has %d", e.Name, len(row), len(e.Header))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the table as a JSON object {name, rows:[{col:val,...}]}.
func (e Export) WriteJSON(w io.Writer) error {
	objs := make([]map[string]string, 0, len(e.Rows))
	for _, row := range e.Rows {
		if len(row) != len(e.Header) {
			return fmt.Errorf("bench: export %q row has %d cells, header has %d", e.Name, len(row), len(e.Header))
		}
		obj := make(map[string]string, len(e.Header))
		for i, h := range e.Header {
			obj[h] = row[i]
		}
		objs = append(objs, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"name": e.Name, "rows": objs})
}

func fnum(v float64) string       { return strconv.FormatFloat(v, 'g', -1, 64) }
func fdur(v time.Duration) string { return strconv.FormatInt(v.Milliseconds(), 10) }
func fint64(v int64) string       { return strconv.FormatInt(v, 10) }
func fint(v int) string           { return strconv.Itoa(v) }
func fbool(v bool) string         { return strconv.FormatBool(v) }

// ExportTable1 converts Table 1 rows.
func ExportTable1(rows []Table1Row) Export {
	e := Export{
		Name:   "table1",
		Header: []string{"label", "size", "problems", "max_sim_ms", "max_host_ms", "avg_dev_pct", "max_dev_pct", "optima", "proven"},
		Host:   []string{"max_host_ms"},
	}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{
			r.Label, r.Size, fint(r.Problems), fdur(r.MaxSimTime), fdur(r.MaxTime),
			fnum(r.AvgDev), fnum(r.MaxDev), fint(r.Optima), fint(r.Proven),
		})
	}
	return e
}

// ExportTable2 converts Table 2 rows (means per algorithm).
func ExportTable2(rows []Table2Row) Export {
	e := Export{
		Name:   "table2",
		Header: []string{"problem", "size", "seq_mean", "its_mean", "cts1_mean", "cts2_mean", "sim_budget_ms", "winner"},
	}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{
			r.Problem, r.Size,
			fnum(r.Value[core.SEQ].Mean), fnum(r.Value[core.ITS].Mean),
			fnum(r.Value[core.CTS1].Mean), fnum(r.Value[core.CTS2].Mean),
			fdur(r.SimTime), r.Winner().String(),
		})
	}
	return e
}

// ExportFP converts the FP summary.
func ExportFP(sum *FPSummary) Export {
	e := Export{
		Name:   "fp",
		Header: []string{"name", "size", "optimum", "proven", "value", "hit", "rounds", "host_ms"},
		Host:   []string{"host_ms"},
	}
	for _, r := range sum.Rows {
		e.Rows = append(e.Rows, []string{
			r.Name, r.Size, fnum(r.Optimum), fbool(r.Proven), fnum(r.Value), fbool(r.Hit), fint(r.Rounds), fdur(r.Time),
		})
	}
	return e
}

// ExportAlpha converts ablation A rows.
func ExportAlpha(rows []AlphaRow) Export {
	e := Export{Name: "ablation_alpha", Header: []string{"alpha", "mean_value", "replacements", "restarts"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{fnum(r.Alpha), fnum(r.MeanValue), fint(r.Replacements), fint(r.Restarts)})
	}
	return e
}

// ExportTuning converts ablation B rows.
func ExportTuning(rows []TuningRow) Export {
	e := Export{Name: "ablation_tuning", Header: []string{"seed", "cts1", "cts2", "resets"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{strconv.FormatUint(r.Seed, 10), fnum(r.CTS1), fnum(r.CTS2), fint(r.Resets)})
	}
	return e
}

// ExportScaling converts ablation C rows.
func ExportScaling(rows []ScalingRow) Export {
	e := Export{Name: "ablation_scaling", Header: []string{"p", "mean_value", "total_moves", "mean_host_ms"}, Host: []string{"mean_host_ms"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{fint(r.P), fnum(r.MeanValue), fint64(r.TotalMoves), fdur(r.MeanTime)})
	}
	return e
}

// ExportStrategy converts ablation D rows.
func ExportStrategy(rows []StrategyRow) Export {
	e := Export{Name: "ablation_strategy", Header: []string{"lt_length", "nb_drop", "mean_value"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{fint(r.LtLength), fint(r.NbDrop), fnum(r.MeanValue)})
	}
	return e
}

// ExportPolicies converts ablation E rows.
func ExportPolicies(rows []PolicyRow) Export {
	e := Export{Name: "ablation_policies", Header: []string{"policy", "mean_value", "mean_host_ms"}, Host: []string{"mean_host_ms"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{r.Policy.String(), fnum(r.MeanValue), fdur(r.MeanTime)})
	}
	return e
}

// ExportGrain converts ablation F rows.
func ExportGrain(rows []GrainRow) Export {
	e := Export{Name: "ablation_grain", Header: []string{"scheme", "value", "moves", "barriers", "host_ms", "moves_per_ms"}, Host: []string{"host_ms", "moves_per_ms"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{r.Scheme, fnum(r.Value), fint64(r.Moves), fint64(r.Barriers), fdur(r.Elapsed), fnum(r.MovesPerMS)})
	}
	return e
}

// ExportSpeedup converts ablation G rows.
func ExportSpeedup(rows []SpeedupRow) Export {
	e := Export{Name: "ablation_speedup", Header: []string{"p", "hits", "mean_rounds", "mean_per_slave_moves"}}
	for _, r := range rows {
		mr, mm := "", ""
		if r.Hits > 0 {
			mr, mm = fnum(r.Rounds.Mean), fnum(r.PerSlave.Mean)
		}
		e.Rows = append(e.Rows, []string{fint(r.P), fint(r.Hits), mr, mm})
	}
	return e
}

// ExportKernel converts ablation H rows.
func ExportKernel(rows []KernelRow) Export {
	e := Export{Name: "ablation_kernel", Header: []string{"kernel", "mean_value", "mean_host_ms"}, Host: []string{"mean_host_ms"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{r.Kernel, fnum(r.Value.Mean), fnum(r.Time.Mean)})
	}
	return e
}
