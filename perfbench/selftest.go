package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"

	"edc"
	"edc/internal/bench"
)

// selfTestRequests keeps the self-test's sweep short; the tables must
// match at any size.
const selfTestRequests = 300

// selfTest checks the benchmark itself:
//   - a short paper-sweep renders the fig8 and fig10 tables of
//     bench.Run byte for byte at the same Params, so the benchmark drives
//     exactly the systems the paper reproduction reports on;
//   - one serve-ladder rate gives identical virtual results at
//     GOMAXPROCS=1 and at nproc, the paced-determinism contract the
//     serve workload's digest relies on.
func selfTest() error {
	if err := selfTestFigures(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "selftest: fig8 and fig10 match internal/bench")
	return selfTestPaced()
}

func selfTestFigures() error {
	cells, err := sweepCells(selfTestRequests, []int64{5}, edc.Schemes(), edc.DataProfiles()["enterprise"])
	if err != nil {
		return err
	}
	results := map[[2]string]*edc.Results{}
	for i := range cells {
		r, _ := runCell(&cells[i], i, 0, &passCtx{})
		if r.err != nil {
			return r.err
		}
		results[cells[i].key] = r.res
	}
	for _, fig := range []string{"fig8", "fig10"} {
		want, err := bench.Run(fig, bench.Params{Requests: selfTestRequests})
		if err != nil {
			return err
		}
		got := figureTable(fig, results)
		got.ID, got.Title = want[0].ID, want[0].Title
		var wb, gb bytes.Buffer
		if err := want[0].FprintCSV(&wb); err != nil {
			return err
		}
		if err := got.FprintCSV(&gb); err != nil {
			return err
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			return fmt.Errorf("%s differs from internal/bench:\n--- bench\n%s--- perfbench\n%s", fig, wb.Bytes(), gb.Bytes())
		}
	}
	return nil
}

// traceOrder is the paper's presentation order of the four traces.
var traceOrder = []string{"Fin1", "Fin2", "Usr_0", "Prxy_0"}

// figureTable renders Fig. 8 (compression ratio) or Fig. 10 (mean
// response time), each normalised to Native, from the sweep's results.
func figureTable(fig string, res map[[2]string]*edc.Results) *bench.Table {
	t := &bench.Table{Header: append(append([]string{"scheme"}, traceOrder...), "average")}
	value := func(tn string, s edc.Scheme) float64 {
		r, nat := res[[2]string{tn, string(s)}], res[[2]string{tn, string(edc.SchemeNative)}]
		if fig == "fig8" {
			return r.TrafficRatio() / nat.TrafficRatio()
		}
		return float64(r.MeanResponse()) / float64(nat.MeanResponse())
	}
	for _, s := range edc.Schemes() {
		row := []string{string(s)}
		var sum float64
		for _, tn := range traceOrder {
			v := value(tn, s)
			sum += v
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.Rows = append(t.Rows, append(row, fmt.Sprintf("%.2f", sum/float64(len(traceOrder)))))
	}
	note := ""
	for i, tn := range traceOrder {
		if i > 0 {
			note += ", "
		}
		edcRes := res[[2]string{tn, string(edc.SchemeEDC)}]
		if fig == "fig8" {
			note += fmt.Sprintf("%s %.1f%%", tn, (1-1/edcRes.TrafficRatio())*100)
		} else {
			lzf := res[[2]string{tn, string(edc.SchemeLzf)}]
			note += fmt.Sprintf("%s %.1f%%", tn, (1-float64(edcRes.MeanResponse())/float64(lzf.MeanResponse()))*100)
		}
	}
	if fig == "fig8" {
		t.Notes = []string{"EDC space savings: " + note + " (paper: up to 38.7%, avg 33.7%)"}
	} else {
		t.Notes = []string{"EDC response-time reduction vs Lzf: " + note + " (paper: up to 61.4%, avg 36.7%)"}
	}
	return t
}

// selfTestPaced serves the rate nearest the knee at GOMAXPROCS=1 and at
// nproc and compares the canonical virtual results.
func selfTestPaced() error {
	cells, err := serveLadder(defaultSeed)
	if err != nil {
		return err
	}
	var c *cell
	for i := range cells {
		if cells[i].qps == subKneeQPS {
			c = &cells[i]
		}
	}
	if c == nil {
		return fmt.Errorf("no ladder rate at %d qps", subKneeQPS)
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	var got [2][]byte
	for i, n := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(n)
		r, _ := runCell(c, 0, 0, &passCtx{})
		if r.err != nil {
			return fmt.Errorf("GOMAXPROCS=%d: %w", n, r.err)
		}
		got[i] = canonical(&r)
	}
	if !bytes.Equal(got[0], got[1]) {
		return fmt.Errorf("%s: virtual results differ between GOMAXPROCS=1 and %d:\n%s\n%s",
			c.name, runtime.NumCPU(), got[0], got[1])
	}
	fmt.Fprintf(os.Stderr, "selftest: %s identical at GOMAXPROCS=1 and %d\n", c.name, runtime.NumCPU())
	return nil
}
