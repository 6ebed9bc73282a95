package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to a baseline value a and
// a candidate value b. worse is how much b is worse than a, as a share of
// a (or absolutely, when a is 0). A pair whose own run-to-run spread is
// wider than the bound cannot be told apart from noise and is unresolved;
// a bound of 0 marks an exact metric, which has no spread.
func judge(def metricDef, a, b Metric) (verdict string, worse float64) {
	worse = b.Value - a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	if a.Value != 0 {
		worse /= math.Abs(a.Value)
	}
	switch {
	case def.Bound > 0 && max(spread(a.Runs), spread(b.Runs)) > def.Bound:
		return verdictUnresolved, worse
	case worse > def.Bound:
		return verdictRegressed, worse
	default:
		return verdictOK, worse
	}
}

func readResult(path string) (*Result, error) {
	var r Result
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	if r.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d, this program compares version %d", path, r.SchemaVersion, schemaVersion)
	}
	return &r, nil
}

// compareMain implements `bench compare A.json B.json`: A is the
// baseline, B the candidate. It exits 1 when any pair regressed and 2
// when the files cannot be compared.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASELINE.json CANDIDATE.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *Result
		if b, err = readResult(args[1]); err == nil {
			var regressed int
			if regressed, err = compare(w, a, b); err == nil {
				if regressed > 0 {
					return 1
				}
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// compare prints one row per (workload, end-to-end metric) of the
// baseline and returns how many regressed.
func compare(w io.Writer, a, b *Result) (regressed int, err error) {
	if a.Fixture.SnapshotSHA256 != b.Fixture.SnapshotSHA256 {
		return 0, fmt.Errorf("the two results were measured on different worlds (snapshot %.12s vs %.12s): measure the baseline again",
			a.Fixture.SnapshotSHA256, b.Fixture.SnapshotSHA256)
	}
	if a.Seconds != b.Seconds {
		return 0, fmt.Errorf("the two results used different windows (%d s vs %d s)", a.Seconds, b.Seconds)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tworse by\tbound\tverdict")
	counts := make(map[string]int)
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, ok := wa.Metrics[def.Name]
			if !ok {
				continue
			}
			verdict, worse, cand := verdictRegressed, math.NaN(), "missing"
			if wb != nil {
				if mb, ok := wb.Metrics[def.Name]; ok {
					verdict, worse = judge(def, ma, mb)
					cand = fmt.Sprintf("%.4f", mb.Value)
				}
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%s\t%+.1f%%\t%g%%\t%s\n", wl.name, def.Name, ma.Value, def.Unit, cand, worse*100, def.Bound*100, verdict)
		}
		if wb != nil && wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(tw, "%s\tresults_fingerprint\t%s\t%s\t\t\tdiffers\n", wl.name, wa.Fingerprint, wb.Fingerprint)
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	return counts[verdictRegressed], nil
}
