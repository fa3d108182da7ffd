package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// quartiles returns the first and third quartile of sorted the way Python's
// statistics.quantiles(v, n=4) does (positions k·(n+1)/4, interpolated), so
// the spread printed here is the one a driver computes.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(pos float64) float64 { // 1-based position
		i := min(max(int(pos), 1), len(sorted)-1)
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	n := float64(len(sorted) + 1)
	return at(n / 4), at(3 * n / 4)
}

// repeatSets runs o.repeat full sets of the selected workloads and prints,
// per workload and end-to-end metric: the median, the quartiles and their
// distance as a share of the median; how much worse the median of the later
// half of the sets is than that of the earlier half; and the largest
// deviation between any two single runs. The first two are checked against
// the metric's regression bound, as a driver comparing two commits checks
// them: the quartile spread must fit inside the bound (setup_s excepted),
// and two sets of runs of the same code must agree within it, or a
// regression of that size could not be told from noise. The largest single-run deviation is information:
// single runs are never compared. So is the quartile spread of the timing
// metrics as measured, before they are stated at the reference host speed.
func repeatSets(selected []workload, o *options, stdout, stderr io.Writer) int {
	if o.repeat < 2 {
		fmt.Fprintln(stderr, "benchmark: -repeat needs at least 2 sets")
		return 2
	}
	values := map[string][]float64{}   // "workload/metric" → one value per set, in time order
	measured := map[string][]float64{} // the same for the timing metrics as measured
	start := time.Now()
	for set := range o.repeat {
		// Like a driver comparing two commits, each set uses another seed.
		run := *o
		run.seed = o.seed + int64(set)
		for _, w := range selected {
			res, err := runWorkload(w, &run)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				res.print(stdout)
				return 1
			}
			for _, s := range endToEnd {
				key := w.name + "/" + s.name
				values[key] = append(values[key], res.Metrics[s.name].Value)
				if m, ok := res.measured[s.name]; ok {
					measured[key] = append(measured[key], m)
				}
			}
			// One line per run, so an outlier can be held against the host
			// diagnostics of the same run.
			m := res.Metrics
			fmt.Fprintf(stderr, "set %d/%d at %4.0f s  %-15s setup_s %.3f  ops_per_s %.1f  p50_ms %.4f  cpu_ms_per_op %.4f  host speed %.0f  steal %.4f\n",
				set+1, o.repeat, time.Since(start).Seconds(), w.name, m["setup_s"].Value, m["ops_per_s"].Value, m["p50_ms"].Value, m["cpu_ms_per_op"].Value,
				res.host.Speed, res.host.StealShare)
		}
	}

	fmt.Fprintf(stdout, "%d sets over %.0f min, seeds %d..%d, %d s measured per run\n\n", o.repeat, time.Since(start).Minutes(), o.seed, o.seed+int64(o.repeat)-1, o.seconds)
	fmt.Fprintln(stdout, "| workload | metric | unit | median | q1 | q3 | IQR/median | later half vs earlier | bound | within | max single-run dev | IQR/median as measured |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range selected {
		for _, s := range endToEnd {
			inOrder := values[w.name+"/"+s.name]
			earlier, later := median(inOrder[:len(inOrder)/2]), median(inOrder[len(inOrder)/2:])
			worse := ratio(later-earlier, earlier)
			if s.better == "higher" {
				worse = -worse
			}
			v := sortedCopy(inOrder)
			q1, q3 := quartiles(v)
			spread := ratio(q3-q1, median(v))
			within := "yes"
			// A driver does not hold setup_s to the spread check (one set-up
			// per run cannot be a median), only to the comparison of sets.
			if (spread > s.bound && s.name != "setup_s") || worse > s.bound {
				within, code = "NO", 1
			}
			raw := "—"
			if m := sortedCopy(measured[w.name+"/"+s.name]); len(m) > 0 {
				m1, m3 := quartiles(m)
				raw = fmt.Sprintf("%.2f%%", 100*ratio(m3-m1, median(m)))
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.4f | %.4f | %.4f | %.2f%% | %+.2f%% worse | %.0f%% | %s | %.2f%% | %s |\n",
				w.name, s.name, s.unit, median(v), q1, q3, 100*spread, 100*worse, 100*s.bound, within, 100*ratio(v[len(v)-1]-v[0], v[0]), raw)
		}
	}
	return code
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
