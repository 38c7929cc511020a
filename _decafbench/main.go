// Command decafbench is DECAF's standing benchmark. It drives the engine
// through its public API on one of four workloads (interactive,
// sustained, tcp, failover), checks that the replicas end in the right
// state, and prints every end-to-end metric, or with -trace 1 every
// per-layer metric from a traced run, ending with one JSON line. See
// README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// extraSetups is how many additional set-ups an untraced run times, so
// setup_s is a median over several.
const extraSetups = 10

func main() {
	name := flag.String("workload", "", "interactive, sustained, tcp or failover")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for WAL files and span dumps")
	flag.Parse()
	w := workloads[*name]
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind it (0: a single reading)
	note  string // base of a ratio, percentile of a tail
}

// result is what one invocation reports.
type result struct {
	w          *workload
	seed       int64
	traced     bool
	metrics    []metric
	gated      []string // names that go into the JSON line
	attempted  int
	failed     int
	violations []string
	extra      []string // further report lines
}

func (r *result) correct() bool { return len(r.violations) == 0 }

func run(w *workload, seed int64, seconds float64, traced bool, out string) (*result, error) {
	dir := filepath.Join(out, "wal", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(dir)
	res := &result{w: w, seed: seed, traced: traced}
	if !traced {
		var setups []float64
		for i := 0; i < extraSetups; i++ {
			s, err := timeSetup(w, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		m, err := runPass(w, seed, seconds, nil, dir)
		if err != nil {
			return nil, err
		}
		m.setups = append(setups, m.setups...)
		res.metrics = endToEnd(m)
		res.gated = gatedEndToEnd
		res.fill(m)
		return res, nil
	}
	// The traced run splits its window: an untraced pass first, whose
	// end-to-end medians are the base of the tracing overhead, then the
	// traced pass the per-layer metrics come from.
	base, err := runPass(w, seed, seconds/2, nil, dir)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := runPass(w, seed, seconds/2, tr, dir)
	if err != nil {
		return nil, err
	}
	tr.link()
	res.metrics = perLayer(m, tr)
	res.gated = gatedPerLayer
	res.fill(m)
	res.violations = append(res.violations, base.violations...)
	res.extra = append(res.extra, overheadLines(endToEnd(base), endToEnd(m))...)
	res.extra = append(res.extra, "per-layer self time (traced pass):")
	res.extra = append(res.extra, selfTimeLines(tr.selfTimes())...)
	dump := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return nil, err
	}
	if err := tr.dump(dump); err != nil {
		return nil, fmt.Errorf("write span dump: %w", err)
	}
	res.extra = append(res.extra, fmt.Sprintf("spans: %d written to %s", len(tr.spans), dump))
	return res, nil
}

// timeSetup sets the workload up once, with no load, and tears it down
// again.
func timeSetup(w *workload, dir string) (float64, error) {
	start := nowNanos()
	c, err := newCluster(w, nil, dir, 0)
	if err != nil {
		return 0, fmt.Errorf("set up %s: %w", w.name, err)
	}
	d := float64(nowNanos()-start) / 1e9
	c.close()
	return d, nil
}

func (r *result) fill(m *measurement) {
	r.attempted = len(m.reqs)
	for _, q := range m.reqs {
		if !q.committed {
			r.failed++
		}
	}
	r.violations = append(r.violations, m.violations...)
}

// overheadLines compares each end-to-end metric of the traced pass with
// the untraced pass of the same run.
func overheadLines(base, traced []metric) []string {
	lines := []string{"tracing overhead (traced vs untraced pass of this run):"}
	idx := map[string]float64{}
	for _, m := range base {
		idx[m.name] = m.value
	}
	for _, m := range traced {
		b, ok := idx[m.name]
		if !ok || b == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-28s untraced %12.4f traced %12.4f %-6s %+7.1f%%", m.name, b, m.value, m.unit, (m.value/b-1)*100))
	}
	return lines
}

func (r *result) print(f *os.File) error {
	mode := "end-to-end"
	if r.traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(f, "decafbench workload=%s seed=%d %s\n", r.w.name, r.seed, mode)
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-30s %14.4f %-7s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Fprintln(f, line)
	}
	for _, l := range r.extra {
		fmt.Fprintln(f, l)
	}
	fmt.Fprintf(f, "attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, v := range r.violations {
		fmt.Fprintln(f, "VIOLATION:", v)
	}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jv{}
	var missing []string
	for _, n := range r.gated {
		m, ok := byName[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = jv{m.value, m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
