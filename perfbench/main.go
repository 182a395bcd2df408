// Command perfbench is the repository's benchmark. It runs one named
// workload on the simulated cluster for a fixed host-time budget, checks
// every job's output against a sequential oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload wc-wide --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads and the metric glossary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

const mib = 1 << 20

// minSetups is how many set-ups a run times at least: a run of the slow
// workloads fits only five or six repetitions, and setup_s is a median of
// timings short enough for host noise to matter.
const minSetups = 15

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: wc-wide | wc-deep-failover | pagerank-observed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "host seconds to spend measuring")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build/out", "directory for plane outputs and span files")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload wc-wide|wc-deep-failover|pagerank-observed, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload %s: %s\n", w.name, w.describe(*seed))

	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, *outDir)
	} else {
		res = measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, m := range res.metrics {
		fmt.Printf("metric %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", res.failed, res.attempted)
		return 1
	}
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome: the metrics listed in BENCHMARK.json for the
// run's mode, and the operations attempted and failed.
type result struct {
	attempted, failed int
	metrics           []metric
}

func (r result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	return string(b), err
}

// repStats is what one repetition (set-up, timed run, oracle) measured.
type repStats struct {
	setupS, wallS, allocMB float64
	virtS, recoveryS       float64
	err                    error

	// Traced repetitions only.
	cpuProfile []byte
	rt         runtimeDelta
}

// rep runs one repetition on a fresh cluster. The timed section runs from
// job submission until every enabled plane's output is written; set-up and
// the oracle are outside it. A traced repetition attaches a metrics
// registry, records spans, and profiles the timed section.
func (w *workload) rep(seed int64, outDir string, sp *spans) (*instance, repStats) {
	prefix := filepath.Join(outDir, w.name)
	var st repStats
	traced := sp != nil
	runtime.GC()
	endRep := sp.begin("rep")
	defer endRep()

	start := time.Now()
	in, err := w.setup(seed, prefix, traced, sp)
	st.setupS = time.Since(start).Seconds()
	if err != nil {
		st.err = err
		return nil, st
	}
	defer in.close()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			st.err = err
			return nil, st
		}
	}
	before := readRuntime()
	start = time.Now()
	st.err = in.run()
	st.wallS = time.Since(start).Seconds()
	after := readRuntime()
	if traced {
		pprof.StopCPUProfile()
		st.cpuProfile = prof.Bytes()
	}
	st.rt = after.sub(before)
	st.allocMB = st.rt.allocBytes / mib

	if st.err == nil {
		st.err = in.verify()
	}
	if results := in.h.Results(); len(results) > 0 {
		st.virtS = virtS(results)
		st.recoveryS = recoveryVirtS(results)
	}
	return in, st
}

// measure repeats the workload until the host-time budget is spent and
// reports the median of each per-repetition metric.
func measure(w *workload, seed int64, budget time.Duration, outDir string) result {
	start := time.Now()
	var reps []repStats
	var rssMB float64
	for {
		_, st := w.rep(seed, outDir, nil)
		reps = append(reps, st)
		if len(reps) == 1 {
			// The peak of a fresh process that has run the workload once, as a
			// one-job CLI run would. Later repetitions run on a warm heap whose
			// reuse of freed memory varies from run to run.
			rssMB = peakRSSMB()
		}
		status := "ok"
		if st.err != nil {
			status = "FAILED: " + st.err.Error()
		}
		fmt.Printf("rep %d: setup_s=%.4f wall_s=%.4f alloc_mb=%.1f virt_s=%.6f recovery_virt_s=%.6f %s\n",
			len(reps), st.setupS, st.wallS, st.allocMB, st.virtS, st.recoveryS, status)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(reps)) > budget {
			break
		}
	}
	setups := make([]float64, 0, minSetups)
	var res result
	var walls, allocs, virts, recs []float64
	for _, st := range reps {
		res.attempted++
		if st.err != nil {
			res.failed++
		}
		setups = append(setups, st.setupS)
		walls = append(walls, st.wallS)
		allocs = append(allocs, st.allocMB)
		virts = append(virts, st.virtS)
		recs = append(recs, st.recoveryS)
	}
	for len(setups) < minSetups {
		runtime.GC()
		t := time.Now()
		in, err := w.setup(seed, filepath.Join(outDir, w.name+".setup-only"), false, nil)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			res.attempted++
			res.failed++
			break
		}
		in.close()
	}
	errRate := float64(res.failed) / float64(res.attempted)
	res.metrics = []metric{
		{"wall_s", median(walls), "s"},
		{"setup_s", median(setups), "s"},
		{"virt_s", median(virts), "s"},
		{"peak_rss_mb", rssMB, "MB"},
		{"alloc_mb", median(allocs), "MB"},
	}
	// recovery_virt_s is 0 on failure-free workloads and error_rate is 0 on
	// every passing run, so they are printed here and reported as
	// per-layer metrics, never as bounded end-to-end ones.
	fmt.Printf("metric %-32s %14.6g %s\n", "recovery_virt_s", median(recs), "s")
	fmt.Printf("metric %-32s %14.6g %s\n", "error_rate", errRate, "ratio")
	return res
}

// tracedRun makes two untraced repetitions, the second of which is the
// overhead baseline (the first warms the heap up), then one traced
// repetition, then the layer micro-drivers, and reports the per-layer
// metrics.
func tracedRun(w *workload, seed int64, outDir string) (result, error) {
	_, warm := w.rep(seed, outDir, nil)
	_, base := w.rep(seed, outDir, nil)
	sp := newSpans()
	in, st := w.rep(seed, outDir, sp)
	var res result
	for _, s := range []repStats{warm, base, st} {
		res.attempted++
		if s.err != nil {
			res.failed++
			fmt.Println("FAILED:", s.err)
		}
	}
	if in == nil {
		return res, st.err
	}
	ms, err := layerMetrics(in, st, base)
	if err != nil {
		return res, err
	}
	res.metrics = ms
	res.metrics = append(res.metrics,
		metric{"recovery_virt_s", st.recoveryS, "s"},
		metric{"error_rate", float64(res.failed) / float64(res.attempted), "ratio"},
	)
	self := sp.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("span %-28s self %.4f s\n", n, self[n])
	}
	_, err = writeFile(filepath.Join(outDir, fmt.Sprintf("%s.seed%d.spans.json", w.name, seed)), sp.writeJSON)
	return res, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is ru_maxrss of this process, which runs one workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeDelta holds Go runtime counters read through runtime/metrics.
type runtimeDelta struct {
	allocBytes, mallocs, gcCycles, gcCPU, totalCPU, idleCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{v(0), v(1), v(2), v(3), v(4), v(5)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU}
}
