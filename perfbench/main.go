// Command perfbench is the repository benchmark. One invocation runs
// one named workload against the library from a single process, checks
// the outputs, and prints one JSON object as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures a user of the
// library sees; with --trace 1 the run records spans around every call
// it makes into a layer and prints the per-layer figures instead. See
// README.md for the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// procs is the GOMAXPROCS every workload runs at.
const procs = 2

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	outDir   string
}

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the metrics a --trace 0 run prints, in BENCHMARK.json
// order. Every workload reports every one of them; README.md says what
// each means per workload.
var endToEnd = []metricSpec{
	{"goodput_ops_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"elements_p50_ms", "ms", "lower"},
	{"insert_mkeys_s", "Mkeys/s", "higher"},
	{"find_mkeys_s", "Mkeys/s", "higher"},
	{"delete_mkeys_s", "Mkeys/s", "higher"},
	{"elements_mcells_s", "Mcells/s", "higher"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer lists the metrics a --trace 1 run prints. A layer a workload
// does not exercise reports 0.
var perLayer = []metricSpec{
	{"client.do_us", "us", "lower"},
	{"client.do_busy_frac", "frac", "lower"},
	{"wire.read_calls_per_op", "count", "lower"},
	{"wire.write_calls_per_op", "count", "lower"},
	{"wire.write_bytes_per_op", "bytes", "lower"},
	{"wire.write_busy_frac", "frac", "lower"},
	{"wire.p50_share_ms", "ms", "lower"},
	{"epoch.ops_per_epoch", "count", "higher"},
	{"epoch.epochs_per_s", "1/s", "lower"},
	{"epoch.split_frac", "frac", "lower"},
	{"epoch.queue_depth_mean", "count", "lower"},
	{"epoch.max_queue", "count", "lower"},
	{"epoch.shed_deadline_frac", "frac", "lower"},
	{"epoch.shed_overload_frac", "frac", "lower"},
	{"epoch.submit_us", "us", "lower"},
	{"epoch.inproc_p50_ms", "ms", "lower"},
	{"epoch.inproc_goodput_ops_s", "ops/s", "higher"},
	{"core.epoch_insert_us", "us", "lower"},
	{"core.epoch_delete_us", "us", "lower"},
	{"core.epoch_read_us", "us", "lower"},
	{"core.epoch_elements_us", "us", "lower"},
	{"core.kernel_busy_frac", "frac", "lower"},
	{"core.insert_probe_pm", "pm", "lower"},
	{"core.find_probe_pm", "pm", "lower"},
	{"core.delete_probe_pm", "pm", "lower"},
	{"core.find_hit_pm", "pm", "higher"},
	{"core.shard_imbalance_pm", "pm", "lower"},
	{"parallel.items_per_dispatch", "count", "higher"},
	{"parallel.blocks_per_dispatch", "count", "lower"},
	{"parallel.dispatches_per_s", "1/s", "lower"},
	{"grow.doublings", "count", "lower"},
	{"grow.final_cells", "count", "lower"},
	{"grow.wrong_results", "count", "lower"},
	{"wrong_results_frac", "frac", "lower"},
	{"failed_frac", "frac", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.alloc_bytes_per_op", "bytes", "lower"},
	{"trace.overhead_goodput_pct", "%", "lower"},
	{"trace.overhead_p50_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.dropped_spans", "count", "lower"},
}

// report is what a workload hands back: its check outcome, op counts
// and every metric of the requested set by name.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	problems  []string // failed output checks, one line each
}

func newReport() *report {
	return &report{correct: true, values: map[string]float64{}}
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(o opts) (*report, error)

var workloads = map[string]workloadFunc{
	"serve-point": runServe,
	"bulk-phases": runBulk,
	"grow-build":  runGrow,
}

func main() {
	var (
		o       opts
		seconds float64
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-point, bulk-phases or grow-build")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0
	o.outDir = os.Getenv("PERFBENCH_OUT")
	if o.outDir == "" {
		o.outDir = filepath.Join(".bench_build", "perfbench")
	}
	run, ok := workloads[o.workload]
	if !ok || o.window <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", o.workload)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(procs)

	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]metricOut{}}
	for _, m := range specs {
		v, ok := rep.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing or not finite\n", o.workload, m.name)
			os.Exit(1)
		}
		out.Metrics[m.name] = metricOut{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(1)
	}
}

// rng is splitmix64: every input stream is a pure function of the seed
// and a stream number.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// below returns a value in [0, n) (Lemire's multiply-shift).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// randomSeq returns n keys uniform in [1, max], PBBS randomSeq-int
// style (with max = n, about 63% of the keys are distinct).
func randomSeq(seed, stream uint64, n int, max uint64) []uint64 {
	r := newRNG(seed, stream)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = 1 + r.below(max)
	}
	return keys
}

// bitset is a dense set over [0, n).
type bitset []uint64

func newBitset(n int) bitset       { return make(bitset, (n+63)/64) }
func (b bitset) has(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) add(i uint64)      { b[i/64] |= 1 << (i % 64) }

// distinctCount returns the number of distinct keys and their set.
func distinctCount(keys []uint64, max uint64) (int, bitset) {
	set := newBitset(int(max) + 1)
	n := 0
	for _, k := range keys {
		if !set.has(k) {
			set.add(k)
			n++
		}
	}
	return n, set
}

// median returns the median of xs (0 for none), the mean of the two
// middle values when there is an even number. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// goStats is a runtime/metrics snapshot.
type goStats struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
}

var goSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readGoStats() goStats {
	metrics.Read(goSamples)
	return goStats{
		gcCPU:      goSamples[0].Value.Float64(),
		totalCPU:   goSamples[1].Value.Float64(),
		gcCycles:   goSamples[2].Value.Uint64(),
		allocBytes: goSamples[3].Value.Uint64(),
	}
}

// setGoMetrics stores the go.* per-layer metrics for the window
// [before, after] that completed ops operations.
func setGoMetrics(r *report, before, after goStats, ops float64) {
	cpu := after.totalCPU - before.totalCPU
	r.values["go.gc_cpu_frac"] = 0
	if cpu > 0 {
		r.values["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	r.values["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	r.values["go.alloc_bytes_per_op"] = 0
	if ops > 0 {
		r.values["go.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
	}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// zeroMetrics sets every per-layer metric to 0, so a workload only
// fills the layers it exercises.
func zeroMetrics(r *report) {
	for _, m := range perLayer {
		r.values[m.name] = 0
	}
}

// overheadPct returns how much worse traced is than untraced, in
// percent of untraced (negative when the traced part read better).
func overheadPct(untraced, traced float64, higherBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherBetter {
		return (untraced - traced) / untraced * 100
	}
	return (traced - untraced) / untraced * 100
}
