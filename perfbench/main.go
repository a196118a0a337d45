// Command perfbench is the repository's benchmark. It drives the
// sealed-weight serving gateway with an open-loop Poisson load and runs
// the Figure-7/8 simulator grid, checks every output, and prints each
// end-to-end metric (or, with -trace 1, each per-layer metric) by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload serve-vgg16 --seed 1 --seconds 36 --trace 0
//
// The program under test is reached only through its public functions;
// spans are recorded here, around those calls (see span.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"seal"
	"seal/internal/gpu"
	"seal/internal/serve"
)

// tenantSpec is one model the gateway hosts during a workload.
type tenantSpec struct {
	tenant, model string
	spec          serve.ModelSpec
}

// phaseSpec is one open-loop load phase at a fixed offered rate.
type phaseSpec struct {
	name      string
	qps       float64       // absolute offered rate, never derived from the code under test
	share     float64       // share of --seconds this phase lasts, over all rounds
	swapEvery time.Duration // hot-swap the last tenant's model this often (0: never)
	jsonShare float64       // share of requests sent as JSON instead of raw f32
}

// workload is one traffic mix for the gateway.
type workload struct {
	name, why string
	tenants   []tenantSpec
	limit     time.Duration // latency limit for goodput
	phases    []phaseSpec
}

func ratio(r float64) *float64 { return &r }

// workloads are the benchmark's traffic mixes. Every round also runs the
// same simulator pass (sim.go), so each workload reports every end-to-end
// metric. The phases of serve-vgg16 take 0.6 of --seconds, and the two
// simulator passes about the rest. serve-int8-mix sets up and drains
// faster, so its phases take 0.8 of --seconds in about the same wall time.
var workloads = []workload{
	{
		name: "serve-vgg16",
		why: "Float VGG-16x0.25 gateway, weights beyond the CPU caches: decrypt-bound at batch 1 (light), " +
			"GEMM-bound at batch 8 (overload); plus the Figure-7/8 simulator grid",
		tenants: []tenantSpec{
			{"bench", "vgg16", serve.ModelSpec{Arch: "vgg16", Scale: 0.25, Ratio: ratio(0.5), Seed: 1}},
		},
		limit: 2 * time.Second,
		phases: []phaseSpec{
			{name: "light", qps: 12, share: 0.3, jsonShare: 0.125},
			{name: "swap", qps: 12, share: 0.08, swapEvery: 500 * time.Millisecond, jsonShare: 0.125},
			{name: "overload", qps: 350, share: 0.22, jsonShare: 0.125},
		},
	},
	{
		name: "serve-int8-mix",
		why: "Two int8 VGG-16x0.0625 tenants, JSON and raw bodies, hot-swaps under load: " +
			"gateway work carries the CPU and float GEMM is bypassed; plus the Figure-7/8 simulator grid",
		tenants: []tenantSpec{
			{"a", "vgg16q", serve.ModelSpec{Arch: "vgg16", Scale: 0.0625, Ratio: ratio(0.5), Seed: 1, Int8: true}},
			{"b", "vgg16q", serve.ModelSpec{Arch: "vgg16", Scale: 0.0625, Ratio: ratio(0.5), Seed: 2, Int8: true}},
		},
		limit: time.Second,
		phases: []phaseSpec{
			// Swaps get their own phase, as in serve-vgg16, so that light
			// latency does not include them; a swap every 0.25 s gives
			// swap_s about 22 samples a run.
			{name: "light", qps: 150, share: 0.27, jsonShare: 0.5},
			{name: "swap", qps: 150, share: 0.15, swapEvery: 250 * time.Millisecond, jsonShare: 0.5},
			// Overload stays far above capacity whether the machine runs
			// fast or slow. With half the bodies JSON, capacity is 550-750
			// QPS: 750 sat at the knee (p90 75-400 ms run to run), and at
			// 1000 the JSON decode done before admission made goodput
			// swing between 520 and 810 QPS.
			{name: "overload", qps: 1500, share: 0.38, jsonShare: 0.25},
		},
	},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"light.p50_ms", "ms"},
	{"overload.goodput_qps", "req/s"},
	{"overload.p90_ms", "ms"},
	{"swap_s", "s"},
	{"sim.exact_s", "s"},
	{"sim.stat_s", "s"},
	{"sim.stat_err", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"light.serve.p90_ms", "ms"},
		{"light.serve.p50_ms.raw", "ms"},
		{"light.serve.p50_ms.json", "ms"},
		{"overload.serve.avg_batch", "count"},
		{"overload.serve.engine_busy", "ratio"},
		{"overload.serve.queue_len", "count"},
		{"overload.serve.refused_share", "ratio"},
		{"serve.register_s", "s"},
		{"gen.late_ms", "ms"},
		{"seal.build_s", "s"},
		{"seal.plan_s", "s"},
		{"seal.layout_s", "s"},
		{"seal.image_s", "s"},
		{"seal.engine_s", "s"},
		{"secure.fwd_ms.b1", "ms"},
		{"secure.fwd_ms.b8", "ms"},
		{"secure.decrypt_mb", "MiB"},
		{"secure.bypass_mb", "MiB"},
		{"secure.panels", "count"},
		{"nn.fwd_ms.b1", "ms"},
		{"nn.fwd_ms.b8", "ms"},
		{"tensor.gflops.b8", "GFLOP/s"},
		{"core.decrypt_ms", "ms"},
		{"core.decrypt_gbps", "GB/s"},
		{"trace.gen_s", "s"},
		{"gpu.run_s.exact", "s"},
		{"gpu.run_s.stat", "s"},
		{"gpu.ns_per_req", "ns"},
		{"gpu.exact_frac", "ratio"},
	}
	// Engine traffic exists only under encryption, counter hits only in
	// counter mode; the metrics that would always read 0 are left out.
	for _, sc := range schemes {
		s := sc.name
		defs = append(defs, metricDef{"gpu.cycles." + s, "cycles"}, metricDef{"gpu.stall_cycles." + s, "cycles"},
			metricDef{"dram.mb." + s, "MiB"})
		if sc.mode != gpu.ModeNone {
			defs = append(defs, metricDef{"engine.mb." + s, "MiB"})
		}
		if sc.mode == gpu.ModeCounter {
			defs = append(defs, metricDef{"engine.counter_hit." + s, "ratio"})
		}
		defs = append(defs, metricDef{"cache.l2_hit." + s, "ratio"})
	}
	return defs
}()

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run collects one benchmark run's measurements and checks.
type run struct {
	w         *workload
	seed      uint64
	seconds   float64
	tr        *tracer
	ref       *refTimer          // the machine's speed (calib.go)
	values    map[string]float64 // every metric, e2e and per-layer; timings at the reference speed
	measured  map[string]float64 // the timed end-to-end metrics as measured
	failures  []string           // failed output checks
	attempted int64
	failed    int64
	phases    []phaseReport
	sim       *simReport
}

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed: draws the inputs and the arrival schedule")
		seconds = flag.Float64("seconds", 36, "measured seconds per run: the load phases and two simulator passes")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	// A wedged gateway must not hold the run past its time limit. At the
	// default 36 s, a run takes about 50 s untraced and 60 s traced, so
	// the limit grows with --seconds: 152 s at 36.
	limit := time.Duration((2**seconds + 80) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := &run{w: w, seed: *seed, seconds: *seconds, tr: newTracer(*trace == 1), values: map[string]float64{},
		measured: map[string]float64{}}
	env := environment(*seed)
	fmt.Println("environment:")
	for _, kv := range env {
		fmt.Printf("  %-12s %s\n", kv[0], kv[1])
	}
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	r.ref = newRefTimer()

	g, err := r.startGateway()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.sim = newSimReport()
	for round := 0; round < rounds && err == nil; round++ {
		for pi := range w.phases {
			r.phase(g, round, pi)
		}
		err = r.simPass(round)
	}
	g.srv.Close()
	if err == nil && r.tr.on {
		if err = r.simCells(); err == nil {
			err = r.probe()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	f := r.ref.factor()
	fmt.Printf("reference work: %d calibrations, median %.2f ms, min %.2f ms, max %.2f ms; "+
		"at %.2f ms (the reference speed) timings are scaled by %.4f\n", len(r.ref.All), 1e3*median(r.ref.All),
		1e3*slices.Min(r.ref.All), 1e3*slices.Max(r.ref.All), 1e3*refNominal, f)
	r.finishGateway(g, f)
	r.finishSim(f)
	r.values["mem_mb"] = peakRSSMiB()

	defs := endToEnd
	if r.tr.on {
		defs = perLayer
	}
	line := resultLine{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Printf("%s (%s run, %.1f s wall):\n", w.name, map[bool]string{false: "untraced", true: "traced"}[r.tr.on],
		time.Since(start).Seconds())
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if m, ok := r.measured[d.name]; ok && !r.tr.on {
			fmt.Printf("  %-32s %14.6g %-6s (as measured %.6g)\n", d.name, v, d.unit, m)
		} else {
			fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if err := r.writeDetails(outDir, env, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// environment describes the machine and build, so numbers from
// different boxes can be told apart.
func environment(seed uint64) [][2]string {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	workers := os.Getenv("SEAL_WORKERS")
	if workers == "" {
		workers = "(unset)"
	}
	return [][2]string{
		{"go", runtime.Version()},
		{"os/arch", runtime.GOOS + "/" + runtime.GOARCH},
		{"GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"SEAL_WORKERS", workers},
		{"cpu", cpuModel()},
		{"commit", commit},
		{"seed", fmt.Sprint(seed)},
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo (Linux only).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeDetails stores the run's full record (environment, per-phase
// accounting, every metric, failed checks, self times) and, for a traced
// run, the spans and the tracing overhead against the last untraced run
// of the same workload and seed in this directory.
func (r *run) writeDetails(dir string, env [][2]string, line resultLine) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", r.w.name, r.seed)
	rec := map[string]any{
		"workload": r.w.name, "why": r.w.why, "seed": r.seed, "seconds": r.seconds,
		"environment": env, "phases": r.phases, "sim": r.sim, "reference": r.ref,
		"values": r.values, "measured": r.measured, "failures": r.failures, "result": line,
	}
	if r.tr.on {
		selfs := r.tr.selfTimes()
		rec["self_times"] = selfs
		fmt.Println("self time per layer (traced spans):")
		for _, s := range selfs {
			fmt.Printf("  %-24s n=%-6d total %10.1f ms  self %10.1f ms\n", s.Name, s.Count, s.TotMS, s.Self)
		}
		if over := r.tracingOverhead(filepath.Join(dir, base+"-trace0.json")); over != nil {
			rec["tracing_overhead"] = over
		}
		if err := r.tr.write(filepath.Join(dir, base+"-spans.jsonl")); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.tr.on {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-trace%d.json", base, trace)), data, 0o644)
}

// tracingOverhead compares this traced run's end-to-end values with the
// untraced run recorded at path (traced minus untraced), if there is one.
func (r *run) tracingOverhead(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Println("tracing overhead: no untraced run of this workload and seed recorded yet")
		return nil
	}
	var untraced struct {
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &untraced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", path, err)
		return nil
	}
	over := map[string]float64{}
	names := make([]string, 0, len(endToEnd))
	for _, d := range endToEnd {
		traced, ok1 := r.values[d.name]
		base, ok2 := untraced.Values[d.name]
		if ok1 && ok2 {
			over[d.name] = traced - base
			names = append(names, d.name)
		}
	}
	sort.Strings(names)
	fmt.Println("tracing overhead (traced minus untraced):")
	for _, n := range names {
		fmt.Printf("  %-32s %+12.4g\n", n, over[n])
	}
	return over
}

// outDir holds each run's detail and span files, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// masterKey is the gateway master key: a fixed development key, since the
// benchmark measures speed, not key handling.
var masterKey = seal.KeyFromString("perfbench")
