package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"seal/internal/core"
	"seal/internal/exp"
	"seal/internal/gpu"
	"seal/internal/models"
	"seal/internal/prng"
	"seal/internal/trace"
)

// Output gates the simulator passes are checked against; the benchmark
// reads them, it does not set them.
const (
	goldenPath = "testdata/fig7_golden.json" // exact Figure-7 headline metrics
	statTol    = 0.02                        // sealsim -stat-tol default: stat-mode VGG-16 cells vs exact
)

// simReport is the accounting of the simulator passes: host seconds per
// grid, as measured.
type simReport struct {
	ExactS    []float64 `json:"measured_exact_s"`
	StatS     []float64 `json:"measured_stat_s"`
	StatErr   float64   `json:"stat_err"`
	StatErrAt string    `json:"stat_err_at"`

	exactCfg, statCfg exp.TimingConfig
	exact, stat       *exp.NetworkResults // first grid of each mode
}

func newSimReport() *simReport {
	rep := &simReport{exactCfg: exp.QuickTimingConfig()}
	rep.statCfg = rep.exactCfg
	rep.statCfg.FastSim = true
	return rep
}

// simPass runs the Figure-7/8 grid (3 networks x 5 schemes) once with
// the exact event-driven scheduler and once in statistical mode. Every
// grid must equal the first grid of its mode.
func (r *run) simPass(round int) error {
	rep := r.sim
	for _, mode := range []struct {
		name  string
		cfg   exp.TimingConfig
		times *[]float64
		first **exp.NetworkResults
	}{{"sim.exact", rep.exactCfg, &rep.ExactS, &rep.exact}, {"sim.stat", rep.statCfg, &rep.StatS, &rep.stat}} {
		sp := r.tr.begin(mode.name, 0, int64(round))
		t0 := time.Now()
		nr, err := exp.RunNetworks(mode.cfg)
		*mode.times = append(*mode.times, time.Since(t0).Seconds())
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("simulator grid: %w", err)
		}
		r.ref.measure()
		r.attempted++
		if *mode.first == nil {
			*mode.first = nr
		} else if !reflect.DeepEqual(*mode.first, nr) {
			r.failed++
			r.fail("%s grid of round %d differs from the first one", mode.name, round)
		}
	}
	return nil
}

// finishSim turns the passes into metrics, with the run's factor f to
// the reference speed, and checks the grids.
func (r *run) finishSim(f float64) {
	rep := r.sim
	r.values["sim.exact_s"], r.measured["sim.exact_s"] = f*median(rep.ExactS), median(rep.ExactS)
	r.values["sim.stat_s"], r.measured["sim.stat_s"] = f*median(rep.StatS), median(rep.StatS)
	r.checkSim(rep.exact, rep.stat, rep)
	r.values["sim.stat_err"] = rep.StatErr
	fmt.Printf("simulator: exact grid median %.3f s as measured (%s); stat grid median %.3f s (%s); "+
		"max stat error %.4f at %s\n", median(rep.ExactS), fmtList(rep.ExactS),
		median(rep.StatS), fmtList(rep.StatS), rep.StatErr, rep.StatErrAt)
}

// checkSim compares the exact grid with the golden file, and the stat
// grid with the exact one: the two gated VGG-16 cells within statTol,
// and the largest error over all normalized Figure-7/8 cells reported.
func (r *run) checkSim(exact, stat *exp.NetworkResults, rep *simReport) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		r.fail("golden file: %v", err)
		return
	}
	var golden struct {
		DirectVGG      float64 `json:"directVGG"`
		SealOverDirect float64 `json:"sealOverDirect"`
		Tolerance      float64 `json:"tolerance"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		r.fail("golden file %s: %v", goldenPath, err)
		return
	}
	directE, sealE := headline(exact)
	if math.Abs(directE-golden.DirectVGG) > golden.Tolerance || math.Abs(sealE-golden.SealOverDirect) > golden.Tolerance {
		r.fail("exact grid drifted from %s: directVGG %.17g (want %.17g), sealOverDirect %.17g (want %.17g)",
			goldenPath, directE, golden.DirectVGG, sealE, golden.SealOverDirect)
	}
	directS, sealS := headline(stat)
	if e1, e2 := relErr(directS, directE), relErr(sealS, sealE); e1 > statTol || e2 > statTol {
		r.fail("stat grid outside %.2g of exact: err(directVGG) %.4f, err(sealOverDirect) %.4f", statTol, e1, e2)
	}
	for _, fig := range []struct {
		name string
		e, s *exp.Table
	}{{"Figure 7", exact.Figure7(), stat.Figure7()}, {"Figure 8", exact.Figure8(), stat.Figure8()}} {
		for ri, row := range fig.e.Rows {
			for ci, v := range row.Values {
				if e := relErr(fig.s.Rows[ri].Values[ci], v); e > rep.StatErr || rep.StatErrAt == "" {
					rep.StatErr = e
					rep.StatErrAt = fmt.Sprintf("%s %s %s", fig.name, fig.e.Columns[ci], row.Label)
				}
			}
		}
	}
}

// headline returns the two gated Figure-7 numbers: Direct's normalized
// IPC on VGG-16 and SEAL-D's over Direct's.
func headline(nr *exp.NetworkResults) (directVGG, sealOverDirect float64) {
	t := nr.Figure7()
	d, _ := t.Cell("Direct", "VGG-16")
	s, _ := t.Cell("SEAL-D", "VGG-16")
	return d, s / d
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// scheme mirrors one Figure-7/8 bar group of exp: an encryption mode,
// applied to everything or to SEAL's protected regions only.
type scheme struct {
	name string
	mode gpu.EncMode
	seal bool
}

var schemes = []scheme{
	{"Baseline", gpu.ModeNone, false},
	{"Direct", gpu.ModeDirect, false},
	{"Counter", gpu.ModeCounter, false},
	{"SEAL-D", gpu.ModeDirect, true},
	{"SEAL-C", gpu.ModeCounter, true},
}

// simConfig is the GTX-480 configuration exp.RunNetworks builds for a
// cell: the counter cache split over the channels, stat mode if asked.
func simConfig(tc exp.TimingConfig, sc scheme, fn gpu.EncFn) gpu.Config {
	cfg := gpu.ConfigGTX480()
	if tc.CounterKB > 0 {
		line := cfg.Counter.DataLineBytes * cfg.Counter.CacheWays
		per := max(tc.CounterKB*1024/cfg.Channels, line)
		cfg.Counter.CacheSizeBytes = per / line * line
	}
	if tc.FastSim {
		cfg.Stat = *tc.Stat
		cfg.Stat.Enable = true
	}
	if !sc.seal {
		fn = nil
	}
	return cfg.WithMode(sc.mode, fn)
}

// simCells re-runs the grid once per mode, one cell at a time, timing
// trace generation and simulation separately. Every cell's simulated
// cycles must equal what exp.RunNetworks computed for it.
func (r *run) simCells() error {
	rep := r.sim
	type sums struct {
		cycles, stall, dram, engine  float64
		ctrHit, ctrAll, l2Hit, l2All uint64
	}
	per := make(map[string]*sums)
	var genS, exactS, statS, exactFrac float64
	var memReqs int64
	cells := 0
	for pass, tc := range []exp.TimingConfig{rep.exactCfg, rep.statCfg} {
		nr := rep.exact
		if tc.FastSim {
			nr = rep.stat
		}
		psp := r.tr.begin("sim.cells", 0, int64(pass))
		for ai, base := range models.Archs() {
			for si, sc := range schemes {
				csp := r.tr.begin("sim.cell", psp, int64(pass*100+ai*10+si))
				gsp := r.tr.begin("trace.gen", csp, 0)
				t0 := time.Now()
				layout, traces, err := buildNetwork(tc, base)
				gen := time.Since(t0).Seconds()
				r.tr.end(gsp)
				if err != nil {
					return err
				}
				rsp := r.tr.begin("gpu.run", csp, 0)
				t1 := time.Now()
				sim, err := gpu.New(simConfig(tc, sc, layout.Protected))
				if err != nil {
					return err
				}
				_, total, err := trace.RunNetwork(sim, traces)
				run := time.Since(t1).Seconds()
				r.tr.end(rsp)
				r.tr.end(csp)
				if err != nil {
					return err
				}
				if total.Cycles != nr.Cycles[si][ai] || total.IPC != nr.IPC[si][ai] {
					r.fail("cell %s/%s (stat=%v): %v cycles, exp.RunNetworks has %v", base.Name, sc.name, tc.FastSim,
						total.Cycles, nr.Cycles[si][ai])
				}
				if tc.FastSim {
					statS += run
					exactFrac += total.ExactFrac
					cells++
					continue
				}
				genS += gen
				exactS += run
				memReqs += total.MemRequests
				s := per[sc.name]
				if s == nil {
					s = &sums{}
					per[sc.name] = s
				}
				s.cycles += total.Cycles
				s.stall += float64(total.StallCycles)
				s.dram += float64(total.DRAMBytes()) / (1 << 20)
				s.engine += float64(total.EngineBytes()) / (1 << 20)
				for _, p := range total.Parts {
					s.ctrHit += p.Counter.Hits
					s.ctrAll += p.Counter.Hits + p.Counter.Misses
					s.l2Hit += p.L2.Hits
					s.l2All += p.L2.Hits + p.L2.Misses
				}
			}
		}
		r.tr.end(psp)
	}
	r.values["trace.gen_s"] = genS
	r.values["gpu.run_s.exact"] = exactS
	r.values["gpu.run_s.stat"] = statS
	r.values["gpu.ns_per_req"] = exactS * 1e9 / float64(memReqs)
	r.values["gpu.exact_frac"] = exactFrac / float64(cells)
	for _, sc := range schemes {
		s := per[sc.name]
		r.values["gpu.cycles."+sc.name] = s.cycles
		r.values["gpu.stall_cycles."+sc.name] = s.stall
		r.values["dram.mb."+sc.name] = s.dram
		r.values["engine.mb."+sc.name] = s.engine
		r.values["engine.counter_hit."+sc.name] = ratioOf(s.ctrHit, s.ctrAll)
		r.values["cache.l2_hit."+sc.name] = ratioOf(s.l2Hit, s.l2All)
	}
	return nil
}

func ratioOf(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// buildNetwork plans, lays out and traces one architecture as exp does:
// synthetic row norms from the config seed drive the plan.
func buildNetwork(tc exp.TimingConfig, arch *models.Arch) (*core.Layout, []trace.LayerTrace, error) {
	if tc.Scale != 1 {
		arch = arch.Scale(tc.Scale, 0)
	}
	rng := prng.New(tc.Seed)
	var specs []models.LayerSpec
	var norms [][]float64
	for _, s := range arch.Specs {
		if s.Kind != models.KindConv && s.Kind != models.KindFC {
			continue
		}
		specs = append(specs, s)
		n := make([]float64, s.InC)
		for i := range n {
			n[i] = rng.Float64()
		}
		norms = append(norms, n)
	}
	opts := core.DefaultOptions()
	opts.Ratio = tc.Ratio
	plan, err := core.NewPlanFromNorms(arch, specs, norms, opts)
	if err != nil {
		return nil, nil, err
	}
	layout, err := core.NewLayout(plan, tc.Batch)
	if err != nil {
		return nil, nil, err
	}
	p := tc.Trace
	p.Batch = tc.Batch
	traces, err := trace.Network(p, plan, layout)
	return layout, traces, err
}
