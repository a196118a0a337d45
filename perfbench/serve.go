package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"seal"
	"seal/internal/prng"
	"seal/internal/serve"
)

const (
	poolSize    = 64 // distinct input samples per model
	setupRounds = 5  // gateway set-ups per run; setup_s is their median
	// rounds interleaves the measurement: each round runs every phase for
	// its share of --seconds divided by rounds, then one simulator pass.
	// The machine's speed drifts over tens of seconds; spreading every
	// metric over the whole run keeps one slow stretch from moving only
	// the metric measured during it.
	rounds = 2
)

// hosted is one tenant's model as the load generator sees it: the
// request bodies of its input pool and the logits each must return.
type hosted struct {
	t     tenantSpec
	path  string
	raw   [][]byte    // raw little-endian f32 request bodies
	json  [][]byte    // {"input": [...]} request bodies
	want  [][]byte    // expected raw response bodies
	wantF [][]float32 // expected logits
}

// newHosted draws the model's input pool from rng and computes every
// expected logits row locally, with the plaintext forward of a bundle
// built from the same spec and key the gateway uses.
func newHosted(t tenantSpec, rng *prng.Source) (*hosted, error) {
	arch, err := seal.ArchByName(t.spec.Arch)
	if err != nil {
		return nil, err
	}
	if t.spec.Scale != 0 && t.spec.Scale != 1 {
		arch = arch.Scale(t.spec.Scale, 0)
	}
	opts := seal.DefaultOptions()
	opts.Ratio = *t.spec.Ratio
	popts := []seal.PrepareOption{seal.WithOptions(opts), seal.WithKey(masterKey.DeriveSubKey(t.tenant)),
		seal.WithBatch(serve.DefaultMaxBatch)}
	if t.spec.Int8 {
		popts = append(popts, seal.WithInt8())
	}
	prep, err := seal.Prepare(arch, t.spec.Seed, popts...)
	if err != nil {
		return nil, err
	}
	h := &hosted{t: t, path: "/v1/tenants/" + t.tenant + "/models/" + t.model + "/infer"}
	x := seal.NewTensor(1, arch.InC, arch.InH, arch.InW)
	for i := 0; i < poolSize; i++ {
		in := make([]float64, len(x.Data))
		for j := range x.Data {
			x.Data[j] = float32(rng.NormFloat64())
			in[j] = float64(x.Data[j])
		}
		js, err := json.Marshal(serve.InferRequest{Input: in})
		if err != nil {
			return nil, err
		}
		out := prep.Model().Forward(x, false)
		h.raw = append(h.raw, f32Bytes(x.Data))
		h.json = append(h.json, js)
		h.want = append(h.want, f32Bytes(out.Data))
		h.wantF = append(h.wantF, append([]float32(nil), out.Data...))
	}
	return h, nil
}

func f32Bytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // due time from the phase start
	model  int
	sample int
	json   bool
}

// outcome is what happened to one arrival.
type outcome struct {
	late   time.Duration // actual release minus due time
	lat    time.Duration // response minus due time
	status int
	ok     bool // 200 with bit-identical logits
	gen    int64
	json   bool
}

// phaseReport is the accounting of one load phase, summed over rounds.
// Latencies and rates are at the reference speed (calib.go), except the
// Meas ones, which are as measured.
type phaseReport struct {
	Name        string      `json:"name"`
	OfferedQPS  float64     `json:"offered_qps"`
	Seconds     float64     `json:"seconds"`
	Sent        int64       `json:"sent"`
	OK          int64       `json:"ok"`
	Refused     int64       `json:"refused_429"`
	Failed      int64       `json:"failed"`
	Good        int64       `json:"good"` // ok and within the latency limit
	GoodputQPS  float64     `json:"goodput_qps"`
	P50MS       float64     `json:"p50_ms"`
	P90MS       float64     `json:"p90_ms"`
	P99MS       float64     `json:"p99_ms"`
	P50RawMS    float64     `json:"p50_raw_ms"`
	P50JSONMS   float64     `json:"p50_json_ms"`
	MeasP50MS   float64     `json:"measured_p50_ms"`
	MeasP90MS   float64     `json:"measured_p90_ms"`
	MeasGoodput float64     `json:"measured_goodput_qps"`
	LateP50MS   float64     `json:"late_p50_ms"`
	LateP99MS   float64     `json:"late_p99_ms"`
	AvgBatch    float64     `json:"avg_batch"`
	EngineBusy  float64     `json:"engine_busy,omitempty"`      // sampled, traced runs only
	QueueLen    float64     `json:"queue_len,omitempty"`        // sampled, traced runs only
	SwapsS      []float64   `json:"measured_swaps_s,omitempty"` // hot-swap Register wall times, as measured
	SwapFailed  int64       `json:"swap_failed,omitempty"`      // hot-swap Register calls that returned an error
	SwapGenOK   int64       `json:"swap_gen_ok,omitempty"`      // ok responses from a generation swapped in during the phase
	Rounds      []roundStat `json:"rounds"`

	outs           []outcome
	batches, items int64   // Registry.Stats deltas
	busy, queue    float64 // sums over the 10 ms samples
	samples        float64
}

// roundStat is one round of a phase on its own, as measured, to show
// how the machine's speed drifted during the run.
type roundStat struct {
	P50MS      float64 `json:"measured_p50_ms"`
	P90MS      float64 `json:"measured_p90_ms"`
	GoodputQPS float64 `json:"measured_goodput_qps"`
}

// gateway is the serving half of a run: the gateway under test, the
// models it hosts, and each phase's accounting.
type gateway struct {
	srv       *serve.Server
	models    []*hosted
	phases    []*phaseReport
	registers []float64 // set-up Register wall times, as measured
	setups    []float64 // set-up wall times, as measured
}

// startGateway computes the expected logits, sets the gateway up
// several times (keeping the last one) and warms its request pools.
func (r *run) startGateway() (*gateway, error) {
	g := &gateway{}
	rng := prng.New(r.seed)
	for _, t := range r.w.tenants {
		m, err := newHosted(t, rng)
		if err != nil {
			return nil, fmt.Errorf("reference %s/%s: %w", t.tenant, t.model, err)
		}
		g.models = append(g.models, m)
	}
	for _, p := range r.w.phases {
		g.phases = append(g.phases, &phaseReport{Name: p.name, OfferedQPS: p.qps})
	}

	cfg := serve.Config{MasterKey: masterKey}
	for round := 0; round < setupRounds; round++ {
		if g.srv != nil {
			g.srv.Close()
		}
		sp := r.tr.begin("setup", 0, int64(round))
		t0 := time.Now()
		g.srv = serve.New(cfg)
		for _, m := range g.models {
			rsp := r.tr.begin("serve.register", sp, int64(round))
			t1 := time.Now()
			_, err := g.srv.Registry().Register(m.t.tenant, m.t.model, m.t.spec)
			g.registers = append(g.registers, time.Since(t1).Seconds())
			r.tr.end(rsp)
			if err != nil {
				g.srv.Close()
				return nil, fmt.Errorf("register %s/%s: %w", m.t.tenant, m.t.model, err)
			}
		}
		g.setups = append(g.setups, time.Since(t0).Seconds())
		r.tr.end(sp)
	}
	fmt.Printf("setup: %d rounds, median %.4f s as measured (%s)\n", setupRounds, median(g.setups), fmtList(g.setups))

	// Warm the per-model request pools on both body encodings, then
	// drop the discarded set-ups' garbage so no phase inherits it.
	h := g.srv.Handler()
	for _, m := range g.models {
		for i := 0; i < 8; i++ {
			if o := m.send(h, arrival{sample: i, json: i%2 == 1}, time.Now()); !o.ok {
				r.fail("warm-up request to %s answered %d or wrong logits", m.path, o.status)
			}
		}
	}
	runtime.GC()
	return g, nil
}

// send releases one request into the gateway's handler, in memory, and
// checks the answer against the expected logits.
func (m *hosted) send(h http.Handler, a arrival, due time.Time) outcome {
	body, ct := m.raw[a.sample], serve.ContentTypeF32
	if a.json {
		body, ct = m.json[a.sample], "application/json"
	}
	req := httptest.NewRequest(http.MethodPost, m.path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	o := outcome{lat: time.Since(due), status: rec.Code, json: a.json}
	if rec.Code != http.StatusOK {
		return o
	}
	if !a.json {
		o.gen, _ = strconv.ParseInt(rec.Header().Get("X-Seal-Gen"), 10, 64)
		o.ok = bytes.Equal(rec.Body.Bytes(), m.want[a.sample])
		return o
	}
	var resp serve.InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return o
	}
	o.gen = resp.Gen
	want := m.wantF[a.sample]
	o.ok = len(resp.Logits) == len(want)
	for i := 0; o.ok && i < len(want); i++ {
		o.ok = math.Float32bits(float32(resp.Logits[i])) == math.Float32bits(want[i])
	}
	return o
}

// schedule draws one round of one phase's Poisson arrivals: exponential
// gaps at the offered rate, and a tenant, a pool sample and a body
// encoding for each.
func (r *run) schedule(round, pi int, dur time.Duration, models int) []arrival {
	p := r.w.phases[pi]
	rng := prng.New(r.seed*1000 + uint64(round*len(r.w.phases)+pi) + 1)
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(-math.Log(1-rng.Float64()) / p.qps * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, model: rng.Intn(models), sample: rng.Intn(poolSize),
			json: rng.Float64() < p.jsonShare})
	}
}

// phase runs one round of one open-loop phase. One goroutine releases
// every arrival at its due time; each request then runs in its own
// goroutine, and its latency counts from the due time, so a stalled
// gateway still pays for the requests that queue up behind the stall.
func (r *run) phase(g *gateway, round, pi int) {
	p, rep := r.w.phases[pi], g.phases[pi]
	dur := time.Duration(p.share * r.seconds / rounds * float64(time.Second))
	sched := r.schedule(round, pi, dur, len(g.models))
	outs := make([]outcome, len(sched))
	h, reg := g.srv.Handler(), g.srv.Registry()
	before := reg.Stats()
	sp := r.tr.begin("phase."+p.name, 0, int64(round))
	stop := make(chan struct{})
	var bg sync.WaitGroup

	// The last tenant's model is the one hot-swapped, first at the start
	// of the phase and then every swapEvery. firstGen and lastGen are the
	// first and the last generation a swap of this round put in place
	// (0: none); swaps holds the Register wall times.
	swapped := len(g.models) - 1
	var firstGen, lastGen int64
	var swaps []float64
	if p.swapEvery > 0 {
		m := g.models[swapped]
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(p.swapEvery)
			defer tick.Stop()
			for {
				ssp := r.tr.begin("serve.swap", sp, int64(round))
				t0 := time.Now()
				info, err := reg.Register(m.t.tenant, m.t.model, m.t.spec)
				d := time.Since(t0).Seconds()
				r.tr.end(ssp)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: hot-swap of %s failed: %v\n", m.path, err)
					rep.SwapFailed++
				} else {
					if firstGen == 0 {
						firstGen = info.Gen
					}
					lastGen = info.Gen
					swaps = append(swaps, d)
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	if r.tr.on {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				for _, st := range reg.Stats() {
					rep.busy += float64(st.BusyEngines) / float64(st.Workers) / float64(len(g.models))
					rep.queue += float64(st.QueueLen)
				}
				rep.samples++
			}
		}()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			rsp := r.tr.begin("request", sp, int64(round*len(r.w.phases)+pi)<<32|int64(i))
			outs[i] = g.models[a.model].send(h, a, due)
			outs[i].late = late
			r.tr.end(rsp)
		}(i, a, due)
	}
	if d := time.Until(start.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	close(stop)
	bg.Wait()
	wg.Wait()
	r.tr.end(sp)
	after := reg.Stats()

	// The last generation swapped in must answer, with the same logits:
	// once Register has returned, every request reaches it.
	if lastGen > 0 {
		r.attempted++
		o := g.models[swapped].send(h, arrival{sample: round % poolSize}, time.Now())
		if !o.ok || o.gen != lastGen {
			r.failed++
			r.fail("phase %s round %d: request after the last hot-swap answered %d, generation %d (want %d), logits ok %v",
				p.name, round, o.status, o.gen, lastGen, o.ok)
		}
	}

	for i := range after {
		rep.batches += after[i].Batches - before[i].Batches
		rep.items += after[i].Items - before[i].Items
	}
	for i, o := range outs {
		if firstGen > 0 && sched[i].model == swapped && o.ok && o.gen >= firstGen {
			rep.SwapGenOK++
		}
	}
	rep.SwapsS = append(rep.SwapsS, swaps...)
	var lats []float64
	good := 0
	for _, o := range outs {
		if o.ok {
			lats = append(lats, ms(o.lat))
			if o.lat <= r.w.limit {
				good++
			}
		}
	}
	sort.Float64s(lats)
	rep.Rounds = append(rep.Rounds, roundStat{P50MS: percentile(lats, 0.5), P90MS: percentile(lats, 0.9),
		GoodputQPS: float64(good) / dur.Seconds()})
	rep.outs = append(rep.outs, outs...)
	rep.Seconds += dur.Seconds()
	r.ref.measure()
}

// finishGateway turns the phases' accounting into metrics, with the
// run's factor f to the reference speed, and runs the checks that need
// every round.
func (r *run) finishGateway(g *gateway, f float64) {
	r.values["setup_s"], r.measured["setup_s"] = f*median(g.setups), median(g.setups)
	var measSwaps, late []float64
	for pi, p := range r.w.phases {
		rep := g.phases[pi]
		rep.summarize(r.w.limit, f)
		r.phases = append(r.phases, *rep)
		measSwaps = append(measSwaps, rep.SwapsS...)
		for _, o := range rep.outs {
			late = append(late, ms(o.late))
		}
		r.attempted += rep.Sent + int64(len(rep.SwapsS)) + rep.SwapFailed
		r.failed += rep.Failed + rep.SwapFailed
		if rep.Failed > 0 {
			r.fail("phase %s: %d of %d requests failed (wrong status or logits)", p.name, rep.Failed, rep.Sent)
		}
		if rep.OK == 0 {
			r.fail("phase %s: no request succeeded", p.name)
		}
		// Every hot-swap must succeed; phase() checks that the last
		// generation of each round answers with the same logits.
		if p.swapEvery > 0 {
			switch {
			case rep.SwapFailed > 0:
				r.fail("phase %s: %d of %d hot-swaps failed", p.name, rep.SwapFailed, rep.SwapFailed+int64(len(rep.SwapsS)))
			case len(rep.SwapsS) == 0:
				r.fail("phase %s: no hot-swap ran", p.name)
			}
		}
		r.values[p.name+".p50_ms"], r.measured[p.name+".p50_ms"] = rep.P50MS, rep.MeasP50MS
		r.values[p.name+".p90_ms"], r.measured[p.name+".p90_ms"] = rep.P90MS, rep.MeasP90MS
		r.values[p.name+".serve.p90_ms"] = rep.P90MS
		r.values[p.name+".goodput_qps"], r.measured[p.name+".goodput_qps"] = rep.GoodputQPS, rep.MeasGoodput
		r.values[p.name+".serve.p50_ms.raw"] = rep.P50RawMS
		r.values[p.name+".serve.p50_ms.json"] = rep.P50JSONMS
		r.values[p.name+".serve.avg_batch"] = rep.AvgBatch
		r.values[p.name+".serve.engine_busy"] = rep.EngineBusy
		r.values[p.name+".serve.queue_len"] = rep.QueueLen
		r.values[p.name+".serve.refused_share"] = float64(rep.Refused) / float64(rep.Sent)
		fmt.Printf("phase %-8s %6.1f QPS offered, %5.1f s: sent %d, ok %d, refused %d, failed %d; "+
			"p50 %.2f ms, p90 %.2f ms, p99 %.2f ms (n=%d), goodput %.1f QPS at the reference speed; "+
			"as measured p50 %.2f ms, p90 %.2f ms, goodput %.1f QPS; avg batch %.2f; "+
			"generator late p50 %.3f ms, p99 %.3f ms\n",
			p.name, p.qps, rep.Seconds, rep.Sent, rep.OK, rep.Refused, rep.Failed,
			rep.P50MS, rep.P90MS, rep.P99MS, rep.OK, rep.GoodputQPS, rep.MeasP50MS, rep.MeasP90MS, rep.MeasGoodput,
			rep.AvgBatch, rep.LateP50MS, rep.LateP99MS)
		if p.swapEvery > 0 {
			fmt.Printf("phase %-8s hot-swaps: %d ok, %d failed; %d ok responses from a generation swapped in during the phase\n",
				p.name, len(rep.SwapsS), rep.SwapFailed, rep.SwapGenOK)
		}
	}
	r.values["swap_s"], r.measured["swap_s"] = f*median(measSwaps), median(measSwaps)
	r.values["serve.register_s"] = median(append(g.registers, measSwaps...))
	sort.Float64s(late)
	r.values["gen.late_ms"] = percentile(late, 0.99)
	fmt.Printf("hot-swaps: %d, median Register %.4f s at the reference speed, %.4f s as measured (%s)\n",
		len(measSwaps), f*median(measSwaps), median(measSwaps), fmtList(measSwaps))
}

// summarize computes the report's counts, percentiles and rates from
// its outcomes, with the run's factor f to the reference speed. A
// response is within the latency limit if its latency at the reference
// speed is.
func (rep *phaseReport) summarize(limit time.Duration, f float64) {
	var lats, measLats, raw, js, late []float64
	measGood := 0
	for _, o := range rep.outs {
		late = append(late, ms(o.late))
		switch {
		case o.ok:
			rep.OK++
			lat := ms(o.lat) * f
			lats = append(lats, lat)
			measLats = append(measLats, ms(o.lat))
			if o.json {
				js = append(js, lat)
			} else {
				raw = append(raw, lat)
			}
			if lat <= ms(limit) {
				rep.Good++
			}
			if o.lat <= limit {
				measGood++
			}
		case o.status == http.StatusTooManyRequests:
			rep.Refused++
		default:
			rep.Failed++
		}
	}
	for _, s := range [][]float64{lats, measLats, raw, js, late} {
		sort.Float64s(s)
	}
	rep.Sent = int64(len(rep.outs))
	rep.GoodputQPS = float64(rep.Good) / (rep.Seconds * f)
	rep.MeasGoodput = float64(measGood) / rep.Seconds
	rep.P50MS, rep.P90MS, rep.P99MS = percentile(lats, 0.5), percentile(lats, 0.9), percentile(lats, 0.99)
	rep.MeasP50MS, rep.MeasP90MS = percentile(measLats, 0.5), percentile(measLats, 0.9)
	rep.P50RawMS, rep.P50JSONMS = percentile(raw, 0.5), percentile(js, 0.5)
	rep.LateP50MS, rep.LateP99MS = percentile(late, 0.5), percentile(late, 0.99)
	if rep.batches > 0 {
		rep.AvgBatch = float64(rep.items) / float64(rep.batches)
	}
	if rep.samples > 0 {
		rep.EngineBusy, rep.QueueLen = rep.busy/rep.samples, rep.queue/rep.samples
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank q-quantile of sorted values (0 if none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of vs without reordering them.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func fmtList(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.3f", v)
	}
	return b.String()
}
