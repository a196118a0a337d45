package main

import (
	"fmt"
	"math"
	"time"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/prng"
	"seal/internal/secure"
	"seal/internal/tensor"
)

const (
	sealRounds = 3  // constructor chains timed; each seal.* metric is the median
	fwdRounds  = 10 // forwards timed per batch size; each *.fwd_ms is the median
)

// probe times the layers under the gateway one call at a time, for the
// workload's first model spec (traced runs only): the constructors
// seal.Prepare calls, the secure and plaintext forwards at batch 1 and
// 8, and a bulk AES-CTR decrypt of every ciphertext weight region.
func (r *run) probe() error {
	t := r.w.tenants[0]
	arch := models.VGG16Arch()
	if t.spec.Arch != "vgg16" {
		return fmt.Errorf("probe: unsupported arch %q", t.spec.Arch)
	}
	if t.spec.Scale != 0 && t.spec.Scale != 1 {
		arch = arch.Scale(t.spec.Scale, 0)
	}
	opts := core.DefaultOptions()
	opts.Ratio = *t.spec.Ratio
	key := masterKey.DeriveSubKey(t.tenant).Bytes()

	// The constructor chain of seal.Prepare, as the gateway's Register
	// runs it (layout sized for its batch of 8).
	steps := []string{"seal.build_s", "seal.plan_s", "seal.layout_s", "seal.image_s", "seal.engine_s"}
	times := make([][]float64, len(steps))
	var (
		m      *models.Model
		layout *core.Layout
		img    *core.MemoryImage
		eng    *secure.Engine
	)
	for round := 0; round < sealRounds; round++ {
		psp := r.tr.begin("seal.prepare", 0, int64(round))
		var plan *core.Plan
		var err error
		for i, step := range []func() error{
			func() (err error) { m, err = models.Build(arch, prng.New(t.spec.Seed)); return },
			func() (err error) { plan, err = core.NewPlan(m, opts); return },
			func() (err error) {
				if t.spec.Int8 {
					layout, err = core.NewInt8Layout(plan, 8)
				} else {
					layout, err = core.NewLayout(plan, 8)
				}
				return
			},
			func() (err error) { img, err = core.NewMemoryImage(layout, m, key); return },
			func() (err error) { eng, err = secure.NewEngine(img, m, t.spec.PanelBytes); return },
		} {
			sp := r.tr.begin(steps[i][:len(steps[i])-2], psp, int64(round))
			t0 := time.Now()
			err = step()
			times[i] = append(times[i], time.Since(t0).Seconds())
			r.tr.end(sp)
			if err != nil {
				return fmt.Errorf("probe %s: %w", steps[i], err)
			}
		}
		r.tr.end(psp)
	}
	for i, s := range steps {
		r.values[s] = median(times[i])
	}
	if t.spec.Int8 {
		nn.EnableInt8(m.Net)
	}

	// Forwards on pool inputs: the first 8 samples of a fresh draw.
	rng := prng.New(r.seed)
	in := arch.InC * arch.InH * arch.InW
	x8 := tensor.New(8, arch.InC, arch.InH, arch.InW)
	for i := range x8.Data {
		x8.Data[i] = float32(rng.NormFloat64())
	}
	x1 := tensor.New(1, arch.InC, arch.InH, arch.InW)
	copy(x1.Data, x8.Data[:in])
	for _, x := range []*tensor.Tensor{x1, x8} {
		b := x.Shape[0]
		want := append([]float32(nil), m.Forward(x, false).Data...)
		got := eng.Forward(x) // warms the engine's workspaces at this batch
		for i := range want {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
				r.fail("secure forward at batch %d differs from the plaintext forward at logit %d", b, i)
				break
			}
		}
		before := eng.Stats()
		secureMS := r.timeForward(fmt.Sprintf("secure.fwd.b%d", b), func() { eng.Forward(x) })
		after := eng.Stats()
		nnMS := r.timeForward(fmt.Sprintf("nn.fwd.b%d", b), func() { m.Forward(x, false) })
		r.values[fmt.Sprintf("secure.fwd_ms.b%d", b)] = secureMS
		r.values[fmt.Sprintf("nn.fwd_ms.b%d", b)] = nnMS
		if b == 8 {
			n := float64(after.Forwards - before.Forwards)
			r.values["secure.decrypt_mb"] = float64(after.BytesDecrypted-before.BytesDecrypted) / n / (1 << 20)
			r.values["secure.bypass_mb"] = float64(after.BytesCopied-before.BytesCopied) / n / (1 << 20)
			r.values["secure.panels"] = float64(after.Panels-before.Panels) / n
			r.values["tensor.gflops.b8"] = gemmFlops(arch, b) / (nnMS * 1e6)
		}
	}

	// One bulk decrypt of every ciphertext weight region.
	var regions []*core.Region
	var size uint64
	for _, reg := range layout.Regions() {
		if reg.Kind == core.RegionWeights && reg.EncryptedBytes() > 0 {
			regions = append(regions, reg)
			size = max(size, reg.Size)
		}
	}
	dst := make([]byte, size)
	var encBytes int
	var decMS []float64
	for round := 0; round < fwdRounds; round++ {
		sp := r.tr.begin("core.decrypt", 0, int64(round))
		t0 := time.Now()
		encBytes = 0
		for _, reg := range regions {
			n, err := img.DecryptRangeInto(reg, 0, dst[:reg.Size])
			if err != nil {
				return fmt.Errorf("probe decrypt %s: %w", reg.Name, err)
			}
			encBytes += n
		}
		decMS = append(decMS, ms(time.Since(t0)))
		r.tr.end(sp)
	}
	r.values["core.decrypt_ms"] = median(decMS)
	r.values["core.decrypt_gbps"] = float64(encBytes) / (median(decMS) * 1e6)
	fmt.Printf("probe %s: secure fwd b1 %.2f ms, b8 %.2f ms; plaintext b1 %.2f ms, b8 %.2f ms; "+
		"decrypt %.2f MiB in %.2f ms\n", t.tenant, r.values["secure.fwd_ms.b1"], r.values["secure.fwd_ms.b8"],
		r.values["nn.fwd_ms.b1"], r.values["nn.fwd_ms.b8"], float64(encBytes)/(1<<20), median(decMS))
	return nil
}

// timeForward runs fn fwdRounds times under spans named name and
// returns the median milliseconds.
func (r *run) timeForward(name string, fn func()) float64 {
	var d []float64
	for i := 0; i < fwdRounds; i++ {
		sp := r.tr.begin(name, 0, int64(i))
		t0 := time.Now()
		fn()
		d = append(d, ms(time.Since(t0)))
		r.tr.end(sp)
	}
	return median(d)
}

// gemmFlops is the multiply-add work of one forward at batch b, computed
// from the layer geometry: 2 flops per weight per output position.
func gemmFlops(a *models.Arch, b int) float64 {
	var f float64
	for _, s := range a.Specs {
		switch s.Kind {
		case models.KindConv:
			f += 2 * float64(s.WeightCount()) * float64(s.OutH()*s.OutW())
		case models.KindFC:
			f += 2 * float64(s.WeightCount())
		}
	}
	return f * float64(b)
}
