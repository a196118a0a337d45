package secure

import (
	"testing"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/parallel"
	"seal/internal/prng"
	"seal/internal/tensor"
)

var testKey = []byte("0123456789abcdef")

type testCase struct {
	name string
	arch *models.Arch
	opts core.Options
}

func testCases() []testCase {
	return []testCase{
		{"vgg16", models.VGG16Arch().Scale(0.125, 0), core.DefaultOptions()},
		{"resnet18", models.ResNet18Arch().Scale(0.125, 0), core.DefaultOptions()},
		{"mlp", models.MLPArch("mlp", 96, []int{64, 48}, 10), core.DefaultMLPOptions()},
	}
}

// buildEngine plans, lays out and encrypts a freshly initialized model,
// then wraps it in a streaming engine.
func buildEngine(t testing.TB, arch *models.Arch, opts core.Options, ratio float64, seed uint64, panelBytes int) (*Engine, *models.Model) {
	t.Helper()
	m, err := models.Build(arch, prng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	opts.Ratio = ratio
	p, err := core.NewPlan(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.NewLayout(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.NewMemoryImage(l, m, testKey)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(img, m, panelBytes)
	if err != nil {
		t.Fatal(err)
	}
	return e, m
}

// formats builds an engine over each image format: float32 weights, and
// the int8 layout paired with the model's quantized eval path.
var formats = []struct {
	name  string
	build func(testing.TB, *models.Arch, core.Options, float64, uint64, int) (*Engine, *models.Model)
}{{"float", buildEngine}, {"int8", buildInt8Engine}}

func randInput(r *prng.Source, arch *models.Arch, n int) *tensor.Tensor {
	x := tensor.New(n, arch.InC, arch.InH, arch.InW)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	return x
}

func cloneData(t *tensor.Tensor) []float32 {
	out := make([]float32, len(t.Data))
	copy(out, t.Data)
	return out
}

// TestForwardMatchesPlaintext is the tentpole equivalence matrix:
// streamed secure logits must be bit-identical to the plaintext forward
// for conv nets (plain and residual) and an all-FC net, across SE
// ratios, batch sizes, panel geometries and pool widths.
func TestForwardMatchesPlaintext(t *testing.T) {
	r := prng.New(77)
	for _, tc := range testCases() {
		for _, ratio := range []float64{0, 0.5, 1.0} {
			// panel budgets: single-block panels (maximum split), a small
			// multi-block panel, and the default (typically one panel per
			// layer at this scale)
			for _, panelBytes := range []int{1, 4096, 0} {
				e, m := buildEngine(t, tc.arch, tc.opts, ratio, 1000+uint64(ratio*10), panelBytes)
				for _, batch := range []int{1, 16} {
					x := randInput(r, tc.arch, batch)
					want := cloneData(m.Forward(x, false))
					for _, workers := range []int{1, 8} {
						prev := parallel.SetWorkers(workers)
						got := e.Forward(x)
						parallel.SetWorkers(prev)
						if len(got.Data) != len(want) {
							t.Fatalf("%s ratio %v panel %d batch %d: logits size %d, want %d",
								tc.name, ratio, panelBytes, batch, len(got.Data), len(want))
						}
						for i := range want {
							if got.Data[i] != want[i] {
								t.Fatalf("%s ratio %v panel %d batch %d workers %d: logit %d = %v, want %v",
									tc.name, ratio, panelBytes, batch, workers, i, got.Data[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestForwardReadsWeightsFromImage zeroes every conv/FC kernel in the
// model after the image is built: the streamed logits must still match
// the original plaintext forward, proving the engine's weights come
// from the encrypted image, not from the model tensors.
func TestForwardReadsWeightsFromImage(t *testing.T) {
	r := prng.New(99)
	for _, tc := range testCases() {
		e, m := buildEngine(t, tc.arch, tc.opts, 0.5, 7, 0)
		x := randInput(r, tc.arch, 2)
		want := cloneData(m.Forward(x, false))
		for _, w := range m.WeightLayers {
			if w.Conv != nil {
				w.Conv.Weight.W.Fill(0)
			} else {
				w.FC.Weight.W.Fill(0)
			}
		}
		zeroed := m.Forward(x, false)
		same := true
		for i := range want {
			if zeroed.Data[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: zeroing kernels did not change the plaintext forward — test is vacuous", tc.name)
		}
		got := e.Forward(x)
		for i := range want {
			if got.Data[i] != want[i] {
				t.Fatalf("%s: logit %d = %v after zeroing model kernels, want %v (engine read model weights?)",
					tc.name, i, got.Data[i], want[i])
			}
		}
	}
}

// TestForwardStatsAccounting checks the traffic counters in both image
// formats: one forward stages every weight region exactly once,
// splitting bytes between the keystream and the plaintext bypass
// according to the plan.
func TestForwardStatsAccounting(t *testing.T) {
	r := prng.New(55)
	arch := models.VGG16Arch().Scale(0.125, 0)
	x := randInput(r, arch, 1)
	for _, f := range formats {
		e, _ := f.build(t, arch, core.DefaultOptions(), 0.5, 3, 4096)
		e.Forward(x)
		st := e.Stats()
		var wantTotal, wantEnc int64
		for _, lp := range e.img.Layout.Plan.Layers {
			reg := e.img.Layout.Region("w:" + lp.Name)
			wantTotal += int64(reg.Size)
			wantEnc += int64(reg.EncryptedBytes())
		}
		if st.Forwards != 1 {
			t.Fatalf("%s: Forwards = %d, want 1", f.name, st.Forwards)
		}
		if st.BytesDecrypted != wantEnc {
			t.Fatalf("%s: BytesDecrypted = %d, want %d", f.name, st.BytesDecrypted, wantEnc)
		}
		if st.BytesDecrypted+st.BytesCopied != wantTotal {
			t.Fatalf("%s: decrypted+copied = %d, want total region bytes %d", f.name, st.BytesDecrypted+st.BytesCopied, wantTotal)
		}
		if st.Panels <= int64(len(e.img.Layout.Plan.Layers)) {
			t.Fatalf("%s: Panels = %d, expected multiple panels per layer at 4 KiB budget", f.name, st.Panels)
		}
		e.ResetStats()
		if e.Stats() != (Stats{}) {
			t.Fatalf("%s: ResetStats did not zero the counters", f.name)
		}
	}
}

// TestForwardZeroAllocWarm is the allocation regression for the warm
// streaming path: with the pool pinned to one worker (the multi-worker
// path allocates its dispatch closures, as everywhere in this codebase),
// a warm secure forward must not touch the heap.
func TestForwardZeroAllocWarm(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	r := prng.New(44)
	for _, tc := range testCases() {
		e, _ := buildEngine(t, tc.arch, tc.opts, 0.5, 9, 4096)
		x := randInput(r, tc.arch, 2)
		e.Forward(x) // warm-up: builds headers, workspaces, module buffers
		if n := testing.AllocsPerRun(10, func() { e.Forward(x) }); n != 0 {
			t.Fatalf("%s: warm secure forward allocates %.1f objects/op, want 0", tc.name, n)
		}
	}
}

// TestForwardBatchShrinkReusesStorage pins the grow-only workspace
// contract the serving gateway depends on, in both image formats: after
// one forward at the widest batch, narrower batches must allocate
// nothing (the layer outputs re-slice the same storage) and still
// produce logits bit-identical to a never-grown engine at that batch.
func TestForwardBatchShrinkReusesStorage(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	r := prng.New(66)
	for _, f := range formats {
		for _, tc := range testCases() {
			name := f.name + "/" + tc.name
			e, _ := f.build(t, tc.arch, tc.opts, 0.5, 31, 4096)
			wide := randInput(r, tc.arch, 8)
			e.Forward(wide) // widest batch: grows every workspace once
			for _, batch := range []int{1, 3, 8} {
				x := randInput(r, tc.arch, batch)
				fresh, _ := f.build(t, tc.arch, tc.opts, 0.5, 31, 4096)
				want := cloneData(fresh.Forward(x))
				got := cloneData(e.Forward(x))
				if len(got) != len(want) {
					t.Fatalf("%s batch %d: logits size %d, want %d", name, batch, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s batch %d: logit %d = %v, want %v (shrunk-workspace forward diverged)", name, batch, i, got[i], want[i])
					}
				}
				if n := testing.AllocsPerRun(10, func() { e.Forward(x) }); n != 0 {
					t.Fatalf("%s: forward at batch %d after batch 8 allocates %.1f objects/op, want 0 (workspaces not grow-only)", name, batch, n)
				}
			}
		}
	}
}

// TestNewEngineRejectsMismatchedModel checks construction-time
// validation: an image planned for a different network must not pair
// with this model.
func TestNewEngineRejectsMismatchedModel(t *testing.T) {
	m, err := models.Build(models.VGG16Arch().Scale(0.125, 0), prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	other, err := models.Build(models.ResNet18Arch().Scale(0.125, 0), prng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlan(m, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.NewLayout(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.NewMemoryImage(l, m, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(img, other, 0); err == nil {
		t.Fatal("engine accepted an image planned for a different network")
	}
	if _, err := NewEngine(img, m, 0); err != nil {
		t.Fatalf("engine rejected its own model: %v", err)
	}
}
