// Package secure runs a planned model's forward pass directly from the
// encrypted MemoryImage — the functional counterpart of the paper's
// claim that smart encryption keeps an accelerator near its plaintext
// roofline. Weights never exist as a whole decrypted tensor: each
// conv/FC layer's weight region is decrypted panel by panel (a panel is
// the block of kernel rows one GEMM tile consumes, a whole number of
// the region's line-aligned kernel-row blocks, so Region.Encrypted
// decides per line what is ciphertext), and counter-mode decryption of
// panel k+1 overlaps GEMM consumption of panel k on the shared worker
// pool. Because CTR pad generation needs only addresses, decrypt and
// compute touch disjoint buffers and the overlap is race-free by
// construction; with one worker the engine degrades to a strict
// decode-then-consume loop that is allocation-free when warm.
//
// One pipeline serves every layer in both image formats. An FC layer is
// the kk = 1, ncols = 1 case of a convolution (its kernel-row blocks are
// input features instead of channels, each batch item a single column),
// and an int8 image differs from a float one only in how a layer stages
// its input (im2col, or quantize plus int8 im2col), which GEMM consumes
// a panel, and how it finishes (bias, or dequantize plus bias).
//
// Bit-identity with the plaintext nn forward is load-bearing: every
// float panel GEMM continues each output element's ascending-p float32
// accumulation chain from its stored value (see tensor.MatMulPanelAccWS),
// int8 panels chain in exact int32, and the float helpers around them run
// in the nn forward's order, so streamed logits equal the nn logits (the
// quantized eval forward, for an int8 image) bit for bit at every pool
// width and panel size — the equivalence tests pin this.
//
// Only kernel weights live in the image (that is what EMalloc lays
// out); biases and BatchNorm parameters come from the plaintext model,
// matching the paper's threat model where SE protects the weight
// tensors on the memory bus. An int8 image also carries each layer's
// dequantization scales in a plaintext "qs:" header region.
package secure

import (
	"encoding/binary"
	"fmt"
	"math"

	"seal/internal/core"
	"seal/internal/models"
	"seal/internal/nn"
	"seal/internal/parallel"
	"seal/internal/tensor"
)

// DefaultPanelBytes is the target ciphertext bytes decrypted per panel
// when NewEngine is given no explicit size: large enough that the wide
// CTR call and the GEMM both amortize their dispatch, small enough that
// double-buffered panels of the deepest VGG/ResNet layers stay in cache.
const DefaultPanelBytes = 256 << 10

// Stats counts the engine's memory-side work since the last reset.
type Stats struct {
	Forwards       int64 // completed Forward calls
	Panels         int64 // weight panels staged
	BytesDecrypted int64 // ciphertext bytes through the CTR keystream
	BytesCopied    int64 // plaintext weight bytes that bypassed AES
}

// step is one stage of the streamed forward pass: exactly one of mod
// (plaintext passthrough: BN, activation, pooling, flatten), layer or
// blk is set.
type step struct {
	mod   nn.Module
	layer *layer
	blk   *blockStep
}

// layer streams one conv or FC layer from its weight region, whose
// blocks are laid out [block][out][kk]. For an FC layer kk = ncols = 1.
type layer struct {
	conv    *nn.Conv2D // nil for an FC layer
	fc      *nn.Linear // nil for a convolution
	region  *core.Region
	outC    int
	blocks  int // kernel-row blocks: input channels, or input features
	kk      int // kernel-matrix columns per block (KH*KW)
	ncols   int // output positions per item (OutH*OutW)
	perIn   int // input floats per batch item
	cpp     int // blocks per panel
	panels  int
	out     *tensor.Tensor // engine-owned output
	qscales []float32      // int8: per-output-channel scales from the qs header
}

// blockStep streams a residual block: its convolutions run from the
// image, its BN/ReLU stages and the fused sum+ReLU run exactly as the
// plaintext block does.
type blockStep struct {
	b            *nn.ResidualBlock
	conv1, conv2 *layer
	shortcut     *layer // nil for identity shortcuts
	out          *tensor.Tensor
}

// Engine executes a model's inference forward pass with every conv/FC
// weight read through the encrypted MemoryImage. It owns all streaming
// workspaces, so a warm Forward at pool width 1 performs no heap
// allocations; returned tensors are owned by the engine (or, for
// passthrough stages, by the model's modules) and valid until the next
// Forward. An Engine is not safe for concurrent Forward calls, and —
// because it shares the model's BN/activation/pooling modules — must
// not run concurrently with the model's own Forward either.
type Engine struct {
	img        *core.MemoryImage
	model      *models.Model
	panelBytes int
	int8       bool
	steps      []step

	// per-batch-item headers and workspaces, grown on batch change: float
	// im2col, or the quantized input, its int8 im2col and int32 accumulators
	colsBuf  [][]float32
	colsHdr  []*tensor.Tensor
	imgHdr   []*tensor.Tensor
	outHdr   []*tensor.Tensor
	qimgBuf  [][]int8
	qcolsBuf [][]int8
	qcolsHdr []*tensor.Int8Mat
	accBuf   [][]int32
	actScale []float32

	// per-chunk GEMM workspaces for the item-parallel consume
	scratch [][]float32
	int8WS  []*tensor.Int8GEMMWS

	// double-buffered weight panels: decode writes buffer 1-cur while the
	// GEMMs read buffer cur; byteBuf stages the decrypted region bytes and
	// is touched only by the (strictly serialized) decode tasks. An int8
	// panel also carries its dual-lane packed words.
	byteBuf []byte
	wbuf    [2][]float32
	wHdr    [2]*tensor.Tensor
	qwbuf   [2][]int8
	qwHdr   [2]*tensor.Int8Mat
	qpack   [2][]int64

	maxPanelBytes int
	maxPanelW     int // weights per panel
	maxCols       int
	maxScratch    int
	maxQImg       int
	maxQCols      int
	maxAcc        int
	maxPacked     int

	// The layer in flight. run writes these only between fan-outs; the
	// task closures below are bound once at construction and read them,
	// so the overlapped pipeline allocates no closures of its own.
	cur    *layer
	x, out *tensor.Tensor
	n      int
	grain  int // batch items per chunk
	t      int // panel being consumed; decodeNext decodes t+1

	stageAll, decodeNext, consumeAll func()
	stageFn, consumeFn, finishFn     func(lo, hi int)

	stats Stats
}

// NewEngine builds a streaming engine over an encrypted image and the
// model whose plan produced it. panelBytes bounds the bytes decrypted
// per panel (0 → DefaultPanelBytes); every panel is a whole number of
// kernel-row blocks, so it is always line-aligned. The model supplies
// network structure, biases and BN statistics — its conv/FC kernel
// weights are never read by the engine.
func NewEngine(img *core.MemoryImage, m *models.Model, panelBytes int) (*Engine, error) {
	if panelBytes <= 0 {
		panelBytes = DefaultPanelBytes
	}
	layers := img.Layout.Plan.Layers
	if len(m.WeightLayers) != len(layers) {
		return nil, fmt.Errorf("secure: model has %d weight layers, image plan %d", len(m.WeightLayers), len(layers))
	}
	regions := make(map[nn.Module]*core.Region, len(layers))
	for i, lp := range layers {
		w := m.WeightLayers[i]
		if w.Name != lp.Name {
			return nil, fmt.Errorf("secure: weight layer %d is %s, plan has %s", i, w.Name, lp.Name)
		}
		r := img.Layout.Region("w:" + lp.Name)
		if r == nil {
			return nil, fmt.Errorf("secure: missing weights region for %s", lp.Name)
		}
		if w.Conv != nil {
			regions[w.Conv] = r
		} else {
			regions[w.FC] = r
		}
	}
	e := &Engine{img: img, model: m, panelBytes: panelBytes, int8: img.Layout.Int8}
	matched := 0
	stream := func(mod nn.Module) (*layer, error) {
		r, ok := regions[mod]
		if !ok {
			return nil, fmt.Errorf("secure: %s has no weights region", mod.(nn.Named).LayerName())
		}
		matched++
		return e.addLayer(mod, r)
	}
	for _, mod := range m.Net.Modules {
		switch v := mod.(type) {
		case *nn.Conv2D, *nn.Linear:
			l, err := stream(v)
			if err != nil {
				return nil, err
			}
			e.steps = append(e.steps, step{layer: l})
		case *nn.ResidualBlock:
			bs := &blockStep{b: v}
			var err error
			if bs.conv1, err = stream(v.Conv1); err != nil {
				return nil, err
			}
			if bs.conv2, err = stream(v.Conv2); err != nil {
				return nil, err
			}
			if v.Shortcut != nil {
				if bs.shortcut, err = stream(v.Shortcut); err != nil {
					return nil, err
				}
			}
			e.steps = append(e.steps, step{blk: bs})
		default:
			// BN, activations, pooling, flatten: plaintext passthrough —
			// they carry no EMalloc'd weights.
			e.steps = append(e.steps, step{mod: mod})
		}
	}
	if matched != len(layers) {
		return nil, fmt.Errorf("secure: matched %d of %d weight layers in the network", matched, len(layers))
	}
	e.byteBuf = make([]byte, e.maxPanelBytes)
	for i := range e.wHdr {
		if e.int8 {
			e.qwbuf[i] = make([]int8, e.maxPanelW)
			e.qwHdr[i] = &tensor.Int8Mat{}
			e.qpack[i] = make([]int64, e.maxPacked)
		} else {
			e.wbuf[i] = make([]float32, e.maxPanelW)
			e.wHdr[i] = &tensor.Tensor{}
		}
	}
	e.stageFn, e.consumeFn, e.finishFn = e.stage, e.consume, e.finish
	e.stageAll = func() { e.items(e.stageFn) }
	e.consumeAll = func() { e.items(e.consumeFn) }
	e.decodeNext = func() { e.decode(e.t + 1) }
	return e, nil
}

// addLayer registers a streamed conv or FC layer and folds its buffer
// needs into the engine maxima.
func (e *Engine) addLayer(mod nn.Module, r *core.Region) (*layer, error) {
	l := &layer{region: r, kk: 1, ncols: 1}
	if c, ok := mod.(*nn.Conv2D); ok {
		g := c.Geom
		l.conv, l.outC, l.blocks = c, c.OutC, g.InC
		l.kk, l.ncols, l.perIn = g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
	} else {
		l.fc = mod.(*nn.Linear)
		l.outC, l.blocks, l.perIn = l.fc.Out, l.fc.In, l.fc.In
	}
	l.cpp = max(1, min(e.panelBytes/int(r.BlockBytes), l.blocks))
	if e.int8 {
		// Keep every panel inside the packed GEMM's single-call depth so
		// the streaming path never hits the splitting fallback.
		l.cpp = min(l.cpp, tensor.MaxInt8PanelDepth/l.kk)
	}
	l.panels = (l.blocks + l.cpp - 1) / l.cpp
	kp := l.cpp * l.kk
	depth := l.blocks * l.kk
	e.maxPanelBytes = max(e.maxPanelBytes, l.cpp*int(r.BlockBytes))
	e.maxPanelW = max(e.maxPanelW, l.outC*kp)
	if !e.int8 {
		if l.conv != nil {
			e.maxCols = max(e.maxCols, depth*l.ncols)
			e.maxScratch = max(e.maxScratch, tensor.MatMulPanelLen(kp))
		}
		return l, nil
	}
	if l.conv != nil {
		e.maxQImg = max(e.maxQImg, l.perIn)
	}
	e.maxQCols = max(e.maxQCols, depth*l.ncols)
	e.maxAcc = max(e.maxAcc, l.outC*l.ncols)
	e.maxPacked = max(e.maxPacked, tensor.PackedBLen(l.outC, kp))
	var err error
	l.qscales, err = e.readScales(mod.(nn.Named).LayerName(), l.outC)
	return l, err
}

// readScales loads a layer's per-output-channel scales from its
// plaintext "qs:" header region.
func (e *Engine) readScales(name string, outC int) ([]float32, error) {
	r := e.img.Layout.Region("qs:" + name)
	if r == nil {
		return nil, fmt.Errorf("secure: missing scales region for %s", name)
	}
	buf := make([]byte, r.Size)
	if _, err := e.img.DecryptRangeInto(r, 0, buf); err != nil {
		return nil, err
	}
	s := make([]float32, outC)
	for o := range s {
		s[o] = math.Float32frombits(binary.LittleEndian.Uint32(buf[o*4:]))
	}
	return s, nil
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Image returns the encrypted memory image the engine streams from.
func (e *Engine) Image() *core.MemoryImage { return e.img }

// Model returns the model supplying structure, biases and BN state.
func (e *Engine) Model() *models.Model { return e.model }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// PanelBytes returns the configured panel byte budget.
func (e *Engine) PanelBytes() int { return e.panelBytes }

// Int8 reports whether the engine streams a quantized image.
func (e *Engine) Int8() bool { return e.int8 }

// Forward runs the streamed secure forward pass on a batch
// [N, C, H, W] and returns the logits, bit-identical to
// model.Forward(x, false). The returned tensor is valid until the next
// Forward.
func (e *Engine) Forward(x *tensor.Tensor) *tensor.Tensor {
	e.ensureBatch(x.Dim(0))
	for i := range e.steps {
		s := &e.steps[i]
		switch {
		case s.layer != nil:
			x = e.run(s.layer, x)
		case s.blk != nil:
			x = e.runBlock(s.blk, x)
		default:
			x = s.mod.Forward(x, false)
		}
	}
	e.stats.Forwards++
	return x
}

// ensureBatch grows the per-item header/storage pools to n items and
// the per-chunk GEMM workspaces to the current fan-out width. Warm
// calls with a stable batch and pool width allocate nothing (the int8
// GEMM workspaces size themselves on first use).
func (e *Engine) ensureBatch(n int) {
	for len(e.outHdr) < n {
		e.colsHdr = append(e.colsHdr, &tensor.Tensor{})
		e.imgHdr = append(e.imgHdr, &tensor.Tensor{})
		e.outHdr = append(e.outHdr, &tensor.Tensor{})
		if e.int8 {
			e.qimgBuf = append(e.qimgBuf, make([]int8, e.maxQImg))
			e.qcolsBuf = append(e.qcolsBuf, make([]int8, e.maxQCols))
			e.qcolsHdr = append(e.qcolsHdr, &tensor.Int8Mat{})
			e.accBuf = append(e.accBuf, make([]int32, e.maxAcc))
			e.actScale = append(e.actScale, 0)
		} else {
			e.colsBuf = append(e.colsBuf, make([]float32, e.maxCols))
		}
	}
	chunks := min(parallel.Workers(), n)
	for len(e.scratch) < chunks && !e.int8 {
		e.scratch = append(e.scratch, make([]float32, e.maxScratch))
	}
	for len(e.int8WS) < chunks && e.int8 {
		e.int8WS = append(e.int8WS, tensor.NewInt8GEMMWS(1, 1, 0))
	}
}

// run streams one layer: stage every item's GEMM operand, fold the
// weight panels in one at a time, then finish each item's output.
// Serially that is a plain decode→consume loop. With more workers the
// batch stage overlaps panel 0's decrypt, each panel's consume overlaps
// the next panel's decrypt, and stage/consume/finish shard the batch
// items across the pool with one GEMM workspace per chunk.
func (e *Engine) run(l *layer, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dim(0)
	e.cur, e.x, e.n = l, x, n
	if l.conv != nil {
		e.out = ensure4(&l.out, n, l.outC, l.conv.Geom.OutH(), l.conv.Geom.OutW())
	} else {
		e.out = ensure2(&l.out, n, l.outC)
	}
	w := parallel.Workers()
	e.grain = max(n, 1)
	if w == 1 {
		// Strict serial path: no closures, no goroutines, no allocations.
		e.stage(0, n)
		for e.t = 0; e.t < l.panels; e.t++ {
			e.decode(e.t)
			e.consume(0, n)
		}
		e.finish(0, n)
		return e.out
	}
	e.t = -1
	if l.ncols == 1 {
		// One output column per item (FC) is a matrix-vector product: too
		// little work per item to pay for sharding the batch or for
		// overlapping its stage with the first decrypt.
		e.stage(0, n)
		e.decodeNext()
	} else {
		e.grain = (n + w - 1) / w
		parallel.Do(e.stageAll, e.decodeNext)
	}
	for e.t = 0; e.t < l.panels; e.t++ {
		if e.t+1 < l.panels {
			parallel.Do(e.decodeNext, e.consumeAll)
		} else {
			e.consumeAll()
		}
	}
	e.items(e.finishFn)
	return e.out
}

// items runs fn over the batch items in flight, one chunk of e.grain
// items per worker.
func (e *Engine) items(fn func(lo, hi int)) {
	if e.grain >= e.n {
		fn(0, e.n)
		return
	}
	parallel.For(e.n, e.grain, fn)
}

// stage prepares items [lo, hi) of the layer in flight as GEMM
// operands and points their output headers into the layer output. In
// float mode that is the im2col expansion (an FC item is its own single
// column); in int8 mode each item is quantized with its own dynamic
// symmetric scale and expanded into the transposed int8 im2col layout —
// the same helper sequence as the nn quantized path, for bit-identity.
func (e *Engine) stage(lo, hi int) {
	l := e.cur
	depth := l.blocks * l.kk
	perOut := l.outC * l.ncols
	for i := lo; i < hi; i++ {
		in := e.x.Data[i*l.perIn : (i+1)*l.perIn]
		if e.int8 {
			s := tensor.QuantScale(tensor.MaxAbsSlice(in))
			e.actScale[i] = s
			aimQ(e.qcolsHdr[i], e.qcolsBuf[i][:l.ncols*depth], l.ncols, depth)
			if l.conv == nil {
				tensor.QuantizeSliceInto(e.qcolsHdr[i].Data, in, s)
				continue
			}
			qimg := e.qimgBuf[i][:l.perIn]
			tensor.QuantizeSliceInto(qimg, in, s)
			tensor.Im2ColTransInt8Into(e.qcolsHdr[i], qimg, l.conv.Geom)
			continue
		}
		out := e.out.Data[i*perOut : (i+1)*perOut]
		if l.conv == nil {
			// Row-major for the transposed-B GEMM that Linear.Forward uses.
			aim2(e.colsHdr[i], in, 1, l.perIn)
			aim2(e.outHdr[i], out, 1, l.outC)
			continue
		}
		g := l.conv.Geom
		aim3(e.imgHdr[i], in, g.InC, g.InH, g.InW)
		aim2(e.colsHdr[i], e.colsBuf[i][:depth*l.ncols], depth, l.ncols)
		aim2(e.outHdr[i], out, l.outC, l.ncols)
		tensor.Im2ColInto(e.colsHdr[i], e.imgHdr[i], g)
	}
}

// decode decrypts panel t's kernel-row blocks with one run-coalesced
// DecryptRangeInto and repacks the layout's [block][out][kk] weights
// into the GEMM's [out][block·kk] panel matrix in buffer t&1 (an int8
// panel is then prepacked into its dual-lane words once for the whole
// batch). Decode tasks are strictly serialized by the pipeline, so the
// byte staging buffer and the stats are shared; only the panel buffer
// crosses into the concurrent consume.
func (e *Engine) decode(t int) {
	l := e.cur
	r := l.region
	par := t & 1
	c0 := t * l.cpp
	nblk := min(l.cpp, l.blocks-c0)
	bb := int(r.BlockBytes)
	buf := e.byteBuf[:nblk*bb]
	enc, err := e.img.DecryptRangeInto(r, uint64(c0)*r.BlockBytes, buf)
	if err != nil {
		// Geometry is validated at construction; a failure here is a
		// programming error, not a runtime condition.
		panic(err)
	}
	e.stats.BytesDecrypted += int64(enc)
	e.stats.BytesCopied += int64(len(buf) - enc)
	e.stats.Panels++
	kk := l.kk
	kp := nblk * kk
	w, qw := e.wbuf[par], e.qwbuf[par]
	for c := 0; c < nblk; c++ {
		blk := buf[c*bb:]
		for o := 0; o < l.outC; o++ {
			at := o*kp + c*kk
			if e.int8 {
				dst := qw[at : at+kk]
				for k, b := range blk[o*kk : (o+1)*kk] {
					dst[k] = int8(b)
				}
				continue
			}
			dst := w[at : at+kk]
			src := blk[o*kk*4:]
			for k := range dst {
				dst[k] = math.Float32frombits(binary.LittleEndian.Uint32(src[k*4:]))
			}
		}
	}
	if e.int8 {
		aimQ(e.qwHdr[par], qw[:l.outC*kp], l.outC, kp)
		tensor.PackInt8BInto(e.qpack[par][:tensor.PackedBLen(l.outC, kp)], e.qwHdr[par])
		return
	}
	aim2(e.wHdr[par], w[:l.outC*kp], l.outC, kp)
}

// consume folds panel e.t into the outputs of items [lo, hi), using the
// workspace of the chunk that starts at lo. Each GEMM is the one the nn
// forward uses, split at the panel: conv's skip-zero MatMulIntoWS
// chain, Linear's transposed-B chain, or the exact int32 int8 GEMM.
func (e *Engine) consume(lo, hi int) {
	l := e.cur
	par := e.t & 1
	p0 := e.t * l.cpp * l.kk
	acc := e.t > 0
	for i := lo; i < hi; i++ {
		switch {
		case e.int8:
			w := e.qwHdr[par]
			pb := e.qpack[par][:tensor.PackedBLen(w.Rows, w.Cols)]
			tensor.MatMulInt8TransBPrepackedAcc(e.accBuf[i][:l.ncols*l.outC], e.qcolsHdr[i], p0, pb, w, acc, e.int8WS[lo/e.grain])
		case l.conv == nil:
			tensor.MatMulTransBPanelAccWS(e.outHdr[i], e.colsHdr[i], p0, e.wHdr[par], acc)
		default:
			tensor.MatMulPanelAccWS(e.outHdr[i], e.wHdr[par], e.colsHdr[i], p0, acc, e.scratch[lo/e.grain])
		}
	}
}

// finish completes items [lo, hi) after the last panel: an int8 layer
// dequantizes its accumulators into the output first, then every layer
// adds its bias, in the nn forward's order.
func (e *Engine) finish(lo, hi int) {
	l := e.cur
	var bias []float32
	if l.fc != nil {
		bias = l.fc.Bias.W.Data
	} else if l.conv.UseBias {
		bias = l.conv.Bias.W.Data
	}
	perOut := l.outC * l.ncols
	for i := lo; i < hi; i++ {
		out := e.out.Data[i*perOut : (i+1)*perOut]
		if e.int8 {
			aim2(e.outHdr[i], out, l.outC, l.ncols)
			tensor.DequantizeTransposeInto(e.outHdr[i], e.accBuf[i], l.qscales, e.actScale[i])
		}
		for oc, b := range bias {
			row := out[oc*l.ncols : (oc+1)*l.ncols]
			for j := range row {
				row[j] += b
			}
		}
	}
}

// runBlock streams a residual block in the plaintext block's exact
// evaluation order: full main path, then shortcut, then the fused
// sum+ReLU into an engine-owned buffer.
func (e *Engine) runBlock(bs *blockStep, x *tensor.Tensor) *tensor.Tensor {
	b := bs.b
	main := e.run(bs.conv1, x)
	main = b.BN1.Forward(main, false)
	main = b.Relu1.Forward(main, false)
	main = e.run(bs.conv2, main)
	main = b.BN2.Forward(main, false)
	short := x
	if bs.shortcut != nil {
		short = e.run(bs.shortcut, x)
		short = b.ShortcutBN.Forward(short, false)
	}
	out := ensure4(&bs.out, main.Shape[0], main.Shape[1], main.Shape[2], main.Shape[3])
	for i := range out.Data {
		v := main.Data[i] + short.Data[i]
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// ensure2/ensure4 are ensureShaped for engine-owned outputs, written
// without variadics so the warm path builds no shape slices. They are
// grow-only on capacity: once an engine has run at its widest batch,
// narrower batches re-slice the same storage instead of reallocating,
// so a serving engine that mixes batch sizes stays allocation-free.
// Safe because every engine-owned output is fully overwritten each
// forward (first-panel GEMMs run with acc=false, int8 dequantization
// assigns every element, runBlock assigns every element).
func ensure2(ws **tensor.Tensor, a, b int) *tensor.Tensor {
	t := *ws
	if t == nil || cap(t.Data) < a*b {
		t = tensor.New(a, b)
		*ws = t
		return t
	}
	t.Data = t.Data[:a*b]
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b)
	return t
}

func ensure4(ws **tensor.Tensor, a, b, c, d int) *tensor.Tensor {
	t := *ws
	if t == nil || cap(t.Data) < a*b*c*d {
		t = tensor.New(a, b, c, d)
		*ws = t
		return t
	}
	t.Data = t.Data[:a*b*c*d]
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b, c, d)
	return t
}

// aim2/aim3 re-point a reusable tensor header at a storage slice.
func aim2(t *tensor.Tensor, data []float32, a, b int) {
	t.Data = data
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b)
}

func aim3(t *tensor.Tensor, data []float32, a, b, c int) {
	t.Data = data
	t.Shape = t.Shape[:0]
	t.Shape = append(t.Shape, a, b, c)
}

// aimQ re-points a reusable int8 matrix header at a storage slice.
func aimQ(m *tensor.Int8Mat, data []int8, rows, cols int) {
	m.Data = data
	m.Rows = rows
	m.Cols = cols
}
