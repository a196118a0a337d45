package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The machine the benchmark runs on may share its cores with other
// machines, and then its speed drifts: the simulator grid, the same
// deterministic work in every run, has taken 2.4 s in one run and 3.5 s
// in a run five minutes earlier. Every timing would move with it. So the
// benchmark times a fixed piece of reference work, which calls nothing
// of the program under test, at the start of the run and after every
// phase and simulator grid, and expresses each timing of the run at the
// reference speed: a duration is multiplied, and a rate divided,
// by the run's factor, refNominal / (the median of its calibrations).
// The values as measured are printed and recorded beside the normalized
// ones.

const (
	// refNominal is the time the reference work takes at the reference
	// speed: about its median on a 2-vCPU Xeon VM (Go 1.24).
	refNominal = 0.014
	refSamples = 9 // timings per calibration; a calibration is their median
	refChunks  = 4 // pieces of reference work per processor
)

// refBuf is one goroutine's working set for the reference work.
type refBuf struct {
	a, b, c []float32 // refN x refN matrices
	table   [4][256]uint32
	words   []uint32 // table-lookup input, 256 KiB
	stream  []uint64 // 4 MiB, more than the caches hold
	keys    []uint64 // sort input
	scratch []uint64
	sink    uint64
}

const refN = 96

func newRefBuf(seed uint64) *refBuf {
	b := &refBuf{
		a: make([]float32, refN*refN), b: make([]float32, refN*refN), c: make([]float32, refN*refN),
		words: make([]uint32, 64<<10), stream: make([]uint64, 512<<10),
		keys: make([]uint64, 8<<10), scratch: make([]uint64, 8<<10),
	}
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range b.a {
		b.a[i], b.b[i] = float32(next()%1000)/1000, float32(next()%1000)/1000
	}
	for t := range b.table {
		for i := range b.table[t] {
			b.table[t][i] = uint32(next())
		}
	}
	for i := range b.words {
		b.words[i] = uint32(next())
	}
	for i := range b.stream {
		b.stream[i] = next()
	}
	for i := range b.keys {
		b.keys[i] = next()
	}
	return b
}

// work is one piece of the reference work: float multiply-adds, table
// lookups, a stream through memory and a sort, the kinds of work the
// gateway's forwards, its AES decrypt and the simulator do.
func (b *refBuf) work() {
	clear(b.c)
	for i := 0; i < refN; i++ {
		ci := b.c[i*refN : (i+1)*refN]
		for k := 0; k < refN; k++ {
			aik, bk := b.a[i*refN+k], b.b[k*refN:(k+1)*refN]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
	var acc uint32
	for rep := 0; rep < 2; rep++ {
		for _, w := range b.words {
			acc = b.table[0][byte(w)] ^ b.table[1][byte(w>>8)] ^ b.table[2][byte(w>>16)] ^ b.table[3][byte(w>>24)] ^ (acc << 1)
		}
	}
	var sum uint64
	for _, v := range b.stream {
		sum += v ^ sum>>3
	}
	copy(b.scratch, b.keys)
	slices.Sort(b.scratch)
	sum += b.scratch[len(b.scratch)/2]
	b.sink += uint64(acc) + sum + uint64(b.c[refN+1])
}

// refTimer calibrates the machine's speed with the reference work: one
// goroutine per processor takes pieces of it until none are left, so a
// processor slowed for a moment slows a calibration only by its share,
// as the gateway's and the simulator's goroutines are shared out.
type refTimer struct {
	bufs []*refBuf
	All  []float64 `json:"calibrations_s"` // every calibration of the run
}

func newRefTimer() *refTimer {
	t := &refTimer{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		t.bufs = append(t.bufs, newRefBuf(uint64(i)))
	}
	t.sample() // warm the caches and the code
	t.measure()
	return t
}

// sample times one run of the reference work on every processor.
func (t *refTimer) sample() float64 {
	var wg sync.WaitGroup
	var next atomic.Int32
	pieces := int32(refChunks * len(t.bufs))
	t0 := time.Now()
	for _, b := range t.bufs {
		wg.Add(1)
		go func(b *refBuf) {
			defer wg.Done()
			for next.Add(1) <= pieces {
				b.work()
			}
		}(b)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// measure calibrates once: the median of refSamples timings. It
// collects the garbage first, so that the collector's background work
// does not run beside the reference work.
func (t *refTimer) measure() {
	runtime.GC()
	s := make([]float64, refSamples)
	for i := range s {
		s[i] = t.sample()
	}
	t.All = append(t.All, median(s))
}

// factor is the run's factor: a duration measured in the run times the
// factor is that duration at the reference speed. A single calibration
// catches the machine in a burst now and then, so the factor rests on
// the median of all of them.
func (t *refTimer) factor() float64 { return refNominal / median(t.All) }
