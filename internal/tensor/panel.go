package tensor

import (
	"fmt"

	"seal/internal/parallel"
)

// This file holds the panel-accumulate GEMM kernels behind the streaming
// secure-inference engine: a weight matrix arrives in k-slices (panels)
// as it is decrypted, and each panel's contribution is folded into C
// without breaking bit-identity with the one-shot kernels. The rule that
// makes the split exact is that float32 stores are lossless: an element
// of C after panel t holds precisely the prefix of the serial ascending-p
// accumulation chain, so re-loading it as the accumulator seed for panel
// t+1 continues the identical chain — Go mandates float32 rounding per
// operation, and the per-element operation order never changes.

// MatMulPanelAccWS folds one k-panel into C: with acc=false it computes
// C = Apanel × B[p0:p0+kp, :] (overwriting C, panel 0), with acc=true it
// computes C += the same product, continuing each element's accumulation
// from the stored value. Apanel is the packed [m, kp] column slice
// A[:, p0:p0+kp] of a conceptual [m, k] matrix, B the full [k, n] right
// operand. Per element the adds run over p ascending with the same
// av==0 skip as MatMulIntoWS, so a sequence of panel calls in ascending
// p0 covering [0, k) is bit-identical to one MatMulIntoWS(c, A, B).
// panel is the MatMulPanelLen(kp) packing scratch (nil → allocated,
// short → panic, unused above the parallel cutover), as in MatMulIntoWS.
func MatMulPanelAccWS(c, aPanel, b *Tensor, p0 int, acc bool, panel []float32) {
	m, kp := aPanel.Shape[0], aPanel.Shape[1]
	n := b.Shape[1]
	if p0 < 0 || p0+kp > b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulPanelAccWS panel [%d, %d) outside B rows %d", p0, p0+kp, b.Shape[0]))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulPanelAccWS output shape mismatch")
	}
	if panel != nil && len(panel) < kp*matMulPanelCols {
		panic(fmt.Sprintf("tensor: MatMulPanelAccWS panel len %d, need MatMulPanelLen(%d) = %d", len(panel), kp, kp*matMulPanelCols))
	}
	ad, cd := aPanel.Data, c.Data
	bd := b.Data[p0*n:]
	if m*kp*n < minParallelOps || parallel.Workers() == 1 {
		if panel == nil {
			panel = make([]float32, kp*matMulPanelCols)
		}
		matMulRowsAcc(cd, ad, bd, panel, kp, n, 0, m, acc)
		return
	}
	parallel.For(m, 0, func(lo, hi int) {
		p := getPanel(MatMulPanelLen(kp))
		matMulRowsAcc(cd, ad, bd, *p, kp, n, lo, hi, acc)
		chunkPanels.Put(p)
	})
}

// matMulRowsAcc is matMulRows with a seeded accumulator: acc=false
// starts every register block at zero (identical to matMulRows),
// acc=true loads the stored C values first. Blocking, packing, ascending
// p order and the av==0 skip are unchanged, so per element the float
// operation sequence matches the serial reference exactly.
func matMulRowsAcc(cd, ad, bd, panel []float32, k, n, lo, hi int, acc bool) {
	if !acc {
		matMulRows(cd, ad, bd, panel, k, n, lo, hi)
		return
	}
	nb := n &^ (matMulPanelCols - 1)
	for j0 := 0; j0 < nb; j0 += matMulPanelCols {
		pk := panel[: k*matMulPanelCols : k*matMulPanelCols]
		for p := 0; p < k; p++ {
			copy(pk[p*matMulPanelCols:(p+1)*matMulPanelCols], bd[p*n+j0:p*n+j0+matMulPanelCols])
		}
		for i := lo; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			cj := cd[i*n+j0 : i*n+j0+8 : i*n+j0+8]
			c0, c1, c2, c3 := cj[0], cj[1], cj[2], cj[3]
			c4, c5, c6, c7 := cj[4], cj[5], cj[6], cj[7]
			for p, av := range ai {
				if av == 0 {
					continue
				}
				bp := pk[p*8 : p*8+8 : p*8+8]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
				c4 += av * bp[4]
				c5 += av * bp[5]
				c6 += av * bp[6]
				c7 += av * bp[7]
			}
			cj[0], cj[1], cj[2], cj[3] = c0, c1, c2, c3
			cj[4], cj[5], cj[6], cj[7] = c4, c5, c6, c7
		}
	}
	for j := nb; j < n; j++ {
		i0 := lo
		for ; i0+4 <= hi; i0 += 4 {
			a0 := ad[(i0+0)*k : (i0+1)*k : (i0+1)*k]
			a1 := ad[(i0+1)*k : (i0+2)*k : (i0+2)*k]
			a2 := ad[(i0+2)*k : (i0+3)*k : (i0+3)*k]
			a3 := ad[(i0+3)*k : (i0+4)*k : (i0+4)*k]
			c0 := cd[(i0+0)*n+j]
			c1 := cd[(i0+1)*n+j]
			c2 := cd[(i0+2)*n+j]
			c3 := cd[(i0+3)*n+j]
			for p := 0; p < k; p++ {
				bv := bd[p*n+j]
				if av := a0[p]; av != 0 {
					c0 += av * bv
				}
				if av := a1[p]; av != 0 {
					c1 += av * bv
				}
				if av := a2[p]; av != 0 {
					c2 += av * bv
				}
				if av := a3[p]; av != 0 {
					c3 += av * bv
				}
			}
			cd[(i0+0)*n+j] = c0
			cd[(i0+1)*n+j] = c1
			cd[(i0+2)*n+j] = c2
			cd[(i0+3)*n+j] = c3
		}
		for i := i0; i < hi; i++ {
			ai := ad[i*k : (i+1)*k]
			s := cd[i*n+j]
			for p, av := range ai {
				if av == 0 {
					continue
				}
				s += av * bd[p*n+j]
			}
			cd[i*n+j] = s
		}
	}
}

// MatMulTransBPanelAccWS folds one k-panel into C = A×Bᵀ: with
// acc=false it computes C = A[:, p0:p0+kp] × Bpanelᵀ (overwriting C),
// with acc=true it continues each element's accumulation from the
// stored value. A is the full [m, ka] left operand (only columns
// [p0, p0+kp) are read), Bpanel the packed [n, kp] row slice
// B[:, p0:p0+kp] of a conceptual [n, k] matrix. Per element the sum
// runs over p ascending with no zero skip, matching MatMulTransBIntoWS,
// so ascending panels covering [0, ka) are bit-identical to one
// MatMulTransBIntoWS(c, a, B) — the streaming FC forward.
func MatMulTransBPanelAccWS(c, a *Tensor, p0 int, bPanel *Tensor, acc bool) {
	m, ka := a.Shape[0], a.Shape[1]
	n, kp := bPanel.Shape[0], bPanel.Shape[1]
	if p0 < 0 || p0+kp > ka {
		panic(fmt.Sprintf("tensor: MatMulTransBPanelAccWS panel [%d, %d) outside A columns %d", p0, p0+kp, ka))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: MatMulTransBPanelAccWS output shape mismatch")
	}
	ad, bd, cd := a.Data, bPanel.Data, c.Data
	if m*kp*n < minParallelOps || parallel.Workers() == 1 {
		matMulTransBRowsAcc(cd, ad, bd, ka, p0, kp, n, 0, m, acc)
		return
	}
	parallel.For(m, 0, func(lo, hi int) {
		matMulTransBRowsAcc(cd, ad, bd, ka, p0, kp, n, lo, hi, acc)
	})
}

// matMulTransBRowsAcc computes rows [lo, hi) of the panel product with
// strided A access (row stride ka, column offset p0). It uses the
// row-blocked kernel shape of matMulTransBRows throughout — every
// element sums over p ascending with no zero skip, so the per-element
// float order is identical to the one-shot kernel regardless of which
// register blocking that kernel chose.
func matMulTransBRowsAcc(cd, ad, bd []float32, ka, p0, kp, n, lo, hi int, acc bool) {
	for j := 0; j < n; j++ {
		bj := bd[j*kp : (j+1)*kp : (j+1)*kp]
		i0 := lo
		for ; i0+4 <= hi; i0 += 4 {
			a0 := ad[(i0+0)*ka+p0 : (i0+0)*ka+p0+kp : (i0+0)*ka+p0+kp]
			a1 := ad[(i0+1)*ka+p0 : (i0+1)*ka+p0+kp : (i0+1)*ka+p0+kp]
			a2 := ad[(i0+2)*ka+p0 : (i0+2)*ka+p0+kp : (i0+2)*ka+p0+kp]
			a3 := ad[(i0+3)*ka+p0 : (i0+3)*ka+p0+kp : (i0+3)*ka+p0+kp]
			var c0, c1, c2, c3 float32
			if acc {
				c0 = cd[(i0+0)*n+j]
				c1 = cd[(i0+1)*n+j]
				c2 = cd[(i0+2)*n+j]
				c3 = cd[(i0+3)*n+j]
			}
			for p, bv := range bj {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				c2 += a2[p] * bv
				c3 += a3[p] * bv
			}
			cd[(i0+0)*n+j] = c0
			cd[(i0+1)*n+j] = c1
			cd[(i0+2)*n+j] = c2
			cd[(i0+3)*n+j] = c3
		}
		for i := i0; i < hi; i++ {
			ai := ad[i*ka+p0 : i*ka+p0+kp : i*ka+p0+kp]
			var s float32
			if acc {
				s = cd[i*n+j]
			}
			for p, av := range ai {
				s += av * bj[p]
			}
			cd[i*n+j] = s
		}
	}
}
