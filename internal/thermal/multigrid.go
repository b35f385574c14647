// Geometric multigrid schedule (SolveOptions.MethodMultigrid). The die
// stack's discretization is extremely anisotropic: micron-thin layers
// give vertical conductances orders of magnitude above the lateral
// ones, so pointwise smoothing cannot work, and plain SOR needs
// hundreds of alternating-direction cycles. Multigrid attacks the two
// remaining slow error families separately:
//
//   - Tightly coupled z columns are solved *exactly* by the smoother:
//     red-black z-line Gauss-Seidel (a tridiagonal Thomas solve per
//     lateral cell, checkerboard-colored so same-color columns share
//     no lateral face). Within one color every column is independent,
//     which makes the sweep order-free, trivially deterministic, and
//     amenable to a cache-blocked tile layout.
//   - Smooth lateral error is eliminated on a hierarchy of laterally
//     coarsened grids (the z discretization is never coarsened — it is
//     already handled exactly): finite-volume full-weighting
//     restriction of the residual over each 2x2 lateral aggregate,
//     re-aggregated interface conductances for the coarse operators,
//     bilinear (per-z-plane, so trilinear degenerated along the
//     uncoarsened axis) prolongation of the correction, and a
//     relaxed-to-stagnation solve on the coarsest level.
//
// One V-cycle costs a small constant number of z-line sweeps (the
// lateral coarsening gives a geometric 1 + 1/4 + 1/16 + ... work sum),
// and contracts the error by a grid-independent factor, so solves
// converge in tens of cycles where line-SOR needs hundreds to
// thousands. Everything the answer depends on — conductances, power
// rasterization, boundary conditions, the energy-imbalance convergence
// test — is shared with the line-SOR path, so the two methods are
// interchangeable within SolveOptions.Tolerance.
//
// The hierarchy is allocated once per Workspace (first multigrid
// solve) and reused by every later solve, retry, transient step, and
// DTM sample; after that warm-up a V-cycle performs zero allocations
// (TestMultigridVCycleAllocs pins this, and the smoother inner loops
// are //stacklint:hotpath-checked). A pooled Workspace keeps only the
// coarse operators between solves and drops the per-level iteration
// buffers (see mgHier.dropBuffers).
package thermal

import (
	"fmt"
	"math"

	"diestack/internal/obs"
)

const (
	// mgCoarsestLateral stops the lateral coarsening: levels are added
	// while both lateral dimensions exceed it.
	mgCoarsestLateral = 4
	// mgPreSweeps / mgPostSweeps are the red-black z-line smoothing
	// sweeps before restriction and after prolongation.
	mgPreSweeps  = 1
	mgPostSweeps = 1
	// mgCoarseMaxSweeps bounds the coarsest-level relaxation;
	// mgCoarseReduction is the per-solve delta reduction that ends it
	// early (the coarsest grid is a few lateral cells, so this is
	// cheap either way).
	mgCoarseMaxSweeps = 64
	mgCoarseReduction = 1e-4
	// mgTile is the lateral tile edge of the cache-blocked smoother
	// sweep: neighbor columns revisit each other's cache lines while
	// they are still resident.
	mgTile = 16
)

// mgLevel is one grid of the multigrid hierarchy. Level 0 aliases the
// fine solver's arrays (temperatures, sources, conductances, capacity
// terms), so smoothing the fine level *is* iterating the real system;
// coarser levels own their aggregated copies and solve the error
// equation A·e = r, which has zero ambient (the boundary data lives in
// the restricted residual). The operator (conductances, diagStatic) is
// fixed once built; cod, t, q, and r are iteration buffers, nil while
// dropped.
type mgLevel struct {
	nx, ny, nz int
	gv         []float64 // vertical conductance cell -> cell below (z+1)
	gxr        []float64 // lateral conductance cell -> x+1
	gyu        []float64 // lateral conductance cell -> y+1
	gTop, gBot []float64 // boundary conductance per lateral cell
	diagStatic []float64 // sum of incident conductances per cell
	cod        []float64 // heat capacity / dt per cell (zero for steady)
	t          []float64 // unknown: temperature (level 0) or error correction
	q          []float64 // right-hand side: sources (level 0) or restricted residual
	r          []float64 // residual scratch
	amb        float64   // ambient boundary temperature (0 on coarse levels)
	sc         *lineScratch
}

func (lv *mgLevel) idx(z, y, x int) int { return (z*lv.ny+y)*lv.nx + x }

// computeDiag fills diagStatic from the level's conductances: the full
// diagonal of the steady operator (the capacity term rides separately
// in cod so transient solves can rebuild it per time step).
func (lv *mgLevel) computeDiag() {
	nx, ny, nz := lv.nx, lv.ny, lv.nz
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := lv.idx(z, y, x)
				d := 0.0
				if z > 0 {
					d += lv.gv[lv.idx(z-1, y, x)]
				} else {
					d += lv.gTop[y*nx+x]
				}
				if z < nz-1 {
					d += lv.gv[i]
				} else {
					d += lv.gBot[y*nx+x]
				}
				if x > 0 {
					d += lv.gxr[i-1]
				}
				if x < nx-1 {
					d += lv.gxr[i]
				}
				if y > 0 {
					d += lv.gyu[i-nx]
				}
				if y < ny-1 {
					d += lv.gyu[i]
				}
				lv.diagStatic[i] = d
			}
		}
	}
}

// relaxColumn solves the z-column at (y, x) exactly with lateral
// neighbors fixed — one tridiagonal Thomas solve — and writes the
// (possibly relaxed) update back, returning the column's largest
// temperature change. This is the multigrid smoother kernel; at
// omega 1 (the multigrid default) the column lands exactly on its
// line-Gauss-Seidel value.
//
//stacklint:hotpath
func (lv *mgLevel) relaxColumn(sc *lineScratch, y, x int, omega float64) float64 {
	nx, ny, nz := lv.nx, lv.ny, lv.nz
	nyx := ny * nx
	amb := lv.amb
	for z := 0; z < nz; z++ {
		i := (z*ny+y)*nx + x
		d := lv.diagStatic[i] + lv.cod[i]
		r := lv.q[i]
		if z > 0 {
			sc.sub[z] = -lv.gv[i-nyx]
		} else {
			sc.sub[z] = 0
			r += lv.gTop[y*nx+x] * amb
		}
		if z < nz-1 {
			sc.sup[z] = -lv.gv[i]
		} else {
			sc.sup[z] = 0
			r += lv.gBot[y*nx+x] * amb
		}
		if x > 0 {
			r += lv.gxr[i-1] * lv.t[i-1]
		}
		if x < nx-1 {
			r += lv.gxr[i] * lv.t[i+1]
		}
		if y > 0 {
			r += lv.gyu[i-nx] * lv.t[i-nx]
		}
		if y < ny-1 {
			r += lv.gyu[i] * lv.t[i+nx]
		}
		sc.diag[z] = d
		sc.rhs[z] = r
	}
	sc.thomas(nz)
	md := 0.0
	for z := 0; z < nz; z++ {
		i := (z*ny+y)*nx + x
		nv := lv.t[i] + omega*(sc.dp[z]-lv.t[i])
		if dlt := math.Abs(nv - lv.t[i]); dlt > md {
			md = dlt
		}
		lv.t[i] = nv
	}
	return md
}

// smoothColor relaxes every z-column of one checkerboard color
// ((x+y) mod 2 == color) in a cache-blocked tile order. Same-color
// columns share no lateral face, so they are mutually independent and
// the tile order changes nothing about the result — it only keeps
// neighboring columns' cache lines resident. Returns the sweep's
// largest temperature change.
//
//stacklint:hotpath
func (lv *mgLevel) smoothColor(color int, omega float64) float64 {
	nx, ny := lv.nx, lv.ny
	sc := lv.sc
	maxDelta := 0.0
	for yt := 0; yt < ny; yt += mgTile {
		yHi := yt + mgTile
		if yHi > ny {
			yHi = ny
		}
		for xt := 0; xt < nx; xt += mgTile {
			xHi := xt + mgTile
			if xHi > nx {
				xHi = nx
			}
			for y := yt; y < yHi; y++ {
				for x := xt + (((xt + y) & 1) ^ color); x < xHi; x += 2 {
					if d := lv.relaxColumn(sc, y, x, omega); d > maxDelta {
						maxDelta = d
					}
				}
			}
		}
	}
	return maxDelta
}

// smoothSweep runs one full red-black smoothing sweep (both colors)
// and returns the largest temperature change.
//
//stacklint:hotpath
func (lv *mgLevel) smoothSweep(omega float64) float64 {
	d0 := lv.smoothColor(0, omega)
	d1 := lv.smoothColor(1, omega)
	if d1 > d0 {
		return d1
	}
	return d0
}

// residual fills lv.r with the pointwise defect q - A·t (watts per
// cell), including the convective boundary terms.
//
//stacklint:hotpath
func (lv *mgLevel) residual() {
	nx, ny, nz := lv.nx, lv.ny, lv.nz
	nyx := ny * nx
	amb := lv.amb
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := (z*ny+y)*nx + x
				r := lv.q[i] - (lv.diagStatic[i]+lv.cod[i])*lv.t[i]
				if z > 0 {
					r += lv.gv[i-nyx] * lv.t[i-nyx]
				} else {
					r += lv.gTop[y*nx+x] * amb
				}
				if z < nz-1 {
					r += lv.gv[i] * lv.t[i+nyx]
				} else {
					r += lv.gBot[y*nx+x] * amb
				}
				if x > 0 {
					r += lv.gxr[i-1] * lv.t[i-1]
				}
				if x < nx-1 {
					r += lv.gxr[i] * lv.t[i+1]
				}
				if y > 0 {
					r += lv.gyu[i-nx] * lv.t[i-nx]
				}
				if y < ny-1 {
					r += lv.gyu[i] * lv.t[i+nx]
				}
				lv.r[i] = r
			}
		}
	}
}

// solveCoarsest relaxes the level to stagnation: red-black z-line
// sweeps until the per-sweep delta has dropped by mgCoarseReduction
// from the first sweep (or mgCoarseMaxSweeps). On a lateral grid of a
// few cells this is effectively a direct solve at negligible cost.
func (lv *mgLevel) solveCoarsest(omega float64) uint64 {
	var d0 float64
	for s := 1; s <= mgCoarseMaxSweeps; s++ {
		d := lv.smoothSweep(omega)
		if s == 1 {
			d0 = d
		}
		if d == 0 || d <= mgCoarseReduction*d0 || !isFinite(d) {
			return uint64(s)
		}
	}
	return mgCoarseMaxSweeps
}

// coarseDim halves a lateral dimension (rounding up, so odd sizes
// coarsen too); dimensions at or below mgCoarsestLateral stay.
func coarseDim(n int) int {
	if n > mgCoarsestLateral {
		return (n + 1) / 2
	}
	return n
}

// fineLo returns the first fine index covered by coarse index c, and
// fineHi the last (a coarse cell covers fine {2c, 2c+1}, clipped at an
// odd edge).
func fineLo(c int) int { return 2 * c }

func fineHi(c, n int) int {
	hi := 2*c + 1
	if hi > n-1 {
		hi = n - 1
	}
	return hi
}

// coarsen builds the next-coarser level from f by finite-volume
// aggregation of 2x2 lateral cell groups: conductances crossing a
// coarse interface are the sums of the fine conductances crossing it,
// boundary conductances aggregate the same way, and conductances
// interior to an aggregate drop out (they connect cells that merged).
// The z discretization is kept as is. The result is the same M-matrix
// family as the fine operator, so the smoother and the recursion apply
// unchanged.
func coarsen(f *mgLevel) *mgLevel {
	nxc, nyc := coarseDim(f.nx), coarseDim(f.ny)
	nz := f.nz
	cells := nz * nyc * nxc
	c := &mgLevel{
		nx: nxc, ny: nyc, nz: nz,
		gv:         make([]float64, cells),
		gxr:        make([]float64, cells),
		gyu:        make([]float64, cells),
		gTop:       make([]float64, nyc*nxc),
		gBot:       make([]float64, nyc*nxc),
		diagStatic: make([]float64, cells),
		amb:        0,
		sc:         newLineScratch(nz),
	}
	for Y := 0; Y < nyc; Y++ {
		yLo, yHi := fineLo(Y), fineHi(Y, f.ny)
		for X := 0; X < nxc; X++ {
			xLo, xHi := fineLo(X), fineHi(X, f.nx)
			// Boundary conductances: sum over the aggregate's footprint.
			var top, bot float64
			for y := yLo; y <= yHi; y++ {
				for x := xLo; x <= xHi; x++ {
					top += f.gTop[y*f.nx+x]
					bot += f.gBot[y*f.nx+x]
				}
			}
			c.gTop[Y*nxc+X] = top
			c.gBot[Y*nxc+X] = bot
			for z := 0; z < nz; z++ {
				i := c.idx(z, Y, X)
				// Vertical: every fine column in the aggregate crosses the
				// same z interface.
				var gv float64
				for y := yLo; y <= yHi; y++ {
					for x := xLo; x <= xHi; x++ {
						gv += f.gv[f.idx(z, y, x)]
					}
				}
				c.gv[i] = gv
				// Lateral x: the coarse interface X -> X+1 is the fine
				// interface 2X+1 -> 2X+2, crossed once per covered fine
				// row. The face area is the sum of the fine faces, but the
				// coarse cell centers sit twice as far apart, so the
				// conductance is the fine sum halved (summing alone would
				// leave the coarse operator laterally stiff by 2x per
				// level, compounding into grid-dependent convergence).
				if X < nxc-1 {
					var g float64
					for y := yLo; y <= yHi; y++ {
						g += f.gxr[f.idx(z, y, 2*X+1)]
					}
					c.gxr[i] = g / 2
				}
				if Y < nyc-1 {
					var g float64
					for x := xLo; x <= xHi; x++ {
						g += f.gyu[f.idx(z, 2*Y+1, x)]
					}
					c.gyu[i] = g / 2
				}
			}
		}
	}
	c.computeDiag()
	return c
}

// restrictResidual transfers the fine residual to the coarse right-hand
// side by full weighting over each lateral aggregate — for this
// finite-volume discretization the residual is a power defect in
// watts, so the aggregate's defect is the exact sum of its members'.
// The coarse unknown (the error correction) starts at zero.
//
//stacklint:hotpath
func restrictResidual(f, c *mgLevel) {
	for i := range c.q {
		c.q[i] = 0
		c.t[i] = 0
	}
	for z := 0; z < f.nz; z++ {
		for y := 0; y < f.ny; y++ {
			Y := y / 2
			for x := 0; x < f.nx; x++ {
				c.q[(z*c.ny+Y)*c.nx+x/2] += f.r[(z*f.ny+y)*f.nx+x]
			}
		}
	}
}

// restrictCod transfers the capacity/dt term to the coarse level by
// the same aggregation (capacities are extensive, so they sum). Called
// once per solve attempt — steady solves restrict zeros, transient
// solves pick up the current dt.
func restrictCod(f, c *mgLevel) {
	for i := range c.cod {
		c.cod[i] = 0
	}
	for z := 0; z < f.nz; z++ {
		for y := 0; y < f.ny; y++ {
			Y := y / 2
			for x := 0; x < f.nx; x++ {
				c.cod[(z*c.ny+Y)*c.nx+x/2] += f.cod[(z*f.ny+y)*f.nx+x]
			}
		}
	}
}

// prolongAdd interpolates the coarse correction bilinearly in the
// lateral plane (identity along z, which is never coarsened — the
// trilinear stencil degenerated along the exact axis) and adds it to
// the fine unknown. Cell-centered weights: 3/4 toward the parent cell,
// 1/4 toward the lateral neighbor on each axis, collapsing to the
// parent at the domain edge.
//
//stacklint:hotpath
func prolongAdd(c, f *mgLevel) {
	nx, ny, nz := f.nx, f.ny, f.nz
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			Y := y / 2
			Yn := Y + ((y&1)<<1 - 1) // y even: Y-1, y odd: Y+1
			if Yn < 0 || Yn > c.ny-1 {
				Yn = Y
			}
			rowP := (z*c.ny + Y) * c.nx
			rowN := (z*c.ny + Yn) * c.nx
			for x := 0; x < nx; x++ {
				X := x / 2
				Xn := X + ((x&1)<<1 - 1)
				if Xn < 0 || Xn > c.nx-1 {
					Xn = X
				}
				e := 0.5625*c.t[rowP+X] + 0.1875*(c.t[rowP+Xn]+c.t[rowN+X]) + 0.0625*c.t[rowN+Xn]
				f.t[(z*ny+y)*nx+x] += e
			}
		}
	}
}

// mgHier is a Workspace's multigrid hierarchy: built once from the
// solver's discretization on the first multigrid solve, reused by
// every solve after that. Level 0 aliases the solver's arrays
// (rebound by ensureBuffers before each solve), so the hierarchy
// always iterates the workspace's current sources and capacity terms.
type mgHier struct {
	levels []*mgLevel
	// tPrev snapshots the fine temperatures before each V-cycle so the
	// per-cycle max delta (the stagnation half of the convergence test)
	// covers the whole cycle including the constant-mode shift.
	tPrev []float64
	// sweepNames are the per-level obs counter names (prebuilt so
	// publishing never formats on a solve path).
	sweepNames []string
	// sweeps and cycles tally the current solve attempt, published via
	// publish at the end of the attempt.
	sweeps []uint64
	cycles uint64
}

// newMGHier builds the hierarchy for sv's discretization; its
// iteration buffers come from ensureBuffers.
func newMGHier(sv *solver) *mgHier {
	cells := sv.nz * sv.ny * sv.nx
	fine := &mgLevel{
		nx: sv.nx, ny: sv.ny, nz: sv.nz,
		gv: sv.gv, gxr: sv.gxr, gyu: sv.gyu,
		gTop: sv.gTop, gBot: sv.gBot,
		diagStatic: make([]float64, cells),
		amb:        sv.s.AmbientC,
		sc:         newLineScratch(sv.nz),
	}
	fine.computeDiag()
	levels := []*mgLevel{fine}
	for {
		last := levels[len(levels)-1]
		if coarseDim(last.nx) == last.nx || coarseDim(last.ny) == last.ny {
			break
		}
		levels = append(levels, coarsen(last))
	}
	names := make([]string, len(levels))
	for i := range names {
		names[i] = fmt.Sprintf("thermal_mg_sweeps_l%d", i)
	}
	return &mgHier{
		levels:     levels,
		sweepNames: names,
		sweeps:     make([]uint64, len(levels)),
	}
}

// ensureBuffers binds the fine level to the solver's current buffers
// and allocates the hierarchy's own iteration buffers if they are
// absent: the fine residual, tPrev, and each coarse level's t, q, r,
// and cod. Every solve attempt overwrites them before reading, so
// reallocated buffers give the same field bit for bit.
func (h *mgHier) ensureBuffers(sv *solver) {
	fine := h.levels[0]
	fine.t, fine.q, fine.cod = sv.t, sv.q, sv.capOverDt
	if h.tPrev != nil {
		return
	}
	h.tPrev = make([]float64, len(sv.t))
	fine.r = make([]float64, len(sv.t))
	for _, lv := range h.levels[1:] {
		cells := len(lv.diagStatic)
		lv.t = make([]float64, cells)
		lv.q = make([]float64, cells)
		lv.r = make([]float64, cells)
		lv.cod = make([]float64, cells)
	}
}

// dropBuffers releases every iteration buffer ensureBuffers provides,
// and the fine level's aliases of the solver's, keeping the operators.
func (h *mgHier) dropBuffers() {
	h.tPrev = nil
	for _, lv := range h.levels {
		lv.t, lv.q, lv.r, lv.cod = nil, nil, nil, nil
	}
}

// beginSolve prepares the hierarchy for one solve attempt: restrict
// the (possibly transient) capacity terms down the hierarchy and reset
// the attempt's tallies.
func (h *mgHier) beginSolve() {
	for l := 1; l < len(h.levels); l++ {
		restrictCod(h.levels[l-1], h.levels[l])
	}
	for i := range h.sweeps {
		h.sweeps[i] = 0
	}
	h.cycles = 0
}

// vcycle runs one V-cycle: pre-smooth / restrict down the hierarchy,
// relax the coarsest level to stagnation, prolong / post-smooth back
// up. omega relaxes the smoother's line updates (1 = exact line
// Gauss-Seidel, the multigrid default).
func (h *mgHier) vcycle(omega float64) {
	n := len(h.levels)
	for l := 0; l < n-1; l++ {
		lv := h.levels[l]
		for s := 0; s < mgPreSweeps; s++ {
			lv.smoothSweep(omega)
		}
		h.sweeps[l] += mgPreSweeps
		lv.residual()
		restrictResidual(lv, h.levels[l+1])
	}
	h.sweeps[n-1] += h.levels[n-1].solveCoarsest(omega)
	for l := n - 2; l >= 0; l-- {
		lv := h.levels[l]
		prolongAdd(h.levels[l+1], lv)
		for s := 0; s < mgPostSweeps; s++ {
			lv.smoothSweep(omega)
		}
		h.sweeps[l] += mgPostSweeps
	}
	h.cycles++
}

// publish records the attempt's V-cycle and per-level sweep tallies.
// A nil registry costs nothing.
func (h *mgHier) publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("thermal_mg_cycles").Add(h.cycles)
	for i, name := range h.sweepNames {
		reg.Counter(name).Add(h.sweeps[i])
	}
}

// maxAbsDiff returns the largest |a[i]-b[i]|.
//
//stacklint:hotpath
func maxAbsDiff(a, b []float64) float64 {
	md := 0.0
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > md {
			md = d
		}
	}
	return md
}
