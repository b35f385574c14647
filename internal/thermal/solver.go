package thermal

import (
	"context"
	"math"

	"diestack/internal/obs"
)

// SolveOptions tunes the solver. Zero values select the defaults.
type SolveOptions struct {
	// Method selects the iteration schedule: MethodMultigrid (what
	// MethodDefault resolves to; V-cycles, typically an order of
	// magnitude fewer cycles than line-SOR on fine grids) or
	// MethodLineSOR (the bit-compatibility baseline with releases
	// before multigrid became the default; within tolerance of
	// multigrid, not bit-identical to it). Unknown values are rejected
	// with a *MethodError wrapping ErrBadMethod.
	Method Method
	// MaxCycles bounds the number of iteration cycles (default 4000).
	// One cycle is a z-, x-, and y-line sweep for MethodLineSOR, or
	// one V-cycle for MethodMultigrid.
	MaxCycles int
	// Tolerance is the convergence threshold: the solution is accepted
	// when the global energy imbalance |heat out - power in| drops
	// below Tolerance times the injected power AND the per-cycle
	// maximum temperature change is below 1e-4 K (default 1e-3).
	Tolerance float64
	// Omega relaxes the line updates, in (0,2). The default is
	// method-aware: 1.8 (over-relaxation) for MethodLineSOR, 1.0
	// (exact line Gauss-Seidel smoothing) for MethodMultigrid. Values
	// at or above 2 make the iteration diverge; the solver detects the
	// blow-up and retries on the recovery ladder (see MaxRecoveries).
	Omega float64
	// MaxRecoveries bounds the damped-relaxation restarts attempted
	// after a detected divergence (NaN/Inf or sustained residual
	// growth). Zero selects the default (2); negative disables recovery
	// so a divergence fails immediately with ErrDiverged.
	MaxRecoveries int
	// Parallelism is not read by the solver.
	//
	// Deprecated: ignored; solves are serial.
	Parallelism int
	// Obs, when non-nil, receives solver metrics (thermal_solves,
	// thermal_sweeps, thermal_divergence_retries counters; thermal_peak_c
	// and thermal_residual gauges) and a "thermal/solve" span per solve.
	// A nil registry costs nothing.
	Obs *obs.Registry
}

// defaultSteadyOmega is the line-SOR over-relaxation default for steady
// solves; it also anchors the multigrid→damped-SOR fallback ladder (a
// fallback restarts from dampOmega(defaultSteadyOmega), not from the
// multigrid smoother's factor).
const defaultSteadyOmega = 1.8

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Method == MethodDefault {
		o.Method = MethodMultigrid
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 4000
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-3
	}
	if o.Omega == 0 {
		if o.Method == MethodMultigrid {
			o.Omega = 1.0
		} else {
			o.Omega = defaultSteadyOmega
		}
	}
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = 2
	}
	if o.MaxRecoveries < 0 {
		o.MaxRecoveries = 0
	}
	return o
}

// maxCellDZ subdivides thick layers so vertical gradients inside the
// heat sink and board are resolved.
const maxCellDZ = 1e-3

// Field is a solved steady-state temperature distribution. It owns its
// temperature array (copied out of the solver), so it stays valid after
// the Workspace that produced it is reused.
type Field struct {
	stack *Stack
	// zOfLayer[i] lists the z-cell indices belonging to stack layer i.
	zOfLayer [][]int
	nz       int
	t        []float64 // [z][y][x] flattened
	sweeps   int
	// recoveries counts the damped-relaxation restarts that were needed
	// to reach this solution (0 for a clean solve).
	recoveries int
	// Boundary conductances retained for HeatOut.
	gTop, gBot []float64 // per lateral cell
}

// lineScratch is the tridiagonal assembly/solve scratch for one line.
type lineScratch struct {
	sub, diag, sup, rhs, cp, dp []float64
}

func newLineScratch(n int) *lineScratch {
	return &lineScratch{
		sub: make([]float64, n), diag: make([]float64, n), sup: make([]float64, n),
		rhs: make([]float64, n), cp: make([]float64, n), dp: make([]float64, n),
	}
}

// thomas solves the assembled tridiagonal system of length n into dp.
func (sc *lineScratch) thomas(n int) {
	sc.cp[0] = sc.sup[0] / sc.diag[0]
	sc.dp[0] = sc.rhs[0] / sc.diag[0]
	for i := 1; i < n; i++ {
		m := sc.diag[i] - sc.sub[i]*sc.cp[i-1]
		sc.cp[i] = sc.sup[i] / m
		sc.dp[i] = (sc.rhs[i] - sc.sub[i]*sc.dp[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		sc.dp[i] -= sc.cp[i] * sc.dp[i+1]
	}
}

// solver holds the discretized system. The discretization (grid,
// conductances, capacities) is built once by newSolver. The iteration
// buffers (baseQ, q, t, tOld, capOverDt) are allocated by
// ensureBuffers and fully reinitialized by reset, so one solver serves
// many solves, retries, and transient steps; a pooled solver drops
// them between solves (dropBuffers) and gets them back on the next.
type solver struct {
	s          *Stack
	omega      float64
	nx, ny, nz int
	gv         []float64 // vertical conductance cell -> cell below (z+1)
	gxr        []float64 // lateral conductance cell -> x+1
	gyu        []float64 // lateral conductance cell -> y+1
	gTop, gBot []float64 // boundary conductance per lateral cell
	// cellCap is each cell's heat capacity in J/K.
	cellCap []float64
	sc      *lineScratch // sized to the longest axis

	// Iteration buffers, nil while dropped.
	baseQ []float64 // rasterized heat source per cell, W
	q     []float64 // working right-hand side (baseQ, or the implicit-Euler RHS)
	t     []float64
	tOld  []float64 // previous-step temperatures during transient stepping
	// capOverDt holds cellCap/dt during transient stepping (all zero
	// for steady solves, where it drops out of the equations).
	capOverDt []float64

	// z discretization retained so power maps can be re-rasterized on
	// every reset (power mutations between solves are picked up).
	zLayer   []int     // z-cell -> stack layer index
	srcScale []float64 // per-z fraction of the layer's power map

	zOfLayer   [][]int
	totalPower float64
}

func (sv *solver) idx(z, y, x int) int { return (z*sv.ny+y)*sv.nx + x }

// Solve computes the steady-state temperature field of the stack on
// the schedule opt.Method selects: geometric multigrid by default, or
// an alternating-direction line solver (tridiagonal Thomas solves
// along z, then x, then y lines, iterated to convergence). Die stacks
// are strongly anisotropic — micron-thin layers give enormous vertical
// conductances, and the thick copper sink gives enormous lateral
// ones — so both schedules relax whole lines rather than points.
// Convergence is accepted on global energy balance, not just per-cycle
// stagnation.
//
// A solve that exhausts its cycle budget without meeting tolerance
// returns the partial field together with a *ConvergenceError wrapping
// ErrNotConverged. A solve whose iteration blows up (NaN/Inf residual
// or sustained residual growth) is restarted with a damped relaxation
// factor up to MaxRecoveries times before giving up with a
// *ConvergenceError wrapping ErrDiverged.
//
// Each call discretizes the stack from scratch; callers solving the
// same geometry repeatedly should keep a Workspace instead.
//
// Cancellation is cooperative: the context is checked between
// cycles, and ctx.Err() is returned as soon as the context is done.
func Solve(ctx context.Context, s *Stack, opt SolveOptions) (*Field, error) {
	w, err := NewWorkspace(s)
	if err != nil {
		return nil, err
	}
	return w.Solve(ctx, opt)
}

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// relResidual returns the relative global energy imbalance
// |heat out - power in| / power in (the absolute imbalance for a
// passive stack).
func (sv *solver) relResidual() float64 {
	imbalance := math.Abs(sv.heatOut() - sv.totalPower)
	if sv.totalPower == 0 {
		return imbalance
	}
	return imbalance / sv.totalPower
}

// field packages the solver's current state. The temperatures are
// copied so the Field survives solver reuse.
func (sv *solver) field(cycles int) *Field {
	return &Field{
		stack: sv.s, zOfLayer: sv.zOfLayer, nz: sv.nz,
		t:      append([]float64(nil), sv.t...),
		sweeps: cycles,
		gTop:   sv.gTop, gBot: sv.gBot,
	}
}

// newSolver discretizes the stack and precomputes all conductances.
// The result carries no iteration state yet; call reset before solving.
func newSolver(s *Stack) (*solver, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}

	nx, ny := s.Nx, s.Ny
	dx := s.Width / float64(nx)
	dy := s.Height / float64(ny)
	area := dx * dy

	// Build the z discretization.
	var dz []float64
	var zLayer []int // z-cell -> stack layer index
	var srcScale []float64
	zOfLayer := make([][]int, len(s.Layers))
	for li, l := range s.Layers {
		n := int(math.Ceil(l.Thickness / maxCellDZ))
		if n < 1 {
			n = 1
		}
		for c := 0; c < n; c++ {
			zOfLayer[li] = append(zOfLayer[li], len(dz))
			dz = append(dz, l.Thickness/float64(n))
			zLayer = append(zLayer, li)
			srcScale = append(srcScale, 1/float64(n))
		}
	}
	nz := len(dz)
	cells := nz * ny * nx

	sv := &solver{s: s, nx: nx, ny: ny, nz: nz}
	sv.zOfLayer = zOfLayer
	sv.zLayer = zLayer
	sv.srcScale = srcScale
	maxAxis := nz
	if nx > maxAxis {
		maxAxis = nx
	}
	if ny > maxAxis {
		maxAxis = ny
	}
	sv.sc = newLineScratch(maxAxis)

	// Per-cell conductivity honoring bounded layer extents. Boundary
	// cells that partially overlap the extent get an area-weighted
	// conductivity, keeping the material mask consistent with
	// area-weighted power rasterization (otherwise block power can
	// land in a cell classified as near-insulating filler).
	k := make([]float64, cells)
	for z := 0; z < nz; z++ {
		l := s.Layers[zLayer[z]]
		kin := l.Material.Conductivity
		kout := kin
		if l.bounded() {
			kout = l.filler().Conductivity
		}
		for y := 0; y < ny; y++ {
			y0 := float64(y) * dy
			for x := 0; x < nx; x++ {
				kk := kin
				if l.bounded() {
					x0 := float64(x) * dx
					ox := math.Min(l.Extent.X+l.Extent.W, x0+dx) - math.Max(l.Extent.X, x0)
					oy := math.Min(l.Extent.Y+l.Extent.H, y0+dy) - math.Max(l.Extent.Y, y0)
					frac := 0.0
					if ox > 0 && oy > 0 {
						frac = (ox * oy) / (dx * dy)
					}
					kk = frac*kin + (1-frac)*kout
				}
				k[sv.idx(z, y, x)] = kk
			}
		}
	}

	// Precomputed conductances.
	sv.gv = make([]float64, cells)
	sv.gxr = make([]float64, cells)
	sv.gyu = make([]float64, cells)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := sv.idx(z, y, x)
				if z < nz-1 {
					j := sv.idx(z+1, y, x)
					sv.gv[i] = area / (dz[z]/(2*k[i]) + dz[z+1]/(2*k[j]))
				}
				if x < nx-1 {
					j := sv.idx(z, y, x+1)
					sv.gxr[i] = dz[z] * dy / (dx/(2*k[i]) + dx/(2*k[j]))
				}
				if y < ny-1 {
					j := sv.idx(z, y+1, x)
					sv.gyu[i] = dz[z] * dx / (dy/(2*k[i]) + dy/(2*k[j]))
				}
			}
		}
	}
	sv.gTop = make([]float64, ny*nx)
	sv.gBot = make([]float64, ny*nx)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if s.TopH > 0 {
				sv.gTop[y*nx+x] = area / (dz[0]/(2*k[sv.idx(0, y, x)]) + 1/s.TopH)
			}
			if s.BottomH > 0 {
				sv.gBot[y*nx+x] = area / (dz[nz-1]/(2*k[sv.idx(nz-1, y, x)]) + 1/s.BottomH)
			}
		}
	}

	// Heat capacities in J/K per cell.
	sv.cellCap = make([]float64, cells)
	cellArea := dx * dy
	for z := 0; z < nz; z++ {
		capPerCell := s.Layers[zLayer[z]].Material.heatCapacity() * cellArea * dz[z]
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				sv.cellCap[sv.idx(z, y, x)] = capPerCell
			}
		}
	}

	return sv, nil
}

// ensureBuffers allocates the iteration buffers if they are absent (a
// new solver, or a pooled one whose buffers were dropped). Every solve
// reinitializes them in full, so reallocated buffers give the same
// field bit for bit.
func (sv *solver) ensureBuffers() {
	if sv.t != nil {
		return
	}
	cells := len(sv.cellCap)
	sv.baseQ = make([]float64, cells)
	sv.q = make([]float64, cells)
	sv.capOverDt = make([]float64, cells)
	sv.t = make([]float64, cells)
	sv.tOld = make([]float64, cells)
}

// dropBuffers releases the iteration buffers, keeping the
// discretization.
func (sv *solver) dropBuffers() {
	sv.baseQ, sv.q, sv.capOverDt, sv.t, sv.tOld = nil, nil, nil, nil, nil
}

// rasterize rebuilds the per-cell heat sources (W) from the stack's
// current power maps. Called on every reset so power mutations between
// solves on a reused workspace are honored.
func (sv *solver) rasterize() {
	for i := range sv.baseQ {
		sv.baseQ[i] = 0
	}
	sv.totalPower = 0
	for z := 0; z < sv.nz; z++ {
		pm := sv.s.Layers[sv.zLayer[z]].Power
		if pm == nil {
			continue
		}
		scale := sv.srcScale[z]
		for y := 0; y < sv.ny; y++ {
			for x := 0; x < sv.nx; x++ {
				w := pm.At(x, y) * scale
				sv.baseQ[sv.idx(z, y, x)] = w
				sv.totalPower += w
			}
		}
	}
}

// reset reinitializes the iteration state for a fresh solve attempt:
// ambient temperatures, steady sources, no capacity term.
func (sv *solver) reset(omega float64) {
	sv.omega = omega
	sv.rasterize()
	copy(sv.q, sv.baseQ)
	amb := sv.s.AmbientC
	for i := range sv.t {
		sv.t[i] = amb
	}
	for i := range sv.capOverDt {
		sv.capOverDt[i] = 0
	}
}

// heatOut integrates convective outflow at both boundary faces.
func (sv *solver) heatOut() float64 {
	total := 0.0
	amb := sv.s.AmbientC
	for y := 0; y < sv.ny; y++ {
		for x := 0; x < sv.nx; x++ {
			if g := sv.gTop[y*sv.nx+x]; g > 0 {
				total += g * (sv.t[sv.idx(0, y, x)] - amb)
			}
			if g := sv.gBot[y*sv.nx+x]; g > 0 {
				total += g * (sv.t[sv.idx(sv.nz-1, y, x)] - amb)
			}
		}
	}
	return total
}

// zColumn assembles and solves the vertical column at (y, x), lateral
// neighbors fixed, and writes the over-relaxed update back. It returns
// the column's largest temperature change.
func (sv *solver) zColumn(sc *lineScratch, y, x int) float64 {
	nx, ny, nz := sv.nx, sv.ny, sv.nz
	amb := sv.s.AmbientC
	for z := 0; z < nz; z++ {
		i := sv.idx(z, y, x)
		d := sv.capOverDt[i]
		r := sv.q[i]
		if z > 0 {
			g := sv.gv[sv.idx(z-1, y, x)]
			sc.sub[z] = -g
			d += g
		} else {
			sc.sub[z] = 0
			g := sv.gTop[y*nx+x]
			d += g
			r += g * amb
		}
		if z < nz-1 {
			g := sv.gv[i]
			sc.sup[z] = -g
			d += g
		} else {
			sc.sup[z] = 0
			g := sv.gBot[y*nx+x]
			d += g
			r += g * amb
		}
		if x > 0 {
			g := sv.gxr[sv.idx(z, y, x-1)]
			d += g
			r += g * sv.t[sv.idx(z, y, x-1)]
		}
		if x < nx-1 {
			g := sv.gxr[i]
			d += g
			r += g * sv.t[sv.idx(z, y, x+1)]
		}
		if y > 0 {
			g := sv.gyu[sv.idx(z, y-1, x)]
			d += g
			r += g * sv.t[sv.idx(z, y-1, x)]
		}
		if y < ny-1 {
			g := sv.gyu[i]
			d += g
			r += g * sv.t[sv.idx(z, y+1, x)]
		}
		sc.diag[z] = d
		sc.rhs[z] = r
	}
	sc.thomas(nz)
	md := 0.0
	for z := 0; z < nz; z++ {
		i := sv.idx(z, y, x)
		nv := sv.t[i] + sv.omega*(sc.dp[z]-sv.t[i])
		if dlt := math.Abs(nv - sv.t[i]); dlt > md {
			md = dlt
		}
		sv.t[i] = nv
	}
	return md
}

// xLine assembles and solves the x-line at (z, y), other neighbors
// fixed, and writes the over-relaxed update back.
func (sv *solver) xLine(sc *lineScratch, z, y int) float64 {
	nx, ny, nz := sv.nx, sv.ny, sv.nz
	amb := sv.s.AmbientC
	for x := 0; x < nx; x++ {
		i := sv.idx(z, y, x)
		d := sv.capOverDt[i]
		r := sv.q[i]
		if x > 0 {
			g := sv.gxr[sv.idx(z, y, x-1)]
			sc.sub[x] = -g
			d += g
		} else {
			sc.sub[x] = 0
		}
		if x < nx-1 {
			g := sv.gxr[i]
			sc.sup[x] = -g
			d += g
		} else {
			sc.sup[x] = 0
		}
		if z > 0 {
			g := sv.gv[sv.idx(z-1, y, x)]
			d += g
			r += g * sv.t[sv.idx(z-1, y, x)]
		} else {
			g := sv.gTop[y*nx+x]
			d += g
			r += g * amb
		}
		if z < nz-1 {
			g := sv.gv[i]
			d += g
			r += g * sv.t[sv.idx(z+1, y, x)]
		} else {
			g := sv.gBot[y*nx+x]
			d += g
			r += g * amb
		}
		if y > 0 {
			g := sv.gyu[sv.idx(z, y-1, x)]
			d += g
			r += g * sv.t[sv.idx(z, y-1, x)]
		}
		if y < ny-1 {
			g := sv.gyu[i]
			d += g
			r += g * sv.t[sv.idx(z, y+1, x)]
		}
		sc.diag[x] = d
		sc.rhs[x] = r
	}
	sc.thomas(nx)
	md := 0.0
	for x := 0; x < nx; x++ {
		i := sv.idx(z, y, x)
		nv := sv.t[i] + sv.omega*(sc.dp[x]-sv.t[i])
		if dlt := math.Abs(nv - sv.t[i]); dlt > md {
			md = dlt
		}
		sv.t[i] = nv
	}
	return md
}

// yLine assembles and solves the y-line at (z, x), other neighbors
// fixed, and writes the over-relaxed update back.
func (sv *solver) yLine(sc *lineScratch, z, x int) float64 {
	nx, ny, nz := sv.nx, sv.ny, sv.nz
	amb := sv.s.AmbientC
	for y := 0; y < ny; y++ {
		i := sv.idx(z, y, x)
		d := sv.capOverDt[i]
		r := sv.q[i]
		if y > 0 {
			g := sv.gyu[sv.idx(z, y-1, x)]
			sc.sub[y] = -g
			d += g
		} else {
			sc.sub[y] = 0
		}
		if y < ny-1 {
			g := sv.gyu[i]
			sc.sup[y] = -g
			d += g
		} else {
			sc.sup[y] = 0
		}
		if z > 0 {
			g := sv.gv[sv.idx(z-1, y, x)]
			d += g
			r += g * sv.t[sv.idx(z-1, y, x)]
		} else {
			g := sv.gTop[y*nx+x]
			d += g
			r += g * amb
		}
		if z < nz-1 {
			g := sv.gv[i]
			d += g
			r += g * sv.t[sv.idx(z+1, y, x)]
		} else {
			g := sv.gBot[y*nx+x]
			d += g
			r += g * amb
		}
		if x > 0 {
			g := sv.gxr[sv.idx(z, y, x-1)]
			d += g
			r += g * sv.t[sv.idx(z, y, x-1)]
		}
		if x < nx-1 {
			g := sv.gxr[i]
			d += g
			r += g * sv.t[sv.idx(z, y, x+1)]
		}
		sc.diag[y] = d
		sc.rhs[y] = r
	}
	sc.thomas(ny)
	md := 0.0
	for y := 0; y < ny; y++ {
		i := sv.idx(z, y, x)
		nv := sv.t[i] + sv.omega*(sc.dp[y]-sv.t[i])
		if dlt := math.Abs(nv - sv.t[i]); dlt > md {
			md = dlt
		}
		sv.t[i] = nv
	}
	return md
}

// sweepZ solves each vertical column exactly, lateral neighbors fixed.
func (sv *solver) sweepZ() float64 {
	maxDelta := 0.0
	for y := 0; y < sv.ny; y++ {
		for x := 0; x < sv.nx; x++ {
			if d := sv.zColumn(sv.sc, y, x); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}

// sweepX solves each x-line exactly, other neighbors fixed.
func (sv *solver) sweepX() float64 {
	maxDelta := 0.0
	for z := 0; z < sv.nz; z++ {
		for y := 0; y < sv.ny; y++ {
			if d := sv.xLine(sv.sc, z, y); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}

// sweepY solves each y-line exactly, other neighbors fixed.
func (sv *solver) sweepY() float64 {
	maxDelta := 0.0
	for z := 0; z < sv.nz; z++ {
		for x := 0; x < sv.nx; x++ {
			if d := sv.yLine(sv.sc, z, x); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}

// Sweeps returns how many alternating-direction cycles the solution
// took.
func (f *Field) Sweeps() int { return f.sweeps }

// Recoveries returns how many damped-relaxation restarts were needed
// before this solution converged (0 for a clean solve).
func (f *Field) Recoveries() int { return f.recoveries }

// Stack returns the geometry the field was solved on.
func (f *Field) Stack() *Stack { return f.stack }

// Peak returns the hottest temperature anywhere in the stack.
func (f *Field) Peak() float64 {
	peak := math.Inf(-1)
	for _, v := range f.t {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Min returns the coldest temperature anywhere in the stack.
func (f *Field) Min() float64 {
	low := math.Inf(1)
	for _, v := range f.t {
		if v < low {
			low = v
		}
	}
	return low
}

// LayerPeak returns the hottest temperature within stack layer li.
func (f *Field) LayerPeak(li int) float64 {
	nx, ny := f.stack.Nx, f.stack.Ny
	peak := math.Inf(-1)
	for _, z := range f.zOfLayer[li] {
		for i := z * ny * nx; i < (z+1)*ny*nx; i++ {
			if f.t[i] > peak {
				peak = f.t[i]
			}
		}
	}
	return peak
}

// LayerMap returns layer li's lateral temperature map (averaged over
// the layer's z cells), indexed [y][x].
func (f *Field) LayerMap(li int) [][]float64 {
	nx, ny := f.stack.Nx, f.stack.Ny
	zs := f.zOfLayer[li]
	out := make([][]float64, ny)
	for y := range out {
		out[y] = make([]float64, nx)
		for x := 0; x < nx; x++ {
			sum := 0.0
			for _, z := range zs {
				sum += f.t[(z*ny+y)*nx+x]
			}
			out[y][x] = sum / float64(len(zs))
		}
	}
	return out
}

// At returns the temperature of layer li at lateral cell (x, y),
// averaged over the layer's z cells.
func (f *Field) At(li, x, y int) float64 {
	nx, ny := f.stack.Nx, f.stack.Ny
	sum := 0.0
	zs := f.zOfLayer[li]
	for _, z := range zs {
		sum += f.t[(z*ny+y)*nx+x]
	}
	return sum / float64(len(zs))
}

// LayerPeakMinIn returns the coldest temperature of layer li within
// the lateral rectangle r.
func (f *Field) LayerPeakMinIn(li int, r Rect) float64 {
	s := f.stack
	dx := s.Width / float64(s.Nx)
	dy := s.Height / float64(s.Ny)
	low := math.Inf(1)
	for y := 0; y < s.Ny; y++ {
		cy := (float64(y) + 0.5) * dy
		if cy < r.Y || cy >= r.Y+r.H {
			continue
		}
		for x := 0; x < s.Nx; x++ {
			cx := (float64(x) + 0.5) * dx
			if cx < r.X || cx >= r.X+r.W {
				continue
			}
			if v := f.At(li, x, y); v < low {
				low = v
			}
		}
	}
	return low
}

// HeatOut integrates the convective heat flow leaving both boundary
// faces in watts; at steady state it matches the injected power
// (energy conservation).
func (f *Field) HeatOut() float64 {
	s := f.stack
	nx, ny := s.Nx, s.Ny
	total := 0.0
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if g := f.gTop[y*nx+x]; g > 0 {
				total += g * (f.t[(0*ny+y)*nx+x] - s.AmbientC)
			}
			if g := f.gBot[y*nx+x]; g > 0 {
				total += g * (f.t[((f.nz-1)*ny+y)*nx+x] - s.AmbientC)
			}
		}
	}
	return total
}
