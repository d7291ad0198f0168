package dvbs2

// The amd64 kernels (filter_amd64.s, phasor_amd64.s) compute the same bits
// as filterGo and math.Sincos with SSE2's two-lane instructions. Assembly
// has no bounds checks: each wrapper checks every index the kernel touches
// before the call.

//go:noescape
func filterSSE2(dst, x *complex128, rt *float64, ntaps, nout, step int)

//go:noescape
func sincosPairs(dst *complex128, args *float64, n int) int

// filter is filterGo computed by filterSSE2.
func (f *FIR) filter(x []complex128, lo, hi int, dst []complex128, at, step int) {
	n, rt, d := hi-lo, f.rtaps, f.d
	if n <= 0 || len(rt) == 0 {
		f.filterGo(x, lo, hi, dst, at, step)
		return
	}
	// The windows span x[lo−d] … x[hi−1−d+len(rt)−1]; the outputs go to
	// dst[at], dst[at+step], …, dst[at+(n−1)·step].
	_, _ = x[lo-d], x[hi-d+len(rt)-2]
	_, _ = dst[at], dst[at+(n-1)*step]
	filterSSE2(&dst[at], &x[lo-d], &rt[0], len(rt), n, step)
}

// phasors sets dst[i] = phasor(args[i]) for every i < len(args). Past the
// first pair of arguments sincosPairs refuses, math.Sincos finishes.
func phasors(dst []complex128, args []float64) {
	i := 0
	if len(args) >= 2 {
		_ = dst[len(args)-1]
		i = sincosPairs(&dst[0], &args[0], len(args))
	}
	for ; i < len(args); i++ {
		dst[i] = phasor(args[i])
	}
}
