//go:build !amd64

package dvbs2

// filter is filterGo: the SSE2 kernel is amd64's (kernels_amd64.go).
func (f *FIR) filter(x []complex128, lo, hi int, dst []complex128, at, step int) {
	f.filterGo(x, lo, hi, dst, at, step)
}

// phasors sets dst[i] = phasor(args[i]) for every i < len(args).
func phasors(dst []complex128, args []float64) {
	for i, a := range args {
		dst[i] = phasor(a)
	}
}
