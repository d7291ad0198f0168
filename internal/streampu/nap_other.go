//go:build !linux

package streampu

import (
	"runtime"
	"time"
)

// nap spins for d, yielding between clock reads: outside Linux the clock has
// no portable sleep finer than the runtime timer, so its goroutine is the
// run's one spinner where every sleeping worker used to be one.
func nap(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		runtime.Gosched()
	}
}
