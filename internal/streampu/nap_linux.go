//go:build linux

package streampu

import (
	"syscall"
	"time"
)

// nap sleeps for d on the kernel's high-resolution timer, which ends tens
// of µs late where a runtime timer ends up to a millisecond late. Only the
// clock's goroutine naps, so a run holds at most one thread in this
// syscall. An interrupted nap (EINTR) returns early; the clock re-checks
// its heap after every nap either way.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // EINTR is the only error a valid request can get
}
