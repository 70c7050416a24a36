package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts the benchmark to a single CPU: every thread this
// process has now, and by inheritance every thread and every child
// process it starts afterwards — the program under test included, whose
// Go runtime then sizes GOMAXPROCS to one.
//
// The machines this runs on are small shared VMs. With the server on one
// core and its client on another, every request waits for two cross-core
// wake-ups, whose cost in a guest depends on what the host is doing;
// with both on one core a closed loop loses nothing (only one side of it
// is ever runnable) and that source of noise is gone. The price is that
// nothing here measures parallel speed-up.
//
// It picks the highest-numbered CPU the process may use (CPU 0 tends to
// take the machine's interrupts) and returns it. On failure the caller
// goes on unpinned (threads already moved stay where they are, which is
// harmless).
func pinToOneCPU() (int, error) {
	var have cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(have), uintptr(unsafe.Pointer(&have))); errno != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for word, bits := range have {
		for bit := 0; bit < 64; bit++ {
			if bits&(1<<bit) != 0 {
				cpu = word*64 + bit
			}
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("sched_getaffinity returned an empty mask")
	}
	var want cpuMask
	want[cpu/64] = 1 << (cpu % 64)
	// Twice: a thread created by a not-yet-pinned thread during the first
	// pass is caught by the second; one created by a pinned thread
	// inherits the mask.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(want), uintptr(unsafe.Pointer(&want)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread just exited
				return -1, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	// One CPU, one running goroutine: a second P would only have the
	// kernel time-slice the load generator against itself.
	runtime.GOMAXPROCS(1)
	return cpu, nil
}
