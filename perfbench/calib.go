package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a virtual machine the CPU time a fixed
// piece of work takes changes by tens of percent from minute to minute,
// with whatever else the host runs. The benchmark times calibWork — a
// fixed load that runs none of the program's code — next to each
// measurement and scales the measured CPU time by the ratio, so the
// gated figures track the program rather than the host.

// calibNominal is calibWork's CPU time on the host the bounds were set
// on (a 2-vCPU virtual machine), so scaled figures read in its units.
const calibNominal = 5 * time.Millisecond

// Buffers for calibWork, allocated once so that it allocates nothing.
// calibRing is a single cycle through 4 MiB, walked in random order:
// a working set beyond the private caches, like the simulator's.
var (
	calibBuf  = make([]byte, 64<<10)
	calibInts = make([]uint64, 1<<14)
	calibMap  = make(map[uint64]uint64, 1<<12)
	calibRing = func() []uint32 {
		const n = 1 << 20
		perm := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		x := uint64(0x9E3779B97F4A7C15)
		for i := n - 1; i > 0; i-- { // Fisher–Yates with a fixed xorshift
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		ring := make([]uint32, n)
		for i := range perm {
			ring[perm[i]] = perm[(i+1)%n]
		}
		return ring
	}()
)

// calibWork is a fixed amount of CPU work that runs none of the
// program's code: hashing, sorting, map updates and a pointer chase.
func calibWork() uint64 {
	var acc uint64
	p := uint32(0)
	for i := 0; i < 1<<14; i++ {
		p = calibRing[p]
	}
	acc += uint64(p)
	for i := 0; i < 4; i++ {
		calibBuf[i] = byte(i)
		sum := sha256.Sum256(calibBuf)
		acc += uint64(sum[0])
	}
	x := uint64(88172645463325252)
	for i := range calibInts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibInts[i] = x
	}
	slices.Sort(calibInts)
	clear(calibMap)
	for i := 0; i < 1<<12; i++ {
		calibMap[calibInts[i*4]] = uint64(i)
	}
	for i := 0; i < 1<<12; i++ {
		acc += calibMap[calibInts[i*4]]
	}
	return acc
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrate returns the host-speed factor: calibWork's thread CPU time
// now over calibNominal. CPU-time figures multiplied by it are in
// nominal-host units.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	calibWork()
	return float64(threadCPU()-t0) / float64(calibNominal)
}
