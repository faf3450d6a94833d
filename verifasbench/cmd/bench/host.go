package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. On a shared host the CPU itself runs faster or
// slower from minute to minute as other tenants load it: a fixed 20 ms
// workload read from 18 to 50 ms between runs, and the verifier's CPU
// time per pass ranged from 13.8 to 20.8 s. The run therefore times a
// fixed workload between jobs (or requests) throughout, and reports its
// time metrics scaled to a host on which that probe takes probeRefMS:
// value × probeRefMS / (median probe time of the run). The probe does
// not depend on the verifier, so a change to the verifier moves the
// scaled metrics as much as the raw ones.
const (
	// probeEvery is the least wall time between two probes.
	probeEvery = 100 * time.Millisecond
	// probeRefMS is the probe's thread CPU time on the reference host
	// (the median over quiet runs on the 2-CPU host the benchmark was
	// tuned on); it sets the scale of the scaled metrics.
	probeRefMS = 3.0
	// probeChase is the size of the probe's pointer-chasing table (2 MB
	// of uint32), probeSteps the steps taken through it, probeKeys the
	// keys sorted and counted.
	probeChase = 1 << 19
	probeSteps = 1 << 14
	probeKeys  = 1 << 13
)

// probe runs and times the fixed workload. It allocates nothing after
// newProbe, so the harness's garbage collector does not time itself.
type probe struct {
	next   []uint32 // one random cycle through all entries
	keys   []uint64
	sorted []uint64
	counts map[uint64]int
	sink   uint64
	times  []float64 // thread CPU ms of every probe so far
	last   time.Time
}

func newProbe() *probe {
	p := &probe{next: make([]uint32, probeChase), keys: make([]uint64, probeKeys),
		sorted: make([]uint64, probeKeys), counts: make(map[uint64]int, probeKeys)}
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every entry.
	for i := len(p.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for i := range p.keys {
		p.keys[i] = rnd()
	}
	return p
}

// run times one probe: memory latency (a chase through the table),
// branching (a sort) and hashing (map updates), like the verifier's own
// mix. The calling goroutine must be locked to its OS thread: the time
// is the thread's CPU time, which leaves out the time it waited for a
// CPU.
func (p *probe) run() {
	start := threadCPU()
	i := uint32(p.sink % probeChase)
	for k := 0; k < probeSteps; k++ {
		i = p.next[i]
	}
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
	clear(p.counts)
	for _, k := range p.sorted {
		p.counts[k>>52^k&0xfff]++
	}
	p.sink += uint64(i) + uint64(len(p.counts))
	p.times = append(p.times, ms(threadCPU()-start))
	p.last = time.Now()
}

// maybe runs a probe when probeEvery has passed since the last one.
func (p *probe) maybe() {
	if time.Since(p.last) >= probeEvery {
		p.run()
	}
}

// medianMS is the median probe time of the run so far.
func (p *probe) medianMS() float64 { return median(p.times) }

// scale is the factor that brings this run's times to the reference
// host's speed.
func (p *probe) scale() float64 { return probeRefMS / p.medianMS() }

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0) // CLOCK_THREAD_CPUTIME_ID
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time, user and system, that process pid
// (0: this process) has used, from its POSIX CPU-time clock, to the
// nanosecond. Unlike wall time it leaves out the time the process
// waited for a CPU, including the time the hypervisor of a shared host
// gave the CPU to someone else (steal), which on a busy host moved wall
// times by a third between runs of the same code.
func processCPU(pid int) (time.Duration, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = ^uintptr(pid)<<3 | 2 // the process CPU clock of pid, as clock_getcpuclockid makes it
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is processCPU of this process; reading its own clock cannot fail.
func selfCPU() time.Duration {
	d, _ := processCPU(0)
	return d
}

// selfPeakRSSMB returns this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// procPeakRSSMB reads a child process's peak resident set (VmHWM) from
// /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
