package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spampsm/internal/stats"
)

// clockTick is the kernel's USER_HZ, the unit of the utime and stime
// fields of /proc/<pid>/stat (100 on every Linux port Go supports).
const clockTick = 100

// meter accumulates wall time, process-tree CPU and allocation over
// the timed sections of a run. Calibration samples, verification and
// set-up all happen between end and the next begin.
type meter struct {
	children []int // live child pids whose CPU counts (cluster workers)

	wall      time.Duration
	selfCPU   float64 // seconds, this process
	childCPU  float64 // seconds, children
	allocByte uint64

	start         time.Time
	self0, child0 float64
	alloc0        uint64
	memStats      runtime.MemStats
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.memStats)
	m.alloc0 = m.memStats.TotalAlloc
	m.self0, m.child0 = selfCPU(), m.childrenCPU()
	m.start = time.Now()
}

// end closes the section begin opened and returns its wall time.
func (m *meter) end() time.Duration {
	wall := time.Since(m.start)
	self, kids := selfCPU(), m.childrenCPU()
	runtime.ReadMemStats(&m.memStats)
	m.wall += wall
	m.selfCPU += self - m.self0
	m.childCPU += kids - m.child0
	m.allocByte += m.memStats.TotalAlloc - m.alloc0
	return wall
}

// selfCPU is this process's user+system CPU in seconds. getrusage
// reports the scheduler's nanosecond runtime, where /proc/self/stat
// would round to 10 ms ticks — too coarse for 30 ms ops.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func (m *meter) childrenCPU() float64 {
	var s float64
	for _, pid := range m.children {
		if st, err := readProcStat(pid); err == nil {
			s += st.cpu
		}
	}
	return s
}

type procStat struct {
	ppid int
	cpu  float64 // utime+stime, seconds
}

// readProcStat parses /proc/<pid>/stat. The command name (field 2) may
// contain spaces and parentheses, so fields are counted from the last
// ')'.
func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

func parseProcStat(s string) (procStat, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("benchmark: malformed stat line %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); ppid is field 4, utime 14, stime 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("benchmark: short stat line %q", s)
	}
	ppid, err1 := strconv.Atoi(f[1])
	ut, err2 := strconv.ParseUint(f[11], 10, 64)
	st, err3 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("benchmark: malformed stat line %q", s)
	}
	return procStat{ppid: ppid, cpu: float64(ut+st) / clockTick}, nil
}

// childPIDs lists the live processes whose parent is this one.
func childPIDs() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := os.Getpid()
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, err := readProcStat(pid); err == nil && st.ppid == self {
			out = append(out, pid)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// pctl is one reported percentile; it always carries its sample count.
type pctl struct {
	p float64
	v float64
	n int
}

func percentile(xs []float64, p float64) pctl {
	return pctl{p: p, v: stats.Percentile(xs, p), n: len(xs)}
}

func (q pctl) String() string { return fmt.Sprintf("p%g=%.3f (n=%d)", q.p, q.v, q.n) }

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }
