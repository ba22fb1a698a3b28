package cluster

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The test binary's worker probes. A worker process is this test binary
// re-executed with WorkerEnv set; when one of the variables below is set
// too, TestMain serves it through probedWorker instead of MaybeWorker.
// They are test apparatus: no command reads them.
const (
	// workerProfileEnv names a directory: each worker writes a CPU
	// profile (cpu-<pid>.prof) and an allocation profile
	// (alloc-<pid>.prof) of its whole life into it as it exits. `make
	// cpu-profile` and `make alloc-profile` set it.
	workerProfileEnv = "SPAMPSM_TEST_WORKER_PROFILE"
	// workerMemEnv names a directory: on each SIGUSR1 a worker writes
	// the bytes it has allocated so far to <pid>.mem in it
	// (BenchmarkClusterRound's worker-B/op).
	workerMemEnv = "SPAMPSM_TEST_WORKER_MEM"
)

// probedWorker serves a worker connection like MaybeWorker, under the
// probes its environment asks for, and exits the process. It returns
// when no probe is asked for, and MaybeWorker takes over.
func probedWorker() {
	spec, profDir, memDir := os.Getenv(WorkerEnv), os.Getenv(workerProfileEnv), os.Getenv(workerMemEnv)
	if spec == "" || profDir == "" && memDir == "" {
		return
	}
	os.Exit(serveProbed(spec, profDir, memDir))
}

// serveProbed is probedWorker's serving half; its deferred probes write
// before the process exits.
func serveProbed(spec, profDir, memDir string) int {
	network, addr, _ := strings.Cut(spec, "|")
	pid := strconv.Itoa(os.Getpid())
	if profDir != "" {
		f, err := os.Create(filepath.Join(profDir, "cpu-"+pid+".prof"))
		if err == nil && pprof.StartCPUProfile(f) == nil {
			defer func() { pprof.StopCPUProfile(); f.Close() }()
		}
		defer func() {
			if f, err := os.Create(filepath.Join(profDir, "alloc-"+pid+".prof")); err == nil {
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
		}()
	}
	if memDir != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGUSR1)
		go func() {
			var ms runtime.MemStats
			for range sig {
				runtime.ReadMemStats(&ms)
				tmp := filepath.Join(memDir, pid+".tmp")
				if os.WriteFile(tmp, fmt.Appendf(nil, "%d\n", ms.TotalAlloc), 0o644) == nil {
					os.Rename(tmp, filepath.Join(memDir, pid+".mem"))
				}
			}
		}()
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: dial: %v\n", err)
		return 1
	}
	if err := ServeWorker(c); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		return 1
	}
	return 0
}

// workerMem asks a probed worker for the bytes it has allocated so far
// and waits for the answer.
func workerMem(dir string, pid int) (bytes uint64, err error) {
	path := filepath.Join(dir, strconv.Itoa(pid)+".mem")
	os.Remove(path)
	p, err := os.FindProcess(pid)
	if err != nil {
		return 0, err
	}
	if err := p.Signal(syscall.SIGUSR1); err != nil {
		return 0, err
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if b, err := os.ReadFile(path); err == nil {
			_, err = fmt.Sscan(string(b), &bytes)
			return bytes, err
		}
	}
	return 0, fmt.Errorf("worker %d never reported its allocation", pid)
}
