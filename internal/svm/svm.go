// Package svm simulates the shared virtual memory (network shared
// memory) system of the paper's Section 7: the Mach netmemory server
// joining two 16-processor Encore Multimaxes into one address space,
// with ~50 ms page-fault service latency across the network, 8 KB
// pages, optional 64-byte segment shipping, and the false-contention
// pathology the authors had to engineer around.
//
// The simulator extends the machine package's queue-scheduling model:
// processors live on nodes; the task queue and dataset pages live on
// node 0; remote processors pay page-fault service time to fetch tasks
// and write results, and — once the cluster spans nodes — the queue
// page bounces between nodes on every fetch.
package svm

import (
	"spampsm/internal/faults"
	"spampsm/internal/machine"
	"spampsm/internal/stats"
)

// Config parameterizes the shared virtual memory system.
type Config struct {
	// FaultLatencyInstr is the service time of one cross-network page
	// fault in simulated instructions. The paper reports ~50 ms latency;
	// at 1.5 MIPS that is 75,000 instructions.
	FaultLatencyInstr float64
	// PageSize is the page size in bytes (8 KB on the Encores).
	PageSize int
	// TaskFetchFaults is the number of cross-network faults a *remote*
	// task process takes to pull one task's working memory.
	TaskFetchFaults float64
	// ResultFaults is the number of faults to write a task's results
	// back to the home node.
	ResultFaults float64
	// QueueBounceFaults is charged on every task fetch (local or
	// remote) once any remote process exists: the queue page's ownership
	// ping-pongs between the Encores.
	QueueBounceFaults float64
	// SegmentShipping enables the netmemory-server optimization the
	// designers added for SPAM/PSM: ship only modified 64-byte segments
	// instead of whole 8 KB pages, cutting fault service cost.
	SegmentShipping bool
	// FalseSharing models the system before data-structure layout was
	// fixed: unrelated objects share pages, so remote execution faults
	// continuously and initialization effectively stalls.
	FalseSharing bool

	// LossRate is the probability that one cross-network page-fault
	// service round is lost and must be retransmitted — the paper's
	// Section 7 network is exactly where real deployments fail. 0
	// models a reliable network.
	LossRate float64
	// RetryTimeoutInstr is the detection timeout before a lost service
	// round is retried, in simulated instructions (a timeout is
	// necessarily longer than the ~50 ms service time it guards).
	RetryTimeoutInstr float64
	// FaultPlan drives the deterministic loss draws; nil disables loss
	// regardless of LossRate, keeping chaos runs reproducible.
	FaultPlan *faults.Plan
}

// lossOverhead returns the retransmission cost charged to task i, and
// the number of retransmitted rounds.
func (c Config) lossOverhead(i int) (float64, int) {
	if c.FaultPlan == nil || c.LossRate <= 0 {
		return 0, 0
	}
	n := c.FaultPlan.LossCount("svm", i, c.LossRate, 8)
	return float64(n) * (c.RetryTimeoutInstr + c.faultCost()), n
}

// DefaultConfig reflects the paper's measured system after the false
// contention was engineered away and segment shipping was in place.
func DefaultConfig() Config {
	return Config{
		FaultLatencyInstr: machine.SecToInstr(0.050),
		PageSize:          8192,
		TaskFetchFaults:   6,
		ResultFaults:      2,
		QueueBounceFaults: 2,
		SegmentShipping:   true,
	}
}

// faultCost returns the effective cost of one fault under the config.
func (c Config) faultCost() float64 {
	cost := c.FaultLatencyInstr
	if !c.SegmentShipping {
		// Whole-page shipping roughly doubles effective service time for
		// SPAM's access patterns (transfer plus the extra invalidations
		// of unmodified data).
		cost *= 2
	}
	return cost
}

// falseSharingFactor inflates remote execution when unrelated objects
// share pages: the paper reports this "brought our system to a halt
// just during initialization".
const falseSharingFactor = 40.0

// Cluster describes the processor placement: Node0Procs task processes
// on the home Encore and RemoteProcs on the second Encore.
type Cluster struct {
	Node0Procs  int
	RemoteProcs int
}

// Total returns the total number of task processes.
func (cl Cluster) Total() int { return cl.Node0Procs + cl.RemoteProcs }

// Run schedules the task durations over the cluster. Tasks are pulled
// from the shared queue in order by whichever task process frees first,
// exactly as in machine.Run, but with the SVM overheads applied.
func Run(durations []float64, cl Cluster, cfg Config, ov machine.Overheads) machine.Schedule {
	sched, _ := RunFaulty(durations, cl, cfg, ov)
	return sched
}

// RunFaulty is Run with recovery accounting: when the config carries a
// loss rate and fault plan, lost page-fault service rounds cost a
// timeout plus a retransmission, and the recovery columns report how
// much of the makespan they consumed.
func RunFaulty(durations []float64, cl Cluster, cfg Config, ov machine.Overheads) (machine.Schedule, stats.Recovery) {
	var rec stats.Recovery
	clusterActive := cl.RemoteProcs > 0
	f := cfg.faultCost()
	sched := machine.ListSchedule(len(durations), cl.Total(), ov.Fork, func(i, proc int) float64 {
		d := durations[i]
		cost := d + ov.QueuePerTask
		networked := false
		if clusterActive {
			cost += cfg.QueueBounceFaults * f
			networked = true
		}
		if proc >= cl.Node0Procs { // a processor on the second Encore
			cost += (cfg.TaskFetchFaults + cfg.ResultFaults) * f
			networked = true
			if cfg.FalseSharing {
				cost += d * (falseSharingFactor - 1)
			}
		}
		// Message loss strikes only traffic that crosses the network.
		if networked {
			extra, lost := cfg.lossOverhead(i)
			cost += extra
			rec.Retransmits += lost
			rec.WastedInstr += extra
		}
		return cost
	})
	return sched, rec
}

// RunSplitQueues schedules with one task queue per node instead of the
// single shared queue: tasks are dealt to the two queues proportionally
// to each node's processor count, queue pages stop bouncing between
// Encores, but the nodes can no longer balance load dynamically across
// the split. The paper reports separate experiments showing this
// "would not change the results" — the queue-contention savings and
// the load-balance loss roughly cancel at SPAM's task granularity.
func RunSplitQueues(durations []float64, cl Cluster, cfg Config, ov machine.Overheads) machine.Schedule {
	if cl.RemoteProcs == 0 {
		return Run(durations, cl, cfg, ov)
	}
	total := cl.Total()
	// Deal tasks proportionally to node processor counts, preserving
	// queue order within each node.
	var local, remote []float64
	acc := 0
	for _, d := range durations {
		acc += cl.Node0Procs
		if acc >= total {
			acc -= total
			local = append(local, d)
		} else {
			remote = append(remote, d)
		}
	}
	f := cfg.faultCost()
	// Local node: plain queue, no cross-network costs.
	sLocal := machine.Run(local, cl.Node0Procs, ov)
	// Remote node: local queue (no bounce), but the dataset still lives
	// on node 0, so every task pays the fetch/result faults.
	remCosted := make([]float64, len(remote))
	for i, d := range remote {
		extra, _ := cfg.lossOverhead(i)
		remCosted[i] = d + (cfg.TaskFetchFaults+cfg.ResultFaults)*f + extra
	}
	sRemote := machine.Run(remCosted, cl.RemoteProcs, ov)
	makespan := sLocal.Makespan
	if sRemote.Makespan > makespan {
		makespan = sRemote.Makespan
	}
	busy := append(append([]float64{}, sLocal.Busy...), sRemote.Busy...)
	per := append(append([]float64{}, sLocal.PerTask...), sRemote.PerTask...)
	return machine.Schedule{Makespan: makespan, Busy: busy, PerTask: per}
}

// Speedup returns the baseline (one local task process, no SVM
// overheads) time divided by the cluster's time.
func Speedup(durations []float64, cl Cluster, cfg Config, ov machine.Overheads) float64 {
	base := machine.Run(durations, 1, ov).Makespan
	t := Run(durations, cl, cfg, ov).Makespan
	if t <= 0 {
		return 0
	}
	return base / t
}

// TranslationLoss estimates the paper's "loss of about 1.5 processors":
// for a cluster spanning nodes, it finds how many pure-TLP processors
// give the same makespan, and returns total processors minus that
// equivalent. The search is over fractional processors by linear
// interpolation between integer points.
func TranslationLoss(durations []float64, cl Cluster, cfg Config, ov machine.Overheads) float64 {
	if cl.RemoteProcs == 0 {
		return 0
	}
	target := Run(durations, cl, cfg, ov).Makespan
	total := cl.Total()
	// Pure-TLP makespans at integer processor counts.
	prev := machine.Run(durations, 1, ov).Makespan
	if target >= prev {
		return float64(total) - 1
	}
	for p := 2; p <= total; p++ {
		cur := machine.Run(durations, p, ov).Makespan
		if cur <= target {
			// Equivalent lies in (p-1, p]; interpolate on 1/makespan
			// (throughput is roughly linear in processors here).
			den := 1/cur - 1/prev
			frac := 1.0
			if den > 0 {
				frac = (1/target - 1/prev) / den
			}
			equiv := float64(p-1) + frac
			return float64(total) - equiv
		}
		prev = cur
	}
	return 0
}
