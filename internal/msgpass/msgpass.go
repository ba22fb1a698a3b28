// Package msgpass models task-level parallelism on a message-passing
// multicomputer — the paper's Section 9 future work ("we are currently
// investigating implementations on message-passing computers", citing
// Acharya & Tambe's simulation study).
//
// Unlike the shared-memory Encore, a message-passing machine has no
// shared task queue: tasks must either be partitioned statically among
// the nodes up front, or fetched dynamically from a coordinator at the
// cost of a request/reply message round-trip plus shipping the task's
// working memory. The interesting question — the one the paper's
// variance discussion (Mohan) predicts the answer to — is whether the
// message overhead of dynamic distribution outweighs its resistance to
// task-duration variance. For SPAM-like task sizes the messages are
// tiny next to a multi-second task, so dynamic distribution wins on
// variance alone — with one caveat the experiments surface: a FIFO
// dynamic queue still suffers the tail-end effect when the outlier
// tasks sit late in the queue, so the full win needs the largest-first
// ordering the paper proposes (see bench's ext-msgpass).
package msgpass

import (
	"sort"

	"spampsm/internal/faults"
	"spampsm/internal/machine"
	"spampsm/internal/stats"
)

// Config parameterizes the message-passing machine.
type Config struct {
	// Nodes is the number of compute nodes (one task process each).
	Nodes int
	// MsgLatencyInstr is the one-way latency of a small control message
	// in simulated instructions.
	MsgLatencyInstr float64
	// TaskShipInstr is the cost of shipping one task's working memory
	// to a node.
	TaskShipInstr float64
	// ResultShipInstr is the cost of shipping a task's results back.
	ResultShipInstr float64

	// LossRate is the probability one task-carrying message is lost in
	// the interconnect and must be retransmitted after a timeout. 0
	// models a reliable network.
	LossRate float64
	// RetransmitTimeoutInstr is the loss-detection timeout before a
	// message is resent, in simulated instructions.
	RetransmitTimeoutInstr float64
	// FaultPlan drives the deterministic loss draws; nil disables loss
	// regardless of LossRate, keeping chaos runs reproducible.
	FaultPlan *faults.Plan
}

// lossOverhead returns the retransmission cost charged to task i (a
// lost shipment costs the timeout plus a fresh message round), and the
// number of lost transmissions.
func (c Config) lossOverhead(i int) (float64, int) {
	if c.FaultPlan == nil || c.LossRate <= 0 {
		return 0, 0
	}
	n := c.FaultPlan.LossCount("msgpass", i, c.LossRate, 8)
	return float64(n) * (c.RetransmitTimeoutInstr + c.MsgLatencyInstr), n
}

// DefaultConfig models a mid-80s multicomputer interconnect: ~5 ms
// per message and ~20 ms to ship a task's working memory.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		MsgLatencyInstr: machine.SecToInstr(0.005),
		TaskShipInstr:   machine.SecToInstr(0.020),
		ResultShipInstr: machine.SecToInstr(0.010),
	}
}

// Policy selects how tasks reach the nodes.
type Policy uint8

const (
	// StaticRoundRobin deals tasks to nodes in order, up front.
	StaticRoundRobin Policy = iota
	// StaticBalanced partitions tasks up front balancing the *known*
	// total duration per node (LPT into bins) — the best a static
	// scheme can do, and it requires perfect size predictions.
	StaticBalanced
	// Dynamic keeps the queue on a coordinator node; each node requests
	// a task when free, paying a message round-trip plus task shipping.
	Dynamic
)

func (p Policy) String() string {
	switch p {
	case StaticRoundRobin:
		return "static-round-robin"
	case StaticBalanced:
		return "static-balanced"
	case Dynamic:
		return "dynamic"
	}
	return "unknown"
}

// Run schedules the task durations (in queue order) onto the
// message-passing machine under the given policy and returns the
// simulated schedule.
func Run(durations []float64, cfg Config, policy Policy) machine.Schedule {
	sched, _ := RunFaulty(durations, cfg, policy)
	return sched
}

// RunFaulty is Run with recovery accounting: when the config carries a
// loss rate and fault plan, each task's shipment may be lost and
// resent after a timeout, and the recovery columns report the cost.
// Losses are charged per task (by queue index) before dispatch, so
// every distribution policy pays the same retransmission bill and the
// policies stay comparable under identical fault plans.
func RunFaulty(durations []float64, cfg Config, policy Policy) (machine.Schedule, stats.Recovery) {
	var rec stats.Recovery
	if cfg.FaultPlan != nil && cfg.LossRate > 0 {
		costed := make([]float64, len(durations))
		for i, d := range durations {
			extra, lost := cfg.lossOverhead(i)
			costed[i] = d + extra
			rec.Retransmits += lost
			rec.WastedInstr += extra
		}
		durations = costed
	}
	return run(durations, cfg, policy), rec
}

func run(durations []float64, cfg Config, policy Policy) machine.Schedule {
	n := cfg.Nodes
	if n < 1 {
		n = 1
	}
	switch policy {
	case StaticRoundRobin:
		parts := make([][]float64, n)
		for i, d := range durations {
			parts[i%n] = append(parts[i%n], d)
		}
		return runStatic(parts, cfg, len(durations))
	case StaticBalanced:
		// LPT binning: biggest task to the least-loaded node. This
		// assumes the scheduler knows every duration in advance.
		idx := make([]int, len(durations))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return durations[idx[a]] > durations[idx[b]] })
		parts := make([][]float64, n)
		loads := make([]float64, n)
		for _, i := range idx {
			best := 0
			for j := 1; j < n; j++ {
				if loads[j] < loads[best] {
					best = j
				}
			}
			parts[best] = append(parts[best], durations[i])
			loads[best] += durations[i]
		}
		return runStatic(parts, cfg, len(durations))
	default:
		return runDynamic(durations, cfg, n)
	}
}

// runStatic executes pre-partitioned tasks: each node first receives
// its whole partition (pipelined shipping), then runs it serially.
func runStatic(parts [][]float64, cfg Config, total int) machine.Schedule {
	busy := make([]float64, len(parts))
	var makespan float64
	per := make([]float64, 0, total)
	for node, part := range parts {
		// The coordinator ships the partition; shipping overlaps with
		// execution after the first task arrives.
		t := cfg.MsgLatencyInstr + cfg.TaskShipInstr
		for _, d := range part {
			t += d
			per = append(per, t)
		}
		t += cfg.ResultShipInstr
		busy[node] = t
		if t > makespan {
			makespan = t
		}
	}
	return machine.Schedule{Makespan: makespan, Busy: busy, PerTask: per}
}

// runDynamic executes tasks from a coordinator-held queue: each fetch
// costs a request/reply round-trip plus task and result shipping.
func runDynamic(durations []float64, cfg Config, n int) machine.Schedule {
	perFetch := 2*cfg.MsgLatencyInstr + cfg.TaskShipInstr + cfg.ResultShipInstr
	return machine.ListSchedule(len(durations), n, 0, func(i, _ int) float64 {
		return durations[i] + perFetch
	})
}

// Speedup returns single-node time (no messaging) over the policy's
// makespan.
func Speedup(durations []float64, cfg Config, policy Policy) float64 {
	var serial float64
	for _, d := range durations {
		serial += d
	}
	t := Run(durations, cfg, policy).Makespan
	if t <= 0 {
		return 0
	}
	return serial / t
}
