package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"spampsm/internal/faults"
	"spampsm/internal/ops5"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// TestWorkerOneGateAcrossConfigs: a worker process has one memory gate,
// whatever RunConfigs its task frames carry. A RunConfig is client
// input on a served cluster (maxRetries, firingBudget, a fault seed),
// so a gate per config would both grow without bound and hand every
// request shape its own copy of the process's MemBudget.
func TestWorkerOneGateAcrossConfigs(t *testing.T) {
	d, err := spam.NewDataset(airportParams("DC"))
	if err != nil {
		t.Fatal(err)
	}
	rtf := spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, tlp.BuildMode{})
	if len(rtf) < 2 {
		t.Fatalf("%d RTF tasks, want at least 2", len(rtf))
	}
	const budget = 1 << 20
	w := &worker{
		datasets: map[string]*spam.Dataset{d.Name: d},
		pool:     &tlp.Pool{Workers: 2, MemBudget: budget},
	}
	msg := func(i int, cfg tlp.RunConfig, memEst float64) *TaskMsg {
		task := rtf[i%len(rtf)]
		spec, err := task.Wire()
		if err != nil {
			t.Fatal(err)
		}
		return &TaskMsg{RunID: 1, Seq: i, StartAttempt: 1, ID: task.ID, MemEst: memEst, Config: cfg, Spec: *spec}
	}

	// Fifty request shapes, one after another: every reservation lands
	// on the one gate, and none waits.
	scratch := &ops5.Scratch{}
	for i := 0; i < 50; i++ {
		res := w.execute(context.Background(), 0, msg(i, tlp.RunConfig{MaxRetries: i}, float64(1000+i)), scratch)
		if res.Err != nil {
			t.Fatalf("task %d: %s", i, res.Err.Msg)
		}
	}
	if ms := w.pool.MemSched(); ms.Budget != budget || ms.PeakReserved != 1049 || ms.ThrottleWaits != 0 {
		t.Fatalf("after 50 configs run serially: %+v, want one gate of budget %d that peaked at the largest reservation (1049) and never waited", ms, budget)
	}

	// Two shapes at once, each task as large as the whole budget. The
	// first fails its first build and sits out a retry backoff holding
	// its reservation; the second, under another config, must wait for it.
	slow := tlp.RunConfig{MaxRetries: 1, RetryBackoff: 500 * time.Millisecond,
		Faults: faults.Config{Seed: 1, BuildFailRate: 1}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if res := w.execute(context.Background(), 0, msg(0, slow, budget), scratch); res.Err != nil || res.Attempts != 2 {
			t.Errorf("retried task: attempts %d, err %v", res.Attempts, res.Err)
		}
	}()
	for i := 0; w.pool.MemSched().PeakReserved < budget; i++ {
		if i > 5000 {
			t.Fatal("the retrying task never reserved its footprint")
		}
		time.Sleep(time.Millisecond)
	}
	if res := w.execute(context.Background(), 1, msg(1, tlp.RunConfig{}, budget), &ops5.Scratch{}); res.Err != nil {
		t.Errorf("second task: %s", res.Err.Msg)
	}
	wg.Wait()
	if ms := w.pool.MemSched(); ms.ThrottleWaits != 1 || ms.PeakReserved != budget {
		t.Errorf("two configs' tasks did not contend for one budget: %+v, want 1 throttle wait and a peak of %d", ms, budget)
	}
}
