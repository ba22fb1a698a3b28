// Batched seed-WM retraction: the unloading half of an incremental
// update. RetractBatch is the inverse of AssertBatch — it removes a set
// of live WMEs from working memory and the Rete network with the same
// accounting discipline (the network's retract charges land in the cost
// log's Init, the unloaded volume in MemStats.Retracted*), and it
// recycles the token graveyard afterwards, since outside Run nothing
// holds a fired instantiation's bindings. ResetForUpdate builds on it to
// return a quiesced engine to the empty-WM state so a delta re-run is
// accounted — and matches — like a freshly loaded task.
package ops5

import (
	"fmt"

	"spampsm/internal/wm"
)

// RetractBatch retracts a set of live WMEs from working memory and the
// match network, semantically identical to the engine firing a remove
// for each in order. The match cost of the retraction is accounted as
// initialization (network unloading), symmetric to AssertBatch;
// MemStats.RetractedWMEs/RetractedBytes record the unloaded volume.
// Deleted tokens are recycled immediately: outside Run no caller holds
// a retracted instantiation's bindings, so the graveyard need not wait
// for the next recognize-act cycle.
func (e *Engine) RetractBatch(wmes []*wm.WME) error {
	if err := e.mutable("RetractBatch"); err != nil {
		return err
	}
	for _, w := range wmes {
		if err := e.mem.Remove(w); err != nil {
			return err
		}
		before := e.net.Totals().Cost
		e.net.Remove(w)
		e.log.Init += e.net.Totals().Cost - before
		e.log.Mem.RetractedWMEs++
		e.log.Mem.RetractedBytes += wm.WMEBytes(len(w.Vals))
	}
	e.net.RecycleGraveyard()
	e.syncMem()
	return nil
}

// ResetForUpdate returns a quiesced engine to the empty-working-memory
// state so it can be reloaded and re-run as if freshly instantiated:
// it starts a fresh cost log and run statistics (the retract charge is
// the first cost of the new record), restarts the memory high-water
// marks from the live population, retracts the entire live working
// memory through RetractBatch, and clears the halt latch. After a
// successful reset the conflict set is empty and the Rete memories
// hold only what the compiled template holds at instantiation, so a
// subsequent AssertBatch+Run produces byte-identical results to a
// fresh engine loaded with the same seeds — the property the
// incremental-update differential oracles enforce.
//
// The reset requires every production to anchor at least one positive
// condition element (true of the SPAM knowledge base): a production
// matching on negations alone would keep a live instantiation across
// the wipe, and its fired latch would diverge from a fresh engine.
// ResetForUpdate detects that case and reports it as an error.
func (e *Engine) ResetForUpdate() error {
	if err := e.mutable("ResetForUpdate"); err != nil {
		return err
	}
	e.log = &CostLog{}
	e.stats = RunStats{}
	e.halted = false
	e.mem.ResetPeaks()
	e.net.ResetPeaks()
	if err := e.RetractBatch(e.mem.Snapshot()); err != nil {
		return err
	}
	if n := len(e.cs.insts); n != 0 {
		return fmt.Errorf("ops5: ResetForUpdate left %d live instantiations (production with no positive condition element?)", n)
	}
	return nil
}
