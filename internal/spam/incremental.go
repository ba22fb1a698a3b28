// Incremental store maintenance: folding a scene delta into a live
// RegionStore without rebuilding it.
//
// The store invalidates by identity, not by flush, as a session's
// fragment grid does (fraggrid.go). The predicate memo is epoch-stamped
// (see externals.go): ApplyDelta bumps each changed region's epoch,
// instantly orphaning every memoised boolean that read the old
// geometry, at O(1) per region.
package spam

import (
	"spampsm/internal/geom"
	"spampsm/internal/scene"
)

// ApplyDelta folds a scene delta into the store in place: the
// underlying scene mutates (Removed regions leave, Moved regions are
// replaced, Added regions append), derived geometry is recomputed for
// the changed regions only, each changed region's predicate-memo epoch
// is bumped (orphaning its memoised booleans without a scan), and the
// fragment-seed cache drops only the entries naming a changed region.
//
// The store must be quiescent: no task may be evaluating externals
// against it while the delta applies. Interpretation sessions guarantee
// this by applying deltas strictly between phase runs, and stores built
// over shared pinned datasets are never updated — sessions clone the
// scene first (scene.Clone).
func (st *RegionStore) ApplyDelta(d *scene.Delta) error {
	if err := st.scene.Apply(d); err != nil {
		return err
	}
	changed := make(map[int]bool, d.Size())
	st.geoMu.Lock()
	for _, id := range d.ChangedIDs() {
		st.regionEpoch[id]++
		changed[id] = true
	}
	st.geoMu.Unlock()
	for _, id := range d.Removed {
		delete(st.byID, id)
		delete(st.derived, id)
	}
	for _, r := range d.Moved {
		st.byID[r.ID] = r
		st.derived[r.ID] = geom.Derive(r.Poly)
	}
	for _, r := range d.Added {
		st.byID[r.ID] = r
		st.derived[r.ID] = geom.Derive(r.Poly)
	}
	st.seedMu.Lock()
	for k := range st.fragSeeds {
		if changed[k.region] {
			delete(st.fragSeeds, k)
		}
	}
	st.seedMu.Unlock()
	st.epoch++
	return nil
}
