package spam

import "testing"

// TestSPAMDifferentialSchedulingPolicies is the full-interpretation
// scheduling oracle: a complete four-phase interpretation must be
// observably identical — same phase statistics, simulated instruction
// counts, memory records, fragments, pairs, functional areas and final
// model — on one worker and on three, whose interleaving of every
// phase's queue differs.
func TestSPAMDifferentialSchedulingPolicies(t *testing.T) {
	run := func(workers int) *Interpretation {
		t.Helper()
		d := smallDC(t)
		in, err := d.Interpret(InterpretOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	base, in := run(1), run(3)
	compareInterpretations(t, "w=1", base, "w=3", in)
	for i := range base.Phases {
		bp, ip := &base.Phases[i], &in.Phases[i]
		if bp.PeakTaskBytes != ip.PeakTaskBytes || bp.SeedBytes != ip.SeedBytes {
			t.Errorf("w=3: phase %s memory records diverge: (%.0f, %.0f) vs (%.0f, %.0f)",
				bp.Phase, bp.PeakTaskBytes, bp.SeedBytes, ip.PeakTaskBytes, ip.SeedBytes)
		}
	}
}

// TestInterpretationMemoryRecordsPopulated: a real interpretation must
// carry non-trivial modeled memory figures — seed bytes in every phase
// and a positive per-task peak — since the scheduler's footprints and
// the simulator's budget curves are built from them.
func TestInterpretationMemoryRecordsPopulated(t *testing.T) {
	d := smallDC(t)
	in, err := d.Interpret(InterpretOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range in.Phases {
		if ph.Tasks == 0 {
			continue
		}
		if ph.SeedBytes <= 0 {
			t.Errorf("phase %s: seed bytes %v, want > 0", ph.Phase, ph.SeedBytes)
		}
		if ph.PeakTaskBytes <= 0 {
			t.Errorf("phase %s: peak task bytes %v, want > 0", ph.Phase, ph.PeakTaskBytes)
		}
	}
}
