package spam

import (
	"strings"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/tlp"
)

func TestClassScoreMath(t *testing.T) {
	cs := ClassScore{TP: 8, FP: 2, FN: 4}
	if p := cs.Precision(); p != 0.8 {
		t.Errorf("precision = %v", p)
	}
	if r := cs.Recall(); r != 8.0/12 {
		t.Errorf("recall = %v", r)
	}
	f1 := cs.F1()
	if f1 <= 0.7 || f1 >= 0.75 {
		t.Errorf("f1 = %v", f1) // 2*0.8*(2/3)/(0.8+2/3) ≈ 0.727
	}
	var zero ClassScore
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero score must not divide by zero")
	}
}

func TestEvaluateRTFSynthetic(t *testing.T) {
	sc := scene.Generate(scene.DC.Scale(0.5))
	// Perfect oracle hypotheses: one correct fragment per non-noise region.
	var frags []*Fragment
	id := 1
	for _, r := range sc.Regions {
		if r.TrueKind == scene.Noise {
			continue
		}
		frags = append(frags, &Fragment{ID: id, RegionID: r.ID, Type: r.TrueKind, Conf: 90})
		id++
	}
	acc := EvaluateRTF(sc, frags)
	if acc.TopAccuracy() != 1.0 || acc.Unclassified != 0 {
		t.Errorf("oracle accuracy = %v (%d unclassified)", acc.TopAccuracy(), acc.Unclassified)
	}
	if acc.MacroF1() != 1.0 {
		t.Errorf("oracle macro-F1 = %v", acc.MacroF1())
	}
	// Corrupt a third of the hypotheses.
	for i := 0; i < len(frags); i += 3 {
		frags[i].Type = scene.Noise // always wrong
	}
	acc = EvaluateRTF(sc, frags)
	if acc.TopAccuracy() >= 1.0 || acc.TopAccuracy() < 0.5 {
		t.Errorf("corrupted accuracy = %v", acc.TopAccuracy())
	}
}

func TestEvaluateRealRTF(t *testing.T) {
	d := smallDC(t)
	tasks := BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, tlp.BuildMode{})
	results, err := (&tlp.Pool{Workers: 2}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	frags := ExtractFragments(results)
	acc := EvaluateRTF(d.Scene, frags)
	// The knowledge-based classifier should clearly beat chance (9
	// classes → ~11%) on its best hypotheses.
	if acc.TopAccuracy() < 0.35 {
		t.Errorf("RTF accuracy = %.2f, suspiciously low", acc.TopAccuracy())
	}
	report := acc.Report()
	for _, want := range []string{"precision", "runway", "correct"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// Runways are the most distinctive class; recall should be high.
	if rs := acc.PerClass[scene.Runway]; rs == nil || rs.Recall() < 0.5 {
		t.Errorf("runway recall too low: %+v", rs)
	}
}
