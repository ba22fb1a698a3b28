// The incremental re-interpretation experiment: update cost vs churn
// fraction for the three datasets, against full re-interpretation of
// the same updated scene. Each dataset gets one long-lived
// interpretation session (internal/spam Session) that folds in churn
// deltas at 1%, 5% and 20% of the regions; every update's charged cost
// and wall clock are compared with a from-scratch interpretation, and
// the outputs are required to be identical (spam.SameOutputs). The
// document is emitted as BENCH_8.json by cmd/spambench -json; the
// byte-identity itself is enforced by the differential oracles in
// internal/spam and internal/serve (`make oracle`).
package bench

import (
	"context"
	"fmt"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/stats"
)

// IncrementalSchema versions the BENCH_8.json document.
const IncrementalSchema = "spampsm-incremental-bench/v1"

// incrementalFractions is the churn ladder, applied to each dataset's
// session in sequence (the session accumulates the churn, as a live
// monitoring deployment would).
var incrementalFractions = []float64{0.01, 0.05, 0.20}

// incrementalSeed derives each delta's churn seed deterministically so
// the document is reproducible.
const incrementalSeed = 1990

// incrementalWorkers is the fixed task-process count for both the
// session and its from-scratch reference — the session oracle's
// configuration. The experiment measures work avoided, not
// parallelism: a high worker count hides the full run's cost behind
// parallel task execution while the update's fixed per-run overhead
// (seed reassembly and signature diffing are proportional to scene
// size) parallelizes far less, which would bias the wall ratio
// against the update without changing either side's charged cost.
const incrementalWorkers = 4

// IncrementalBase is one dataset's initial (update-0) session run:
// everything fresh, the cost a full interpretation pays.
type IncrementalBase struct {
	Dataset string  `json:"dataset"`
	Regions int     `json:"regions"`
	Tasks   int     `json:"tasks"`
	Instr   float64 `json:"instr"`
	WallMs  float64 `json:"wallMs"`
}

// IncrementalPoint is one churn update against its from-scratch
// reference. Instr figures are charged simulated cost (the machine
// model's currency); wall figures are real elapsed time on the host.
type IncrementalPoint struct {
	Dataset   string  `json:"dataset"`
	Update    int     `json:"update"`   // 1-based delta index in the session
	Fraction  float64 `json:"fraction"` // requested churn fraction
	DeltaSize int     `json:"deltaSize"`

	Tasks   int `json:"tasks"`
	Reused  int `json:"reused"`
	Rerun   int `json:"rerun"`
	Fresh   int `json:"fresh"`
	Dropped int `json:"dropped"`

	SeedsDiffed int     `json:"seedsDiffed"`
	DiffInstr   float64 `json:"diffInstr"`

	UpdateInstr  float64 `json:"updateInstr"` // charged cost of the incremental update
	FullInstr    float64 `json:"fullInstr"`   // charged cost of from-scratch on the same scene
	ChargedRatio float64 `json:"chargedRatio"`

	UpdateWallMs float64 `json:"updateWallMs"`
	FullWallMs   float64 `json:"fullWallMs"`
	WallRatio    float64 `json:"wallRatio"`

	// Identical is spam.SameOutputs of the incremental and from-scratch
	// interpretations — the experiment's correctness column.
	Identical bool `json:"identical"`
}

// IncrementalReport is the BENCH_8.json document.
type IncrementalReport struct {
	Schema  string  `json:"schema"`
	Scale   float64 `json:"scale"` // subset scale (1 = calibrated paper scale)
	Workers int     `json:"workers"`
	Seed    uint64  `json:"seed"`

	Initial []IncrementalBase  `json:"initial"`
	Points  []IncrementalPoint `json:"points"`
}

// incrementalReps is how many times each dataset's session ladder is
// run for wall-clock purposes. Charged costs and outputs are
// deterministic across repetitions; wall times are not — an update is
// tens of milliseconds, where one GC pause doubles the sample — so
// each point keeps the minimum observed wall (interference only ever
// adds time; min-of-N is the closest observable to the true cost, as
// in cmd/benchjson).
const incrementalReps = 3

// incrementalLadder runs one dataset's full session ladder once:
// initial interpretation, then the churn fractions in sequence, each
// raced against a from-scratch interpretation of the updated scene.
func (s *Suite) incrementalLadder(name string, opt spam.InterpretOptions) (IncrementalBase, []IncrementalPoint, error) {
	ctx := context.Background()
	d, err := s.Dataset(name)
	if err != nil {
		return IncrementalBase{}, nil, err
	}
	sess := spam.NewSession(d, opt)
	_, rep0, err := sess.Interpret(ctx)
	if err != nil {
		return IncrementalBase{}, nil, fmt.Errorf("bench: incremental %s initial: %w", name, err)
	}
	base := IncrementalBase{
		Dataset: name,
		Regions: len(sess.Scene().Regions),
		Tasks:   rep0.Tasks,
		Instr:   rep0.UpdateInstr,
		WallMs:  float64(rep0.Wall) / float64(time.Millisecond),
	}
	var points []IncrementalPoint
	for i, frac := range incrementalFractions {
		delta := sess.Scene().Churn(scene.DefaultChurn(incrementalSeed+uint64(i), frac))
		in, ur, err := sess.Update(ctx, delta)
		if err != nil {
			return base, nil, fmt.Errorf("bench: incremental %s churn %.2f: %w", name, frac, err)
		}
		// From-scratch reference on the updated scene: fresh dataset
		// (shared KB and compiled programs), classic interpretation.
		ref := spam.NewDatasetWith(sess.Scene().Clone(), d.KB, d.Progs)
		t0 := time.Now()
		full, err := ref.Interpret(opt)
		fullWall := time.Since(t0)
		if err != nil {
			return base, nil, fmt.Errorf("bench: incremental %s scratch %.2f: %w", name, frac, err)
		}
		pt := IncrementalPoint{
			Dataset:      name,
			Update:       ur.Update,
			Fraction:     frac,
			DeltaSize:    ur.DeltaSize,
			Tasks:        ur.Tasks,
			Reused:       ur.Reused,
			Rerun:        ur.Rerun,
			Fresh:        ur.Fresh,
			Dropped:      ur.Dropped,
			SeedsDiffed:  ur.SeedsDiffed,
			DiffInstr:    ur.DiffInstr,
			UpdateInstr:  ur.UpdateInstr,
			FullInstr:    full.TotalInstr(),
			UpdateWallMs: float64(ur.Wall) / float64(time.Millisecond),
			FullWallMs:   float64(fullWall) / float64(time.Millisecond),
			Identical:    spam.SameOutputs(in, full),
		}
		points = append(points, pt)
	}
	return base, points, nil
}

// Incremental runs the experiment: per dataset, one session's initial
// interpretation followed by the churn ladder, each update raced
// against a from-scratch interpretation of the updated scene;
// repeated incrementalReps times with min-of-N wall clocks. The report
// is cached on the suite so text rendering and -json emission share
// one run.
func (s *Suite) Incremental() (*IncrementalReport, error) {
	if s.incr != nil {
		return s.incr, nil
	}
	scale := s.Opt.SubsetScale
	if scale == 0 {
		scale = 1
	}
	opt := spam.InterpretOptions{Workers: incrementalWorkers, Sched: s.Opt.Sched}
	rep := &IncrementalReport{
		Schema:  IncrementalSchema,
		Scale:   scale,
		Workers: opt.Workers,
		Seed:    incrementalSeed,
	}
	for _, name := range Datasets {
		var base IncrementalBase
		var points []IncrementalPoint
		for r := 0; r < incrementalReps; r++ {
			b, pts, err := s.incrementalLadder(name, opt)
			if err != nil {
				return nil, err
			}
			if r == 0 {
				base, points = b, pts
				continue
			}
			// Charged figures and outputs are deterministic; keep the
			// first repetition and fold in only the faster wall samples.
			if b.WallMs < base.WallMs {
				base.WallMs = b.WallMs
			}
			for i := range points {
				if pts[i].UpdateWallMs < points[i].UpdateWallMs {
					points[i].UpdateWallMs = pts[i].UpdateWallMs
				}
				if pts[i].FullWallMs < points[i].FullWallMs {
					points[i].FullWallMs = pts[i].FullWallMs
				}
			}
		}
		for i := range points {
			if points[i].FullInstr > 0 {
				points[i].ChargedRatio = points[i].UpdateInstr / points[i].FullInstr
			}
			if points[i].FullWallMs > 0 {
				points[i].WallRatio = points[i].UpdateWallMs / points[i].FullWallMs
			}
		}
		rep.Initial = append(rep.Initial, base)
		rep.Points = append(rep.Points, points...)
	}
	s.incr = rep
	return rep, nil
}

// Check validates the report's invariants: the full churn ladder on
// every dataset, every update's outputs identical to from-scratch,
// genuine reuse and genuine re-running at every point, and the diff
// charge honestly included. At the calibrated scale (>= 1) it also
// enforces the headline proportionality bound — a 1% churn update on
// DC under 15% of the full re-interpretation's charged cost. The bound
// is scale-conditional because small subset scenes have pathological
// locality: constraint radii are absolute while Scale shrinks the
// scene extent, so at small scales one moved region genuinely partners
// with much of the scene and the re-runs are semantically required.
func (r *IncrementalReport) Check() error {
	if r.Schema != IncrementalSchema {
		return fmt.Errorf("incremental: schema %q, want %q", r.Schema, IncrementalSchema)
	}
	base := map[string]IncrementalBase{}
	for _, b := range r.Initial {
		if b.Tasks == 0 || b.Instr <= 0 {
			return fmt.Errorf("incremental: %s initial run is vacuous: %+v", b.Dataset, b)
		}
		base[b.Dataset] = b
	}
	points := map[string][]IncrementalPoint{}
	for _, p := range r.Points {
		points[p.Dataset] = append(points[p.Dataset], p)
	}
	for _, ds := range Datasets {
		if _, ok := base[ds]; !ok {
			return fmt.Errorf("incremental: dataset %s has no initial run", ds)
		}
		pts := points[ds]
		if len(pts) != len(incrementalFractions) {
			return fmt.Errorf("incremental: dataset %s has %d points, want %d",
				ds, len(pts), len(incrementalFractions))
		}
		for i, p := range pts {
			if p.Fraction != incrementalFractions[i] {
				return fmt.Errorf("incremental: %s point %d churn %g, want %g",
					ds, i, p.Fraction, incrementalFractions[i])
			}
			if !p.Identical {
				return fmt.Errorf("incremental: %s churn %g outputs differ from from-scratch",
					ds, p.Fraction)
			}
			if p.DeltaSize == 0 {
				return fmt.Errorf("incremental: %s churn %g produced an empty delta", ds, p.Fraction)
			}
			// Reuse is only guaranteed at low churn: at 20% the confidence
			// cascade can touch every downstream task.
			if p.Reused == 0 && p.Fraction < 0.1 {
				return fmt.Errorf("incremental: %s churn %g reused nothing: %+v", ds, p.Fraction, p)
			}
			if p.Rerun+p.Fresh == 0 {
				return fmt.Errorf("incremental: %s churn %g re-ran nothing: %+v", ds, p.Fraction, p)
			}
			if p.DiffInstr <= 0 || p.UpdateInstr < p.DiffInstr {
				return fmt.Errorf("incremental: %s churn %g diff charge unaccounted: %+v", ds, p.Fraction, p)
			}
			// No upper bound of 1 on the ratio: an update is charged the
			// from-scratch cost of the tasks it ran plus the diff scan, so
			// when churn re-runs everything it (honestly) exceeds a
			// from-scratch run by that scan. The proportionality claim
			// lives in the calibrated-scale low-churn gate below.
			if p.ChargedRatio <= 0 {
				return fmt.Errorf("incremental: %s churn %g charged ratio %g not positive",
					ds, p.Fraction, p.ChargedRatio)
			}
		}
	}
	if r.Scale >= 1 {
		for _, p := range points["DC"] {
			if p.Fraction == 0.01 {
				if p.ChargedRatio >= 0.15 {
					return fmt.Errorf("incremental: DC 1%% churn charged %.1f%% of full re-interpretation, want < 15%%",
						100*p.ChargedRatio)
				}
				if p.WallRatio >= 0.15 {
					return fmt.Errorf("incremental: DC 1%% churn took %.1f%% of full re-interpretation wall clock, want < 15%%",
						100*p.WallRatio)
				}
			}
		}
	}
	return nil
}

// ExtIncremental renders the experiment as text: one table per
// dataset. The full document ships in BENCH_8.json (spambench -json).
func (s *Suite) ExtIncremental() (string, error) {
	rep, err := s.Incremental()
	if err != nil {
		return "", err
	}
	if err := rep.Check(); err != nil {
		return "", err
	}
	base := map[string]IncrementalBase{}
	for _, b := range rep.Initial {
		base[b.Dataset] = b
	}
	var out string
	for _, ds := range Datasets {
		b := base[ds]
		tb := stats.Table{
			Title: fmt.Sprintf("Extension: incremental update cost vs churn, %s (%d regions, %d tasks, initial %s sec)",
				ds, b.Regions, b.Tasks, stats.FormatFloat(b.WallMs/1000)),
			Headers: []string{"Churn", "Δregions", "Reused", "Rerun", "Fresh", "Dropped",
				"Charged %", "Wall %", "Identical"},
		}
		for _, p := range rep.Points {
			if p.Dataset != ds {
				continue
			}
			tb.AddRow(fmt.Sprintf("%.0f%%", 100*p.Fraction), p.DeltaSize,
				p.Reused, p.Rerun, p.Fresh, p.Dropped,
				100*p.ChargedRatio, 100*p.WallRatio, p.Identical)
		}
		out += tb.String() + "\n"
	}
	out += fmt.Sprintf("Every update's outputs are byte-identical to from-scratch interpretation "+
		"(spam.SameOutputs over %d updates; the differential oracles enforce the same bar under -race).\n",
		len(rep.Points))
	return out, nil
}
