package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/serve"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

const (
	// servedScenes distinct inline scenes, cycled in order, are about
	// twice what the default SceneCacheRegions holds: every request
	// misses the dataset cache and, once it is full, evicts.
	servedScenes = 200
	// servedScale shrinks DC until the fixed costs dominate: JSON
	// decode, dataset build, admission, one SharedPool.Submit per phase,
	// engine instantiation, response encode, a cold geometry memo.
	servedScale = 0.3
)

// served is the multi-tenant path: POST /interpret with an inline
// scene against serve.New(Config{Workers: 1}), one client.
type served struct {
	base
	p    *probe
	seed uint64

	srv    *serve.Server
	ts     *httptest.Server
	scenes []*scene.Scene
	bodies [][]byte
	// replies holds every response, by scene, until finish compares
	// them; comparing earlier would run the reference interpretations
	// beside the timed sections.
	replies [][][]byte
	traced  map[int]bool // scenes a traced op requested

	kb    *spam.KB
	progs *spam.Programs
}

func (w *served) calibEvery() int { return 10 }

func (w *served) setup() error {
	w.srv = serve.New(serve.Config{Workers: 1})
	w.ts = httptest.NewServer(w.srv.Handler())
	for i := 0; i < servedScenes; i++ {
		s, body, err := inlineRequest(w.seed, i)
		if err != nil {
			return err
		}
		w.scenes, w.bodies = append(w.scenes, s), append(w.bodies, body)
	}
	w.replies = make([][][]byte, servedScenes)
	w.traced = map[int]bool{}
	return w.run(-1, 0)
}

// inlineRequest generates the i-th scene for a seed and its request
// body; the same (seed, i) yields the same bytes.
func inlineRequest(seed uint64, i int) (*scene.Scene, []byte, error) {
	p := scene.DC.Scale(servedScale)
	p.Name = "bench-" + strconv.Itoa(i)
	p.Seed = seed + uint64(i)
	s := scene.Generate(p)
	inline := &serve.InlineScene{Name: s.Name, Domain: string(s.Domain), W: s.W, H: s.H}
	for _, r := range s.Regions {
		ir := serve.InlineRegion{ID: r.ID, Intensity: r.Intensity, Texture: r.Texture, Kind: string(r.TrueKind)}
		for _, pt := range r.Poly {
			ir.Poly = append(ir.Poly, [2]float64{pt.X, pt.Y})
		}
		inline.Regions = append(inline.Regions, ir)
	}
	body, err := json.Marshal(serve.Request{Inline: inline, ReEntry: true})
	return s, body, err
}

// run posts scene op+1 (set-up posted scene 0), so a scene returns only
// after servedScenes-1 others have pushed it out of the cache.
func (w *served) run(op, _ int) error {
	i := (op + 1) % servedScenes
	tr := w.p.tracer()
	id := tr.begin("serve.http", -1, op)
	start := time.Now()
	resp, err := w.ts.Client().Post(w.ts.URL+"/interpret", "application/json", bytes.NewReader(w.bodies[i]))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	httpMs := msSince(start)
	tr.end(id)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /interpret: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	w.replies[i] = append(w.replies[i], body)
	if tr != nil {
		handlerMs, err := strconv.ParseFloat(resp.Header.Get("X-Elapsed-Ms"), 64)
		if err != nil {
			return fmt.Errorf("X-Elapsed-Ms: %w", err)
		}
		w.traced[i] = true
		w.p.httpMs += httpMs
		w.p.handlerMs += handlerMs
		w.p.requestBytes += len(w.bodies[i])
		w.p.responseBytes += len(body)
	}
	return nil
}

// finish interprets every requested scene directly, in-process on a
// private pool, and holds each response to that reference: per-phase
// task, firing and hypothesis counts, and whether a model was found.
// On a traced run the same pass, timed, is serve.direct_ms, and a
// serial replay follows it.
func (w *served) finish() int {
	w.kb = spam.AirportKB()
	progs, err := spam.BuildPrograms(w.kb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	w.progs = progs
	pool := poolRunner{&tlp.Pool{Workers: 1}}
	bad := 0
	for i, replies := range w.replies {
		if len(replies) == 0 {
			continue
		}
		want, err := w.direct(i, pool)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: scene %d: direct interpretation: %v\n", i, err)
			bad += len(replies)
			continue
		}
		for _, body := range replies {
			if err := sameReply(want, body); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: scene %d: %v\n", i, err)
				bad++
			}
		}
	}
	return bad
}

func (w *served) direct(i int, pool spam.Runner) (*spam.Interpretation, error) {
	d := spam.NewDatasetWith(w.scenes[i], w.kb, w.progs)
	if !w.traced[i] {
		opts := interpretOptions()
		opts.Runner = pool
		return d.InterpretContext(context.Background(), opts)
	}
	w.p.on = true
	defer func() { w.p.on = false }()
	start := time.Now()
	in, err := interpretTraced(w.p, i, d, pool)
	if err != nil {
		return nil, err
	}
	w.p.directMs += msSince(start)
	w.p.tracedOps++
	// The replay gets a dataset of its own: a geometry memo as cold as
	// the one the server and the direct pass started from.
	again, err := interpretReplay(w.p, spam.NewDatasetWith(w.scenes[i], w.kb, w.progs))
	if err != nil {
		return nil, err
	}
	w.p.replayOps++
	if !spam.SameOutputs(in, again) {
		return nil, fmt.Errorf("serial replay changed the interpretation")
	}
	return in, nil
}

// sameReply compares a response with the direct interpretation.
func sameReply(want *spam.Interpretation, body []byte) error {
	var got serve.Response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if got.ModelFound != want.ModelFound || len(got.Phases) != len(want.Phases) || !got.Completeness.Complete {
		return fmt.Errorf("response differs from the direct interpretation: modelFound=%v phases=%d complete=%v",
			got.ModelFound, len(got.Phases), got.Completeness.Complete)
	}
	for k, ph := range want.Phases {
		g := got.Phases[k]
		if g.Phase != ph.Phase || g.Tasks != ph.Tasks || g.Firings != ph.Firings || g.Hypotheses != ph.Hypotheses {
			return fmt.Errorf("phase %s: served tasks/firings/hypotheses %d/%d/%d, direct %d/%d/%d",
				ph.Phase, g.Tasks, g.Firings, g.Hypotheses, ph.Tasks, ph.Firings, ph.Hypotheses)
		}
	}
	return nil
}

func (w *served) close() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close()
	}
}

func (w *served) tracePairs(seconds int) int { return min(5*seconds, servedScenes/2) }

func (w *served) layerMetrics(vals map[string]float64, ops int, _ *meter) {
	// A traced op is a request here; tracedOps counted direct passes,
	// one per distinct traced scene, and the two agree because
	// tracePairs never wraps the scene cycle.
	n := float64(w.p.tracedOps)
	vals["serve.http_ms"] = w.p.httpMs / n
	vals["serve.handler_ms"] = w.p.handlerMs / n
	vals["serve.transport_ms"] = (w.p.httpMs - w.p.handlerMs) / n
	vals["serve.direct_ms"] = w.p.directMs / n
	vals["serve.self_ms"] = (w.p.handlerMs - w.p.directMs) / n
	vals["serve.request_kb"] = float64(w.p.requestBytes) / 1024 / n
	vals["serve.response_kb"] = float64(w.p.responseBytes) / 1024 / n
	st := w.srv.Stats()
	vals["serve.cache_misses"] = float64(st.SceneCache.Misses) / float64(st.Requests)
	vals["serve.cache_evictions"] = float64(st.SceneCache.Evictions) / float64(st.Requests)
	vals["serve.shed"] = float64(st.Shed)
}
