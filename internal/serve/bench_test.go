package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"spampsm/internal/scene"
)

// inlineBodies are the request bodies of the benchmark's
// serve_inline_small workload at its default seed: 200 inline DC ×0.3
// scenes with re-entry, built once a process.
var inlineBodies = sync.OnceValues(func() ([][]byte, error) {
	bodies := make([][]byte, 200)
	for i := range bodies {
		p := scene.DC.Scale(0.3)
		p.Name = "bench-" + strconv.Itoa(i)
		p.Seed = 1990 + uint64(i)
		s := scene.Generate(p)
		is := &InlineScene{Name: s.Name, Domain: string(s.Domain), W: s.W, H: s.H}
		for _, r := range s.Regions {
			ir := InlineRegion{ID: r.ID, Intensity: r.Intensity, Texture: r.Texture, Kind: string(r.TrueKind)}
			for _, pt := range r.Poly {
				ir.Poly = append(ir.Poly, [2]float64{pt.X, pt.Y})
			}
			is.Regions = append(is.Regions, ir)
		}
		body, err := json.Marshal(Request{Inline: is, ReEntry: true})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
})

// BenchmarkInlineRequest is the benchmark's serve_inline_small op: POST
// /interpret of one of inlineBodies to a one-worker server through
// httptest, cycling through all 200 so that every request misses the
// dataset cache. `make cpu-profile` profiles it.
func BenchmarkInlineRequest(b *testing.B) {
	bodies, err := inlineBodies()
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer s.Close()
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/interpret", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("POST /interpret: %s", resp.Status)
		}
	}
}
