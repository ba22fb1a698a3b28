package serve

import (
	"testing"
)

// maxNestingDepth is encoding/json's bound on nested arrays and
// objects, which FuzzDecodeBody's corpus probes.
const maxNestingDepth = 10000

// TestBenchmarkBodiesTakeTheFastPath: every body the serve_inline_small
// workload posts decodes on the fast path, to encoding/json's value,
// without touching the fallback.
func TestBenchmarkBodiesTakeTheFastPath(t *testing.T) {
	bodies, err := inlineBodies()
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 200 {
		t.Fatalf("%d benchmark bodies, want 200", len(bodies))
	}
	rd := readers.Get().(*reader)
	defer rd.release()
	for i, body := range bodies {
		if !rd.fast(body, new(Request)) {
			t.Fatalf("body %d fell back to encoding/json", i)
		}
		if err := sameDecode[Request](body); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
	}
}

// TestFallbackGetsReferenceValue: a body the fast path hands off — an
// escape, a case-folded key, a repeated key, an exponent, a null, a
// point of three elements — gets encoding/json's value, also when the
// fast path had written part of it before it met the odd input.
func TestFallbackGetsReferenceValue(t *testing.T) {
	requests := []string{
		`{"scene":"S\u0046"}`,
		`{"Scene":"SF","level":1}`,
		`{"scene":"SF","scene":"DC"}`,
		`{"scene":"SF","inline":{"name":"x","w":100,"h":2e2}}`,
		`{"inline":{"regions":[{"id":1,"poly":[[0,0],[1,0],[1,1]]},{"id":2,"poly":[[0,0],[1,0,5],[1,1]]}]}}`,
		`{"scene":"SF","inline":null,"reentry":true}`,
		"{\"tenant\":\"caf\xc3\xa9\"}",
	}
	deltas := []string{
		`{"session":"s1","removed":[1,2],"churn":{"seed":1,"fraction":5E-1}}`,
		`{"session":"s1","moved":[{"id":3,"KIND":"runway"}]}`,
		`{"session":"s1","churn":{"seed":1},"churn":{"fraction":0.5}}`,
	}
	rd := readers.Get().(*reader)
	defer rd.release()
	for _, body := range requests {
		if rd.fast([]byte(body), new(Request)) {
			t.Errorf("%s: decoded on the fast path", body)
		}
		if err := sameDecode[Request]([]byte(body)); err != nil {
			t.Error(err)
		}
	}
	for _, body := range deltas {
		if rd.fast([]byte(body), new(DeltaRequest)) {
			t.Errorf("%s: decoded on the fast path", body)
		}
		if err := sameDecode[DeltaRequest]([]byte(body)); err != nil {
			t.Error(err)
		}
	}
}
