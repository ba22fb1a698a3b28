package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// referenceDecode is the strict decoding the request bodies are held
// to: encoding/json with unknown fields refused, then nothing but
// whitespace after the value.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// decodeBytes runs the server's decoder over body.
func decodeBytes(body []byte, v bodyValue) error {
	rd := readers.Get().(*reader)
	defer rd.release()
	return rd.decode(body, v)
}

// sameDecode decodes body into a T both ways and reports any
// difference: one accepts what the other refuses, they refuse in other
// words, or they accept different values (compared as Go values and as
// their JSON encodings, which tell -0 from 0).
func sameDecode[T any, P interface {
	*T
	bodyValue
}](body []byte) error {
	var got, want T
	err, ref := decodeBytes(body, P(&got)), referenceDecode(body, &want)
	switch {
	case (err == nil) != (ref == nil):
		return fmt.Errorf("%T: decoder error %v, encoding/json error %v", got, err, ref)
	case err != nil:
		if err.Error() != ref.Error() {
			return fmt.Errorf("%T: decoder refuses with %q, encoding/json with %q", got, err, ref)
		}
		return nil
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gb, wb) {
		return fmt.Errorf("%T: decoder value %s, encoding/json value %s", got, gb, wb)
	}
	return nil
}

// decodeSeeds are FuzzDecodeBody's corpus: the bodies FuzzRequestBodies
// posts, a benchmark body, and the corners of what encoding/json
// accepts.
func decodeSeeds(t testing.TB) []string {
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	airport := marshal(tinyScene("fuzz", 0))
	region := marshal(InlineRegion{ID: 100, Kind: "client-kind",
		Poly: [][2]float64{{3000, 2000}, {3400, 2000}, {3400, 2400}, {3000, 2400}}, Intensity: 88, Texture: 0.5})
	bodies, err := inlineBodies()
	if err != nil {
		t.Fatal(err)
	}
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	// The poly's extra element opens at depth 7: the body's object, the
	// inline scene, regions, a region, poly and the point hold it.
	atDepth := func(depth int) string {
		return `{"inline":{"regions":[{"poly":[[1,2,` + deep(depth-6) + `]]}]}}`
	}
	return []string{
		// FuzzRequestBodies' bodies.
		`{"inline":` + airport + `}`,
		`{"inline":` + airport + `,"reentry":true,"level":2,"rtfBatch":2,"tenant":"t1","deadlineMs":60000}`,
		`{"inline":` + airport + `,"degraded":true,"maxRetries":1,"firingBudget":50,"faults":{"seed":9,"buildFailRate":0.4,"permanentFraction":1}}`,
		`{"inline":` + airport + `,"rtfBatch":1000000000}`,
		`{"scene":"LAX"}`, `{"scene":"MOFF","level":9}`, `{"scene":"MOFF","bogus":1}`, `{}`, ``, `null`, `[]`, `{"inline":null}`,
		`{"scene":"SF","inline":{"regions":[]}}`,
		`{"inline":{"name":"x","domain":"lunar","regions":[{"id":1,"poly":[[0,0],[1,0],[1,1]]}]}}`,
		`{"inline":{"name":"x","regions":[{"id":1,"poly":[[0,0],[1,0],[1,1]]},{"id":1,"poly":[[2,0],[3,0],[3,1]]}]}}`,
		`{"session":"s1"}`, `{"session":"s1","churn":{"seed":5,"fraction":0.34}}`,
		`{"session":"s2","churn":{"seed":7,"fraction":0.5,"occlusion":1}}`,
		`{"session":"s1","removed":[6],"added":[` + region + `]}`, `{"session":"s1","moved":[` + region + `]}`,
		`{"session":"s1","removed":[1],"churn":{"seed":1,"fraction":0.1}}`,
		`{"session":"s1","churn":{"seed":1,"fraction":1,"emergent":1000000000}}`,
		`{"inline":` + airport + "} \t\r\n", `{"scene":"MOFF"} trailing garbage`, `{"scene":"MOFF"}{"scene":"SF"}`,
		`{"session":"s1"}]`, `{"session":"s1"}` + "\v",
		// A benchmark body.
		string(bodies[0]),
		// Repeated keys decode again into what is there, slices over
		// their backing arrays.
		`{"scene":"SF","scene":"DC","level":1,"level":2}`,
		`{"inline":{"name":"a","regions":[{"id":1,"poly":[[1,2],[3,4],[5,6]]}]},"inline":{"regions":[{"kind":"x"}]}}`,
		`{"removed":[1,2,3],"removed":[4],"removed":[5,null,null],"removed":[]}`,
		`{"inline":{"regions":[{"poly":[[1,2],[3,4]],"poly":[[5]],"poly":[null,null]}]}}`,
		`{"inline":{"regions":[{"id":1},{"id":2}],"regions":[{"kind":"k"}],"regions":[{},{}]}}`,
		`{"churn":{"seed":1},"churn":{"fraction":0.5},"churn":null,"churn":{"misseg":1}}`,
		// Keys in another case, folding as bytes.EqualFold does.
		`{"Scene":"SF"}`, `{"SCENE":"SF","ReEntry":true}`, `{"ſcene":"SF"}`, `{"ſcene":1}`,
		`{"inline":{"regions":[{"Kind":"runway","KIND":"taxiway"}]}}`,
		`{"inline":{"regions":[{"Kind":"x"}]}}`, `{"ıd":1}`, `{"scene":"SF"}`, `{"SCENeſ":"x"}`, `{"moved":[{"\u212aind":"x"}]}`,
		// Points of one and three elements.
		`{"inline":{"regions":[{"poly":[[1],[1,2,3],[1,2,{"a":[1,{}]}],[],[7,8]]}]}}`,
		`{"moved":[{"poly":[[1,2,"x"],[1,2,null],[1,2,true]]}]}`,
		// Nulls at every level.
		`{"inline":{"regions":null}}`, `{"inline":{"regions":[null]}}`, `{"inline":{"regions":[{"poly":null}]}}`,
		`{"inline":{"regions":[{"poly":[null,[null,null],[1,null]]}]}}`,
		`{"level":null,"scene":null,"reentry":null,"inline":{"name":null,"w":null,"regions":[{"id":null,"kind":null}]}}`,
		`{"churn":null}`, `{"churn":{"seed":null,"fraction":null}}`, `{"removed":[null]}`, `{"moved":null,"added":[null]}`,
		// Escapes, surrogate pairs and invalid UTF-8.
		`{"scene":"😀"}`, `{"scene":"\ud800"}`, `{"scene":"\ud800A"}`, `{"scene":"\udc00\ud800x"}`,
		`{"scene":"😀\ud83d"}`, `{"scene":"a\/b\"c\\d\b\f\n\r\t\u0000"}`,
		"{\"scene\":\"\xff\xfe\"}", "{\"sc\xffene\":1}", "{\"scene\":\"\xed\xa0\x80\"}", "{\"tenant\":\"\xe2\x82\"}",
		`{"scene":"a\x"}`, `{"scene":"\u12g4"}`, "{\"scene\":\"a\x01\"}", `{"é":1}`,
		// Numbers at the edges of int, uint64 and float64.
		`{"level":9223372036854775807}`, `{"level":9223372036854775808}`,
		`{"level":-9223372036854775808}`, `{"level":-9223372036854775809}`,
		`{"churn":{"seed":18446744073709551615}}`, `{"churn":{"seed":18446744073709551616}}`,
		`{"churn":{"seed":-1}}`, `{"churn":{"seed":-0}}`, `{"churn":{"seed":1e2}}`,
		`{"inline":{"w":1.7976931348623157e308,"h":-1.7976931348623157e308}}`, `{"inline":{"w":1.8e308}}`,
		`{"inline":{"w":4.9e-324,"h":1e-400}}`, `{"inline":{"w":-0,"h":0.1e+1}}`, `{"inline":{"w":1E-2,"h":-0.0e-0}}`,
		`{"level":1.0}`, `{"level":1e2}`, `{"level":-0}`, `{"rtfBatch":01}`, `{"level":-}`, `{"level":1.}`, `{"level":1e}`,
		`{"level":1e+}`, `{"level":.5}`, `{"level":+1}`, `{"level":1.5.2}`,
		// Type mismatches: the first in document order is the one
		// reported, and a syntax error anywhere beats it.
		`{"scene":1}`, `{"level":"1"}`, `{"reentry":1}`, `{"inline":[]}`, `{"inline":"x"}`, `{"inline":{"regions":{}}}`,
		`{"inline":{"regions":[{"poly":[[1,"2"]]}]}}`, `{"inline":{"regions":[{"id":1},"r"]}}`, `{"removed":{"a":1}}`,
		`{"level":"x","bogus":1}`, `{"bogus":1,"level":"x"}`, `{"level":"x","scene":1,"bogus":{"a":[}`,
		`{"churn":"x"}`, `{"churn":{"seed":"x"}}`, `{"moved":[{"poly":{}}]}`,
		// Syntax: truncation, separators, literals, depth.
		`{"scene"`, `{"scene":`, `{"scene":"SF"`, `{"scene":"SF",}`, `{"scene" "SF"}`, `{"scene":"SF" "level":1}`,
		`{,}`, `{"removed":[1,]}`, `{"removed":[1 2]}`, `{"removed":[,1]}`, `{"reentry":tru}`, `{"reentry":fals}`,
		`{"reentry":nul}`, `{"reentry":nulL}`, `{"reentry":t`, `{'scene':1}`, `{"scene":"SF"}}`,
		` `, "\t\n", `n`, `nul`, `nullx`, `null x`, `1x`, `truex`, `"x"`, `-`, `0x`, `[1,2]x`, `{}x`,
		atDepth(maxNestingDepth), atDepth(maxNestingDepth + 1), `{"bogus":` + deep(maxNestingDepth) + `}`,
	}
}

// FuzzDecodeBody holds the request bodies' decoder to encoding/json
// with unknown fields refused and a check for data after the value, on
// both body types: the same bodies accepted, the same words of refusal,
// and equal values.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, err := range []error{sameDecode[Request](body), sameDecode[DeltaRequest](body)} {
			if err != nil {
				t.Errorf("%q: %v", body, err)
			}
		}
	})
}

// TestParseFloatMatchesStrconv: the decoder's own rounding of short
// decimals gives strconv's float64, bit for bit, on random literals of
// 1 to 19 digits with the point anywhere, on ties to even, and on the
// literals it leaves to strconv.
func TestParseFloatMatchesStrconv(t *testing.T) {
	lits := []string{"9007199254740993", "9007199254740995", "18014398509481989", "0.5", "-0.0", "0",
		"4.9e-324", "1e23", "1.0000000000000002220446049250313080847263336181640625", "9999999999999999999",
		"0.0000000000000000001", "-1844674407370955.1615", "10000000000000000000", "3305.5300114744914"}
	rng := rand.New(rand.NewPCG(1990, 44))
	for range 200_000 {
		digits := 1 + rng.IntN(19)
		lit := []byte(strconv.FormatUint(rng.Uint64N(pow10[digits]), 10))
		if at := rng.IntN(len(lit) + 1); at < len(lit) {
			lit = append(lit[:at:at], append([]byte{'.'}, lit[at:]...)...)
			if at == 0 {
				lit = append([]byte{'0'}, lit...)
			}
		}
		if rng.IntN(2) == 0 {
			lit = append([]byte{'-'}, lit...)
		}
		lits = append(lits, string(lit))
	}
	for _, lit := range lits {
		r := &reader{data: []byte(lit)}
		got, err := parseFloat(r.number())
		want, werr := strconv.ParseFloat(lit, 64)
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (werr == nil) {
			t.Fatalf("%s: %v (%v), strconv %v (%v)", lit, got, err, want, werr)
		}
	}
}

// decodeRequests builds n POSTs of body, for decodeBody to read.
func decodeRequests(body []byte, n int) []*http.Request {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/interpret", bytes.NewReader(body))
	}
	return reqs
}

// TestDecodeBodyAllocationCeiling: a benchmark body — a 31-region
// inline scene, 47 KB of JSON — decodes in at most 80 KB of
// allocation, reading it included (encoding/json's Decoder allocated
// ≈179 KB: it grows its buffer to hold the body and builds every
// polygon by doubling).
func TestDecodeBodyAllocationCeiling(t *testing.T) {
	const byteCeiling, n = 80 << 10, 50
	bodies, err := inlineBodies()
	if err != nil {
		t.Fatal(err)
	}
	body := bodies[0]
	w := httptest.NewRecorder()
	for _, r := range decodeRequests(body, 2) { // warm the reader pool
		if aerr := decodeBody(w, r, new(Request)); aerr != nil {
			t.Fatal(aerr.msg)
		}
	}
	reqs := decodeRequests(body, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		if aerr := decodeBody(w, r, new(Request)); aerr != nil {
			t.Fatal(aerr.msg)
		}
	}
	runtime.ReadMemStats(&after)
	perBody := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B of body: %d B allocated a decode", len(body), perBody)
	if perBody > byteCeiling {
		t.Errorf("a benchmark body decodes in %d B, ceiling %d", perBody, byteCeiling)
	}
}

// BenchmarkDecodeBody decodes a benchmark body through decodeBody and
// through the encoding/json reference it replaced.
func BenchmarkDecodeBody(b *testing.B) {
	bodies, err := inlineBodies()
	if err != nil {
		b.Fatal(err)
	}
	body := bodies[0]
	for _, c := range []struct {
		name   string
		decode func(w http.ResponseWriter, r *http.Request) error
	}{
		{"decoder", func(w http.ResponseWriter, r *http.Request) error {
			if aerr := decodeBody(w, r, new(Request)); aerr != nil {
				return fmt.Errorf("%s", aerr.msg)
			}
			return nil
		}},
		{"encoding-json", func(w http.ResponseWriter, r *http.Request) error {
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
			dec.DisallowUnknownFields()
			if err := dec.Decode(new(Request)); err != nil {
				return err
			}
			if _, err := dec.Token(); err != io.EOF {
				return errTrailing
			}
			return nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, r, rd := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/interpret", nil), bytes.NewReader(body)
			r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				if err := c.decode(w, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
