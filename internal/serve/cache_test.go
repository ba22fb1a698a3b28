package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// jsonDigestKey is the inline cache key as a SHA-256 of the scene's
// JSON encoding: the partition inlineKey must keep.
func jsonDigestKey(t *testing.T, is *InlineScene) string {
	b, err := json.Marshal(is)
	if err != nil {
		t.Fatalf("a decoded scene does not encode: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FuzzInlineKey decodes two inline scenes and requires inlineKey to
// call them equal exactly when a digest of their JSON encoding does:
// whitespace, field order and number spelling share an entry; a
// coordinate one ulp away, -0 against 0, region order, a changed kind
// and a nil list against an empty one do not.
func FuzzInlineKey(f *testing.F) {
	const tri = `[[0,0],[100,0],[0,1]]`
	for _, pair := range [][2]string{
		{`{"name":"a","regions":[{"id":1,"poly":` + tri + `}]}`,
			"{ \"name\" : \"a\",\n\t\"regions\" : [ {\"id\":1, \"poly\":" + tri + "} ] }"},
		{`{"name":"a","domain":"airport","w":10,"h":20}`, `{"h":20,"w":10,"domain":"airport","name":"a"}`},
		{`{"w":100,"regions":[{"id":1,"poly":[[100,0]]}]}`, `{"w":1e2,"regions":[{"id":1,"poly":[[100.0,0]]}]}`},
		{`{"regions":[{"id":1,"poly":[[0.1,0]]}]}`, `{"regions":[{"id":1,"poly":[[0.10000000000000002,0]]}]}`},
		{`{"regions":[{"id":1,"poly":[[0,0]]}]}`, `{"regions":[{"id":1,"poly":[[-0,0]]}]}`},
		{`{"regions":[{"id":1,"poly":` + tri + `},{"id":2,"poly":` + tri + `}]}`,
			`{"regions":[{"id":2,"poly":` + tri + `},{"id":1,"poly":` + tri + `}]}`},
		{`{"regions":[{"id":1,"kind":"runway","poly":` + tri + `}]}`, `{"regions":[{"id":1,"kind":"taxiway","poly":` + tri + `}]}`},
		{`{"regions":[{"id":1,"kind":"","poly":` + tri + `}]}`, `{"regions":[{"id":1,"poly":` + tri + `}]}`},
		{`{"regions":null}`, `{"regions":[]}`},
		{`{"regions":[{"id":1,"poly":null}]}`, `{"regions":[{"id":1,"poly":[]}]}`},
		{`{"name":"ab","domain":""}`, `{"name":"a","domain":"b"}`},
		{`{"name":"\ud800"}`, `{"name":"�"}`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var x, y InlineScene
		if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
			return
		}
		same := jsonDigestKey(t, &x) == jsonDigestKey(t, &y)
		if got := inlineKey(&x) == inlineKey(&y); got != same {
			t.Errorf("%s vs %s: keys equal %v, JSON digests equal %v", a, b, got, same)
		}
	})
}
