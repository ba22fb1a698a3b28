package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"testing"

	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/symtab"
)

// idOrderChildEnv makes TestMain run idOrderChild instead of the tests.
const idOrderChildEnv = "SPAMPSM_CLUSTER_IDORDER_CHILD"

// idOrderFingerprint interprets SF in-process and hashes everything
// that may leave the process or decide an order: wire frames, seed
// routing digests, and the interpretation's outputs. A symbol's intern
// id depends on which names the process happened to see first, so none
// of these bytes may depend on one.
func idOrderFingerprint() (string, error) {
	d, err := spam.NewDataset(airportParams("SF"))
	if err != nil {
		return "", err
	}
	opt := spam.InterpretOptions{Workers: 2, ReEntry: true}
	in, err := d.Interpret(opt)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer

	// (i) One task and its result as the cluster would frame them, each
	// over a fresh codec table — the first frame of a connection.
	task := spam.BuildLCCTasks(d.KB, d.Store, d.Progs.LCC, in.Fragments, spam.Level3, false)[0]
	spec, err := task.Wire()
	if err != nil {
		return "", err
	}
	msg := &TaskMsg{RunID: 1, StartAttempt: 1, ID: task.ID, Label: task.Label, Group: task.Group,
		Config: opt.RunConfig(), Spec: *spec}
	fmt.Fprintf(&out, "task-frame %x\n", sha256.Sum256(EncodeTaskV2(NewEncTab(), msg, nil)))
	e, err := task.BuildWith(nil)
	if err != nil {
		return "", err
	}
	if _, err := e.Run(0); err != nil {
		return "", err
	}
	res := &ResultMsg{RunID: 1, Attempts: 1, Stats: e.Stats(), Snapshot: snapRows(e, spec.Extract, keepOf(d, spec))}
	fmt.Fprintf(&out, "result-frame %x\n", sha256.Sum256(EncodeResultV2(NewEncTab(), res)))

	// (ii) The routing digest of every fragment seed, in ID order: what
	// the session signer hashes and the chunk table is keyed by.
	sc, err := d.Progs.LCC.SeedClass("fragment")
	if err != nil {
		return "", err
	}
	frags := append([]*spam.Fragment(nil), in.Fragments...)
	sort.Slice(frags, func(i, j int) bool { return frags[i].ID < frags[j].ID })
	h := sha256.New()
	for _, f := range frags {
		s, err := d.Store.FragmentSeed(sc, f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(s.Digest))
	}
	fmt.Fprintf(&out, "route-digests %x\n", h.Sum(nil))

	// (iii) The fields spam.SameOutputs compares, as text.
	h.Reset()
	for _, f := range in.Fragments {
		fmt.Fprintf(h, "%+v\n", *f)
	}
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n%+v\n%v %+v\n",
		in.Pairs, in.Outcomes, in.FAs, in.Predictions, in.ModelFound, in.Model)
	fmt.Fprintf(&out, "outputs %x\n", h.Sum(nil))
	return out.String(), nil
}

// idOrderChild fills the intern table in an order no natural run
// would — throwaway names first, then the names the knowledge base is
// about to use, last first — and prints the fingerprint.
func idOrderChild() {
	for i := 0; i < 300; i++ {
		symtab.Sym(fmt.Sprintf("throwaway-%d", i))
	}
	vocab := []string{"weak", "consistent", "closed", "hypothesized", "measured", "active", "f", "t"}
	for _, k := range []scene.Kind{scene.Noise, scene.Lot, scene.Road, scene.Tarmac, scene.Grass,
		scene.Hangar, scene.Apron, scene.Terminal, scene.Taxiway, scene.Runway} {
		vocab = append(vocab, string(k))
	}
	for _, s := range vocab {
		symtab.Sym(s)
	}
	fp, err := idOrderFingerprint()
	if err != nil {
		fmt.Fprintln(os.Stderr, "id-order child:", err)
		os.Exit(1)
	}
	fmt.Print(fp)
}

// TestDifferentialInternOrder: a process whose intern table filled in a
// different order prints the same fingerprint. It has to be another
// process: within one, encoder and decoder share a table, so a raw id
// on the wire would round-trip unnoticed.
func TestDifferentialInternOrder(t *testing.T) {
	want, err := idOrderFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), idOrderChildEnv+"=1")
	cmd.Stderr = os.Stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	if string(got) != want {
		t.Errorf("fingerprint depends on intern order:\nthis process:\n%sscrambled child:\n%s", want, got)
	}
}
