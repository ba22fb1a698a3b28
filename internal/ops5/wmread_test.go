package ops5

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spampsm/internal/symtab"
)

// TestAtomValues: an atom has one value at every site that reads one —
// a working-memory file, a constant test, a disjunction, a make — and a
// bare atom is a number only in decimal syntax, a |quoted| one never.
func TestAtomValues(t *testing.T) {
	for _, c := range []struct {
		atom string
		want symtab.Value
	}{
		{"12", symtab.Int(12)}, {"12.0", symtab.Float(12)}, {"-2.5e1", symtab.Float(-25)},
		{"|12|", symtab.Sym("12")}, {"|12.0|", symtab.Sym("12.0")}, {"|a b|", symtab.Sym("a b")},
		{"nan", symtab.Sym("nan")}, {"inf", symtab.Sym("inf")}, {"+Inf", symtab.Sym("+Inf")},
		{"1_000", symtab.Sym("1_000")}, {"0x1p3", symtab.Sym("0x1p3")}, {"runway", symtab.Sym("runway")},
	} {
		specs, err := ParseWMEList("(c ^a " + c.atom + ")")
		if err != nil {
			t.Fatalf("%s: %v", c.atom, err)
		}
		prog, err := Parse(fmt.Sprintf("(literalize c a)(p r (c ^a %[1]s) (c ^a << %[1]s >>) --> (make c ^a %[1]s))", c.atom))
		if err != nil {
			t.Fatalf("%s: %v", c.atom, err)
		}
		p := prog.Productions[0]
		for i, got := range []symtab.Value{
			specs[0].Sets["a"],
			p.LHS[0].Tests[0].Terms[0].Val,
			p.LHS[1].Tests[0].Terms[0].Disj[0],
			p.RHS[0].(MakeAction).Sets[0].Expr.(LitExpr).Val,
		} {
			if got != c.want {
				site := [...]string{"wm file", "test", "disjunction", "make"}[i]
				t.Errorf("%s in a %s reads as %v (%v), want %v (%v)", c.atom, site, got, got.Kind(), c.want, c.want.Kind())
			}
		}
	}
}

// FuzzParseWMEList: no working-memory file (ops5run -wm) panics the
// reader; every error names a line inside the input; and what the
// reader accepts reads back to Equal specs when re-emitted by the same
// atom rules — which a NaN, never Equal to itself, fails.
func FuzzParseWMEList(f *testing.F) {
	files, err := filepath.Glob("../../examples/ops5/*.wm")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example working memories: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("(c ^a nan ^b inf ^c |12| ^d 12.0)")
	f.Add("(c ^a 1_000 ^b 0x1p3 ^c +Inf ^d -0.0)\n(|a b| ^|x y| |(1)| ^e ||)")
	f.Add("(c ^a |two\nlines|)\n(c ^b")
	f.Fuzz(func(t *testing.T, src string) {
		specs, err := ParseWMEList(src)
		if err != nil {
			lines := strings.Count(src, "\n") + 1
			var line int
			if _, scanErr := fmt.Sscanf(err.Error(), "ops5: line %d:", &line); scanErr != nil || line < 1 || line > lines {
				t.Fatalf("error %q names no line of the %d-line input", err, lines)
			}
			return
		}
		out := emitWMEList(specs)
		again, err := ParseWMEList(out)
		if err != nil {
			t.Fatalf("re-emitted specs do not parse: %v\n%s", err, out)
		}
		if len(again) != len(specs) {
			t.Fatalf("%d specs read back as %d:\n%s", len(specs), len(again), out)
		}
		for i, s := range specs {
			r := again[i]
			if r.Class != s.Class || len(r.Sets) != len(s.Sets) {
				t.Fatalf("spec %d: %q with %d values read back as %q with %d", i, s.Class, len(s.Sets), r.Class, len(r.Sets))
			}
			for attr, v := range s.Sets {
				if w, ok := r.Sets[attr]; !ok || !w.Equal(v) {
					t.Fatalf("spec %d ^%s: %v (%v) read back as %v (%v)\n%s", i, attr, v, v.Kind(), w, w.Kind(), out)
				}
			}
		}
	})
}

// emitWMEList writes specs as a working-memory file, attributes sorted.
func emitWMEList(specs []WMESpec) string {
	var b strings.Builder
	for _, s := range specs {
		b.WriteString("(" + emitAtom(s.Class, false))
		attrs := make([]string, 0, len(s.Sets))
		for a := range s.Sets {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			v := s.Sets[a]
			text := v.String()
			if v.Kind() == symtab.KindSym {
				text = emitAtom(text, true)
			}
			b.WriteString(" ^" + emitAtom(a, false) + " " + text)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// emitAtom writes a name bare when it lexes back as itself — and, for a
// symbol value, reads back as that symbol — and in |bars| otherwise.
func emitAtom(name string, symbol bool) string {
	toks, err := lexAll(name)
	if err == nil && len(toks) == 2 && toks[0].kind == tokAtom && toks[0].text == name &&
		(!symbol || toks[0].value() == symtab.Sym(name)) {
		return name
	}
	return "|" + name + "|"
}
