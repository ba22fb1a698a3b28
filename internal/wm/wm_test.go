package wm

import (
	"strings"
	"testing"

	"spampsm/internal/symtab"
)

func TestDeclareAndLookup(t *testing.T) {
	cs := NewClasses()
	c, err := cs.Declare("fragment", "id", "type", "confidence")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Lookup("fragment") != c {
		t.Error("lookup should return the declared class")
	}
	if cs.Lookup("nope") != nil {
		t.Error("lookup of undeclared class should be nil")
	}
	if _, err := cs.Declare("fragment", "x"); err == nil {
		t.Error("redeclaration must fail")
	}
	if _, err := cs.Declare("bad", "a", "a"); err == nil {
		t.Error("duplicate attribute must fail")
	}
}

func TestAttrIndex(t *testing.T) {
	c, _ := NewClassDef("region", "id", "area", "class")
	if c.AttrIndex("id") != 0 || c.AttrIndex("area") != 1 || c.AttrIndex("class") != 2 {
		t.Error("attribute indices wrong")
	}
	if c.AttrIndex("absent") != -1 {
		t.Error("absent attribute must index -1")
	}
	if c.NumAttrs() != 3 {
		t.Error("NumAttrs wrong")
	}
}

func TestMakeRemove(t *testing.T) {
	cs := NewClasses()
	if _, err := cs.Declare("goal", "phase", "status"); err != nil {
		t.Fatal(err)
	}
	m := NewMemory(cs)
	w1, err := m.Make("goal", map[string]symtab.Value{"phase": symtab.Sym("lcc")})
	if err != nil {
		t.Fatal(err)
	}
	if w1.TimeTag != 1 {
		t.Errorf("first timetag = %d", w1.TimeTag)
	}
	if got := w1.Get("phase"); !got.Equal(symtab.Sym("lcc")) {
		t.Errorf("phase = %v", got)
	}
	if !w1.Get("status").IsNil() {
		t.Error("unset attribute must be Nil")
	}
	w2, _ := m.Make("goal", nil)
	if w2.TimeTag != 2 {
		t.Errorf("second timetag = %d", w2.TimeTag)
	}
	if m.Size() != 2 {
		t.Errorf("size = %d", m.Size())
	}
	if err := m.Remove(w1); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(w1); err == nil {
		t.Error("double remove must fail")
	}
	if m.Size() != 1 {
		t.Errorf("size after remove = %d", m.Size())
	}
}

func TestMakeErrors(t *testing.T) {
	cs := NewClasses()
	cs.Declare("goal", "phase")
	m := NewMemory(cs)
	if _, err := m.Make("nothere", nil); err == nil {
		t.Error("make of undeclared class must fail")
	}
	if _, err := m.Make("goal", map[string]symtab.Value{"zap": symtab.Int(1)}); err == nil {
		t.Error("make with undeclared attribute must fail")
	}
}

func TestSnapshotAndOfClass(t *testing.T) {
	cs := NewClasses()
	cs.Declare("a", "x")
	cs.Declare("b", "y")
	m := NewMemory(cs)
	m.Make("a", map[string]symtab.Value{"x": symtab.Int(1)})
	m.Make("b", map[string]symtab.Value{"y": symtab.Int(2)})
	m.Make("a", map[string]symtab.Value{"x": symtab.Int(3)})
	snap := m.Snapshot()
	if len(snap) != 3 || snap[0].TimeTag != 1 || snap[2].TimeTag != 3 {
		t.Errorf("snapshot = %v", snap)
	}
	as := m.OfClass("a")
	if len(as) != 2 || !as[1].Get("x").Equal(symtab.Int(3)) {
		t.Errorf("OfClass(a) = %v", as)
	}
	if len(m.OfClass("zzz")) != 0 {
		t.Error("OfClass of unknown class must be empty")
	}
	// A removed WME leaves a hole the walks skip; tags are never reused
	// and the order stays tag order.
	if err := m.Remove(snap[0]); err != nil {
		t.Fatal(err)
	}
	w4, _ := m.Make("a", map[string]symtab.Value{"x": symtab.Int(4)})
	snap = m.Snapshot()
	if len(snap) != 3 || snap[0].TimeTag != 2 || snap[1].TimeTag != 3 || snap[2] != w4 || w4.TimeTag != 4 {
		t.Errorf("snapshot after remove+make = %v", snap)
	}
	if as = m.OfClass("a"); len(as) != 2 || as[0].TimeTag != 3 || as[1] != w4 {
		t.Errorf("OfClass(a) after remove+make = %v", as)
	}
	if m.Size() != 3 || m.PeakSize() != 3 {
		t.Errorf("size = %d, peak = %d, want 3, 3", m.Size(), m.PeakSize())
	}
}

func TestWMEString(t *testing.T) {
	cs := NewClasses()
	cs.Declare("frag", "id", "type")
	m := NewMemory(cs)
	w, _ := m.Make("frag", map[string]symtab.Value{
		"id": symtab.Int(7), "type": symtab.Sym("runway"),
	})
	s := w.String()
	for _, want := range []string{"frag", "^id 7", "^type runway"} {
		if !strings.Contains(s, want) {
			t.Errorf("WME string %q missing %q", s, want)
		}
	}
}

func TestGetAt(t *testing.T) {
	cs := NewClasses()
	cs.Declare("frag", "id")
	m := NewMemory(cs)
	w, _ := m.Make("frag", map[string]symtab.Value{"id": symtab.Int(4)})
	if !w.GetAt(0).Equal(symtab.Int(4)) {
		t.Error("GetAt(0) wrong")
	}
	if !w.GetAt(5).IsNil() || !w.GetAt(-1).IsNil() {
		t.Error("out-of-range GetAt must be Nil")
	}
}

func TestClassNamesSorted(t *testing.T) {
	cs := NewClasses()
	cs.Declare("zebra")
	cs.Declare("alpha", "x")
	names := cs.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zebra" {
		t.Errorf("names = %v", names)
	}
}
