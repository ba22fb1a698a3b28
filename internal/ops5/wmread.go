package ops5

import (
	"fmt"

	"spampsm/internal/symtab"
)

// WMESpec is one initial working-memory element read from text form:
// "(class ^attr value ...)".
type WMESpec struct {
	Class string
	Sets  map[string]symtab.Value
}

// ParseWMEList reads a sequence of "(class ^attr value ...)" forms —
// the format of an initial working-memory file for the ops5run tool.
func ParseWMEList(src string) ([]WMESpec, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	var out []WMESpec
	i := 0
	cur := func() token { return toks[i] }
	for cur().kind != tokEOF {
		if cur().kind != tokLParen {
			return nil, fmt.Errorf("ops5: line %d: expected ( to start a WME, found %s", cur().line, cur())
		}
		i++
		if cur().kind != tokAtom {
			return nil, fmt.Errorf("ops5: line %d: expected class name, found %s", cur().line, cur())
		}
		spec := WMESpec{Class: cur().text, Sets: map[string]symtab.Value{}}
		i++
		for cur().kind == tokCaret {
			i++
			if cur().kind != tokAtom {
				return nil, fmt.Errorf("ops5: line %d: expected attribute name, found %s", cur().line, cur())
			}
			attr := cur().text
			i++
			if cur().kind != tokAtom {
				return nil, fmt.Errorf("ops5: line %d: expected value for ^%s, found %s", cur().line, attr, cur())
			}
			spec.Sets[attr] = cur().value()
			i++
		}
		if cur().kind != tokRParen {
			return nil, fmt.Errorf("ops5: line %d: expected ) to close WME, found %s", cur().line, cur())
		}
		i++
		out = append(out, spec)
	}
	return out, nil
}

// AssertAll asserts a list of WME specs into the engine.
func (e *Engine) AssertAll(specs []WMESpec) error {
	for _, s := range specs {
		if _, err := e.Assert(s.Class, s.Sets); err != nil {
			return err
		}
	}
	return nil
}
