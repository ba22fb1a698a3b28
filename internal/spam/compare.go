package spam

import "reflect"

// SameOutputs reports whether two interpretations describe the same
// scene understanding — fragments, consistent pairs, LCC outcomes,
// functional areas, predictions and the final model. Cost accounting
// (phase statistics, task logs, memory figures) is deliberately
// excluded: it legitimately differs between an incremental session
// update and a from-scratch run even when the understanding is
// byte-identical. The incremental differential oracles and the
// benchmark's correctness gates use this as their identity predicate.
func SameOutputs(a, b *Interpretation) bool {
	return reflect.DeepEqual(a.Fragments, b.Fragments) &&
		reflect.DeepEqual(a.Pairs, b.Pairs) &&
		reflect.DeepEqual(a.Outcomes, b.Outcomes) &&
		reflect.DeepEqual(a.FAs, b.FAs) &&
		reflect.DeepEqual(a.Predictions, b.Predictions) &&
		a.ModelFound == b.ModelFound &&
		reflect.DeepEqual(a.Model, b.Model)
}
