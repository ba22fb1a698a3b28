package cluster

import (
	"spampsm/internal/scene"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
)

// AirportSpec wraps airport generator parameters as a shippable
// dataset spec.
func AirportSpec(p scene.Params) DatasetSpec {
	return DatasetSpec{Name: p.Name, Domain: "airport", Airport: p}
}

// SuburbanSpec wraps suburban generator parameters as a shippable
// dataset spec.
func SuburbanSpec(p scene.SuburbanParams) DatasetSpec {
	return DatasetSpec{Name: p.Name, Domain: "suburban", Suburban: p}
}

// NewRunner binds the coordinator to an interpretation's options as its
// phase runner: every phase's task queue ships across the worker
// processes instead of running on a private in-process pool.
func NewRunner(co *Coordinator, opt spam.InterpretOptions) tlp.BoundQueue {
	return tlp.BoundQueue{Queue: co, Config: opt.RunConfig()}
}
