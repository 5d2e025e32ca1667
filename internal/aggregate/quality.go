package aggregate

import (
	"sort"

	"repro/internal/nlu"
)

// The paper's future work (§5): "more sophisticated methods can be used
// for evaluating the quality of responses provided by services". This file
// implements one such method: rating each service by its agreement with
// the consensus of all services, so quality scores emerge without any
// labeled ground truth. The scores feed the SDK's per-service quality
// ratings through core.Client.Monitor(name).RecordQuality — the same
// rating a core.WithQuality function records on each successful call — and
// hence ranking and the richsdk_service_quality_* families on /metrics.

// QualityRating is one service's consensus-agreement score.
type QualityRating struct {
	Service string `json:"service"`
	// Agreement is the F1 of the service's entities against the majority
	// consensus, averaged over documents. 1 means the service always
	// matches what most services find.
	Agreement float64 `json:"agreement"`
	// Documents is how many documents contributed.
	Documents int `json:"documents"`
}

// RateByConsensus scores every service across a set of documents, where
// perDocument holds each document's per-service analyses (all services
// analyzing the same document). minConfidence sets the consensus threshold
// (0.5 = majority). Returns ratings sorted best first.
func RateByConsensus(perDocument [][]nlu.Analysis, minConfidence float64) []QualityRating {
	type acc struct {
		sum  float64
		docs int
	}
	accs := make(map[string]*acc)
	for _, analyses := range perDocument {
		if len(analyses) < 2 {
			continue // consensus needs at least two opinions
		}
		truthish := FilterConfident(Consensus(analyses), minConfidence)
		for _, a := range analyses {
			prf := Score(a.EntityIDs(), truthish)
			e := accs[a.Engine]
			if e == nil {
				e = &acc{}
				accs[a.Engine] = e
			}
			e.sum += prf.F1
			e.docs++
		}
	}
	out := make([]QualityRating, 0, len(accs))
	for name, a := range accs {
		out = append(out, QualityRating{
			Service:   name,
			Agreement: a.sum / float64(a.docs),
			Documents: a.docs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Agreement != out[j].Agreement {
			return out[i].Agreement > out[j].Agreement
		}
		return out[i].Service < out[j].Service
	})
	return out
}
