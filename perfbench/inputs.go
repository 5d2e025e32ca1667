package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/webcorpus"
)

// corpusDocs is the size of the generated web corpus every workload draws
// its inputs from.
const corpusDocs = 2000

func genCorpus(seed int64) *webcorpus.Corpus {
	return webcorpus.Generate(webcorpus.Config{Seed: seed, NumDocs: corpusDocs})
}

// streamRNG returns the random source of one client's request stream: a
// function of the seed, the workload and the client only.
func streamRNG(seed int64, workload string, client int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()) ^ int64(client+1)*0x5851f42d4c957f2d))
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. Unlike math/rand's Zipf it accepts s <= 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64()*z.cdf[len(z.cdf)-1])
}
