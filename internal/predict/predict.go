// Package predict implements latency prediction from latency parameters
// (paper §2): the SDK records past latency measurements together with the
// latency parameters that produced them (for example the size of an
// argument) and predicts the latency of a new invocation from its
// parameters. A regression model is fitted when enough observations exist;
// a k-nearest-neighbour estimate is the fallback; configurable defaults
// cover the no-data case (paper: average or median of similar services, or
// a user-provided default).
package predict

import (
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// ErrNoData is returned when a predictor has no observations and no default
// policy resolves a value.
var ErrNoData = errors.New("predict: no data")

// DefaultPolicy resolves a prediction when a service has insufficient past
// data (paper §2: "default values are used which can be the average value
// for similar services, the median value for similar services, or default
// values provided by the user").
type DefaultPolicy int

// Default policies. They are consulted only when the target service lacks
// enough observations to fit a model.
const (
	// DefaultNone makes prediction fail with ErrNoData when there is no
	// model and no peer data.
	DefaultNone DefaultPolicy = iota + 1
	// DefaultPeerAverage uses the average latency of similar services.
	DefaultPeerAverage
	// DefaultPeerMedian uses the median latency of similar services.
	DefaultPeerMedian
	// DefaultUser uses a user-provided constant.
	DefaultUser
)

// Config configures a Predictor.
type Config struct {
	// MinObservations is the number of observations required before a
	// model is fitted. Below it the default policy applies. Default 8.
	MinObservations int
	// Policy selects the fallback behaviour. Default DefaultNone.
	Policy DefaultPolicy
	// UserDefault is the fallback latency for DefaultUser.
	UserDefault time.Duration
	// KNeighbors is the neighbourhood size for the k-NN estimate used
	// when regression fails (for example, collinear parameters).
	// Default 3.
	KNeighbors int
}

func (c *Config) fill() {
	if c.MinObservations <= 0 {
		c.MinObservations = 8
	}
	if c.Policy == 0 {
		c.Policy = DefaultNone
	}
	if c.KNeighbors <= 0 {
		c.KNeighbors = 3
	}
}

// Predictor predicts invocation latency for one service from latency
// parameters. It is not safe for concurrent use; callers own
// synchronization (the SDK core serializes access per service).
type Predictor struct {
	cfg    Config
	params [][]float64
	latMS  []float64

	model      stats.MultiModel
	modelValid bool
	dirty      bool
}

// New returns a Predictor with the given configuration.
func New(cfg Config) *Predictor {
	cfg.fill()
	return &Predictor{cfg: cfg}
}

// Observe records that an invocation with the given latency parameters took
// lat. Parameter vectors of differing lengths are allowed; shorter vectors
// are zero-padded to the longest seen.
func (p *Predictor) Observe(params []float64, lat time.Duration) {
	cp := make([]float64, len(params))
	copy(cp, params)
	p.params = append(p.params, cp)
	p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
	p.dirty = true
}

// Len returns the number of recorded observations.
func (p *Predictor) Len() int { return len(p.params) }

// Predict estimates the latency of an invocation with the given latency
// parameters. peersMS carries mean latencies (in milliseconds) of similar
// services for the peer default policies; it may be nil.
func (p *Predictor) Predict(params []float64, peersMS []float64) (time.Duration, error) {
	if len(p.params) >= p.cfg.MinObservations {
		if d, ok := p.predictModel(params); ok {
			return d, nil
		}
		if d, ok := p.predictKNN(params); ok {
			return d, nil
		}
	}
	// Not enough data (or degenerate data): mean of own observations
	// still beats any cross-service default.
	if len(p.latMS) > 0 {
		return msToDuration(stats.Mean(p.latMS)), nil
	}
	switch p.cfg.Policy {
	case DefaultPeerAverage:
		if len(peersMS) > 0 {
			return msToDuration(stats.Mean(peersMS)), nil
		}
	case DefaultPeerMedian:
		if len(peersMS) > 0 {
			return msToDuration(stats.Median(peersMS)), nil
		}
	case DefaultUser:
		return p.cfg.UserDefault, nil
	}
	return 0, ErrNoData
}

// predictModel fits (lazily, cached until new data arrives) a multiple
// linear regression of latency on the parameters and evaluates it.
func (p *Predictor) predictModel(params []float64) (time.Duration, bool) {
	if p.dirty {
		p.refit()
	}
	if !p.modelValid {
		return 0, false
	}
	padded := p.pad(params)
	v := p.model.Predict(padded)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return msToDuration(v), true
}

func (p *Predictor) refit() {
	p.dirty = false
	p.modelValid = false
	width := p.maxWidth()
	if width == 0 {
		return
	}
	rows := make([][]float64, len(p.params))
	for i, pr := range p.params {
		rows[i] = p.padTo(pr, width)
	}
	m, err := stats.FitMulti(rows, p.latMS)
	if err != nil {
		return
	}
	p.model = m
	p.modelValid = true
}

// predictKNN averages the latencies of the k nearest observations in
// parameter space (Euclidean distance on zero-padded vectors).
func (p *Predictor) predictKNN(params []float64) (time.Duration, bool) {
	if len(p.params) == 0 {
		return 0, false
	}
	width := p.maxWidth()
	q := p.padTo(params, width)
	type neigh struct {
		dist float64
		lat  float64
	}
	ns := make([]neigh, len(p.params))
	for i, pr := range p.params {
		row := p.padTo(pr, width)
		var d float64
		for j := range row {
			diff := row[j] - q[j]
			d += diff * diff
		}
		ns[i] = neigh{dist: d, lat: p.latMS[i]}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].dist < ns[j].dist })
	k := p.cfg.KNeighbors
	if k > len(ns) {
		k = len(ns)
	}
	var sum float64
	for i := 0; i < k; i++ {
		sum += ns[i].lat
	}
	return msToDuration(sum / float64(k)), true
}

func (p *Predictor) maxWidth() int {
	w := 0
	for _, pr := range p.params {
		if len(pr) > w {
			w = len(pr)
		}
	}
	return w
}

func (p *Predictor) pad(params []float64) []float64 {
	return p.padTo(params, p.maxWidth())
}

func (p *Predictor) padTo(params []float64, width int) []float64 {
	out := make([]float64, width)
	copy(out, params)
	return out
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
