package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"muppet"
)

// tweet is the JSON payload of one input event.
type tweet struct {
	ID   uint64 `json:"id"`
	User string `json:"user"`
	Text string `json:"text"`
}

// counter is U1's typed slate.
type counter struct {
	Count int64 `json:"count"`
}

// newApp is the benchmark application: M1 decodes each tweet and
// re-keys it onto S2 by its user; U1 counts tweets per user and
// publishes one O1 event per update, which is how the harness sees an
// event fully applied.
func newApp() *muppet.App {
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		var t tweet
		if err := json.Unmarshal(in.Value, &t); err != nil {
			return
		}
		emit.Publish("S2", t.User, nil)
	}}
	u1 := muppet.Update[counter]("U1", func(emit muppet.Emitter, in muppet.Event, s *counter) {
		s.Count++
		emit.Publish("O1", in.Key, nil)
	})
	return muppet.NewApp("perfbench").
		Input("S1").
		Output("O1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, []string{"O1"}, 0)
}

// zipf draws ranks in [0, n) with P(r) proportional to 1/(r+1)^s. Unlike
// math/rand's Zipf it accepts s <= 1, which the mild-skew workload needs.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// inputs is the pre-generated input pool of one run. Event i of the run
// is pool[i % len(pool)], so a run never outgrows its inputs however
// fast the engine is; ids are unique within the pool.
type inputs struct {
	pool []muppet.Event
}

// userKey names user u; a fixed-width key keeps range scans over
// [userKey(a), userKey(b)) exactly b-a users wide.
func userKey(u int) string { return fmt.Sprintf("u%07d", u) }

var words = strings.Fields("muppet slate stream update map event fast data tweet user count topic hot " +
	"checkin retail store query cluster node queue cache flush latency throughput")

// genInputs builds a pool of n tweets whose users follow Zipf(s) over
// the given population. Ranks are scattered over user ids by a fixed
// bijection, so hot users are spread across key ranges and nodes. The
// population is a property of the workload, not of the seed: every seed
// has the same hot users on the same nodes and draws a different
// stream from them, so seeds differ in their sample, not their skew.
func genInputs(seed int64, n, users int, s float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	z := newZipf(users, s)
	pool := make([]muppet.Event, n)
	var text strings.Builder
	for i := range pool {
		text.Reset()
		for w := 0; w < 6+rng.Intn(6); w++ {
			if w > 0 {
				text.WriteByte(' ')
			}
			text.WriteString(words[rng.Intn(len(words))])
		}
		// 7919 is prime and divides no power of ten, so rank*7919 mod
		// users is a permutation of a power-of-ten population.
		u := z.draw(rng) * 7919 % users
		id := uint64(seed)<<32 | uint64(i)
		v, _ := json.Marshal(tweet{ID: id, User: userKey(u), Text: text.String()})
		pool[i] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("t%d", id), Value: v}
	}
	return &inputs{pool: pool}
}

// event returns the run's i-th input.
func (in *inputs) event(i int64) muppet.Event {
	return in.pool[i%int64(len(in.pool))]
}

// reference is the single-goroutine computation of the same job over
// the first n inputs: decode each tweet and count it for its user. It
// returns the counts and the rate it ran at.
func reference(in *inputs, n int64) (map[string]int64, float64) {
	start := time.Now()
	counts := make(map[string]int64)
	for i := int64(0); i < n; i++ {
		var t tweet
		if err := json.Unmarshal(in.event(i).Value, &t); err != nil {
			continue
		}
		counts[t.User]++
	}
	return counts, float64(n) / time.Since(start).Seconds()
}
