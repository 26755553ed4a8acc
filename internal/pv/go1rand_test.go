package pv

import (
	"math"
	"math/rand"
	"testing"
)

// go1EdgeSeeds are the seeds where rngSource.Seed's normalisation
// branches: 0 and multiples of 2³¹−1 (both become 89482311), the
// negative wrap, and the ends of the int64 range.
var go1EdgeSeeds = []int64{
	0, 1, -1, 2, -2,
	math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 1, -math.MaxInt32,
	2 * math.MaxInt32, -2 * math.MaxInt32,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	89482311, -89482311,
}

// go1Seeds returns the edge seeds plus n seeds spread over the int64
// range, half of them negative.
func go1Seeds(n int) []int64 {
	seeds := append([]int64(nil), go1EdgeSeeds...)
	pick := rand.New(rand.NewSource(20170327))
	for i := 0; i < n; i++ {
		s := pick.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// drawKind makes one draw of the given kind from r, as bits.
func drawKind(r *rand.Rand, kind int) uint64 {
	switch kind {
	case 0:
		return math.Float64bits(r.ExpFloat64())
	case 1:
		return math.Float64bits(r.Float64())
	default:
		return r.Uint64()
	}
}

// TestGo1SourceMatchesMathRand draws interleaved ExpFloat64, Float64 and
// Uint64 values from a go1Source and from rand.NewSource for each seed,
// far enough that the 607-word ring wraps several times and draws read
// words that earlier draws overwrote. One go1Source serves every seed,
// re-seeded mid-stream after a seed-dependent number of draws, as the
// cloudRands pool re-seeds its generators.
func TestGo1SourceMatchesMathRand(t *testing.T) {
	got := rand.New(new(go1Source))
	for k, seed := range go1Seeds(300) {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		n := 2500 + k%700
		for i := 0; i < n; i++ {
			kind := (i + i/7) % 3
			if g, w := drawKind(got, kind), drawKind(want, kind); g != w {
				t.Fatalf("seed %d, draw %d (kind %d): got %#x, math/rand %#x", seed, i, kind, g, w)
			}
		}
	}
}

// FuzzGo1Source checks go1Source against rand.NewSource for a fuzzed
// seed and a fuzzed sequence of draw kinds. The kinds are read
// cyclically for twice the ring's length, so every input wraps the
// ring; kind 3 re-seeds both generators mid-stream.
func FuzzGo1Source(f *testing.F) {
	for _, seed := range go1EdgeSeeds {
		f.Add(seed, []byte{0, 1, 2})
	}
	f.Add(int64(7), []byte{2, 2, 2, 2, 0})
	f.Add(int64(-7), []byte{0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, kinds []byte) {
		if len(kinds) == 0 {
			kinds = []byte{0}
		}
		got := rand.New(new(go1Source))
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2*rngLen+len(kinds); i++ {
			kind := int(kinds[i%len(kinds)] % 4)
			if kind == 3 {
				reseed := seed ^ int64(i)*0x5851f42d4c957f2d
				got.Seed(reseed)
				want.Seed(reseed)
				continue
			}
			if g, w := drawKind(got, kind), drawKind(want, kind); g != w {
				t.Fatalf("seed %d, draw %d (kind %d): got %#x, math/rand %#x", seed, i, kind, g, w)
			}
		}
	})
}
