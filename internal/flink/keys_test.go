package flink

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"testing"

	"gflink/internal/costmodel"
)

// fmtHash is hashKey's definition: FNV-64a over the %v rendering.
func fmtHash(k any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", k)
	return h.Sum64()
}

// sortKeysOracle is the original canonical-order comparator, which
// hashed both keys on every comparison.
func sortKeysOracle[K comparable](keys []K) {
	sort.Slice(keys, func(i, j int) bool {
		hi, hj := fmtHash(keys[i]), fmtHash(keys[j])
		if hi != hj {
			return hi < hj
		}
		return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j])
	})
}

func checkHash[K comparable](t *testing.T, keys ...K) {
	t.Helper()
	for _, k := range keys {
		if got, want := hashKey(k), fmtHash(k); got != want {
			t.Errorf("hashKey(%T %v) = %#x, want %#x", k, k, got, want)
		}
	}
}

// label is a named integer whose %v rendering is its String method.
type label int

func (l label) String() string { return "L" + strconv.Itoa(int(l)) }

func TestHashKeyMatchesFmt(t *testing.T) {
	checkHash(t, 0, 1, -1, math.MinInt, math.MaxInt)
	checkHash[int8](t, 0, 1, -1, math.MinInt8, math.MaxInt8)
	checkHash[int16](t, 0, 1, -1, math.MinInt16, math.MaxInt16)
	checkHash[int32](t, 0, 1, -1, math.MinInt32, math.MaxInt32)
	checkHash[int64](t, 0, 1, -1, math.MinInt64, math.MaxInt64)
	checkHash[uint](t, 0, 1, math.MaxUint)
	checkHash[uint8](t, 0, 1, math.MaxUint8)
	checkHash[uint16](t, 0, 1, math.MaxUint16)
	checkHash[uint32](t, 0, 1, math.MaxUint32)
	checkHash[uint64](t, 0, 1, math.MaxUint64)
	checkHash(t, "", "a", "hello world", "héllo", "日本語", "🚀x")
	// Types off the fast path keep the fmt rendering.
	checkHash(t, 1.5, -0.25)
	checkHash(t, [2]int{3, -4})
	checkHash(t, struct {
		A string
		B int
	}{"x", 7})
}

func TestHashKeyNamedTypeUsesString(t *testing.T) {
	if got, want := hashKey(label(3)), fnv64a("L3"); got != want {
		t.Errorf("hashKey(label(3)) = %#x, want FNV-64a of %q = %#x", got, "L3", want)
	}
	if hashKey(label(3)) == hashKey(3) {
		t.Error("named type with a String method hashed like its underlying int")
	}
	checkHash(t, label(0), label(-1), label(math.MaxInt))
}

// distinctKeys returns n distinct keys in a scrambled order.
func distinctKeys[K comparable](n int, mk func(i int) K) []K {
	keys := make([]K, n)
	for i := range keys {
		keys[i] = mk((i * 2654435761) % 1_000_003)
	}
	return keys
}

func checkSortMatchesOracle[K comparable](t *testing.T, keys []K) {
	t.Helper()
	want := append([]K(nil), keys...)
	sortKeysOracle(want)
	got := append([]K(nil), keys...)
	hk := sortKeys(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%T: position %d = %v, oracle has %v", keys[0], i, got[i], want[i])
		}
		if hk[i].k != want[i] || hk[i].h != fmtHash(want[i]) {
			t.Fatalf("%T: decorated position %d = {%#x %v}, want {%#x %v}", keys[0], i, hk[i].h, hk[i].k, fmtHash(want[i]), want[i])
		}
	}
}

func TestSortKeysMatchesOracle(t *testing.T) {
	const n = 3000
	checkSortMatchesOracle(t, distinctKeys(n, func(i int) int { return i - 500_000 }))
	checkSortMatchesOracle(t, distinctKeys(n, func(i int) int32 { return int32(i) }))
	checkSortMatchesOracle(t, distinctKeys(n, func(i int) string { return "w" + strconv.Itoa(i) + "é" }))
}

func TestCompareHashedTieBreak(t *testing.T) {
	// Equal hashes fall back to the formatted representation.
	a, b := hashedKey[string]{h: 7, k: "a"}, hashedKey[string]{h: 7, k: "b"}
	if compareHashed(a, b) >= 0 || compareHashed(b, a) <= 0 || compareHashed(a, a) != 0 {
		t.Errorf("equal-hash tie-break: a<b %d, b>a %d, a=a %d", compareHashed(a, b), compareHashed(b, a), compareHashed(a, a))
	}
	// Different hashes decide regardless of the representation.
	lo, hi := hashedKey[int]{h: 1, k: 9}, hashedKey[int]{h: 2, k: 1}
	if compareHashed(lo, hi) >= 0 || compareHashed(hi, lo) <= 0 {
		t.Errorf("hash order: lo<hi %d, hi>lo %d", compareHashed(lo, hi), compareHashed(hi, lo))
	}
}

// hashSink keeps the compiler from discarding hashKey calls.
var hashSink uint64

func TestKeyHashingAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { hashSink += hashKey(123456789) }); n != 0 {
		t.Errorf("hashKey(int) allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { hashSink += hashKey("tokenize") }); n != 0 {
		t.Errorf("hashKey(string) allocates %.1f times, want 0", n)
	}
	keys := distinctKeys(4096, func(i int) int { return i })
	if n := testing.AllocsPerRun(20, func() { sortKeys(keys) }); n > 1 {
		t.Errorf("sortKeys on %d int keys allocates %.1f times, want at most 1", len(keys), n)
	}
}

func BenchmarkSortKeys(b *testing.B) {
	src := distinctKeys(4096, func(i int) int { return i })
	keys := make([]int, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		sortKeys(keys)
	}
}

// BenchmarkReduceByKey runs WordCount's count shuffle: 20 partitions
// on 10 workers, each already combined to at most 4096 (slot, count)
// records keyed by int slot.
func BenchmarkReduceByKey(b *testing.B) {
	const nparts, vocab = 20, 4096
	type pair struct{ Slot, Count int }
	c := testCluster(10)
	c.Clock.Run(func() {
		j := c.NewJob("wc")
		parts := make([]Partition[pair], nparts)
		for p := range parts {
			items := make([]pair, 0, vocab)
			for s := 0; s < vocab; s++ {
				if (s*31+p*17)%5 != 0 {
					items = append(items, pair{Slot: s, Count: 1 + (s+p)%7})
				}
			}
			parts[p] = Partition[pair]{Worker: p % 10, Items: items, Nominal: int64(len(items))}
		}
		ds := FromPartitions(j, 12, parts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ReduceByKey(ds, "sumCounts", costmodel.Work{Flops: 2},
				func(v pair) int { return v.Slot },
				func(x, y pair) pair { return pair{Slot: x.Slot, Count: x.Count + y.Count} })
		}
	})
}
