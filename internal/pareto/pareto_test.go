package pareto

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// item is a test value: a point plus an id the tiebreak orders by.
type item struct {
	p  Point
	id int
}

func newItemFront() *Front[item] {
	return New(func(x item) Point { return x.p },
		func(a, b item) int { return cmp.Compare(a.id, b.id) })
}

// oracle is the reference: the brute-force O(N²) non-dominated set,
// written out independently of Dominates and Add, sorted by ASP
// ascending, COA descending, id ascending.
func oracle(xs []item) []item {
	var out []item
	for i, x := range xs {
		dominated := false
		for j, y := range xs {
			if i != j && y.p.ASP <= x.p.ASP && y.p.COA >= x.p.COA &&
				(y.p.ASP < x.p.ASP || y.p.COA > x.p.COA) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, x)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.p.ASP != b.p.ASP {
			return a.p.ASP < b.p.ASP
		}
		if a.p.COA != b.p.COA {
			return a.p.COA > b.p.COA
		}
		return a.id < b.id
	})
	return out
}

// randomItems draws n items from a coarse grid, so exact (ASP, COA)
// ties are common, and from a small id range, so some items are exact
// duplicates of others.
func randomItems(rng *rand.Rand, n int) []item {
	grid := 2 + rng.IntN(6)
	xs := make([]item, n)
	for i := range xs {
		xs[i] = item{
			p:  Point{ASP: float64(rng.IntN(grid)) / 8, COA: 0.99 + float64(rng.IntN(grid))/1000},
			id: rng.IntN(n/2 + 1),
		}
	}
	// Force at least one exact duplicate and one tie on the plane with
	// a different id.
	if n >= 3 {
		xs[n-1] = xs[0]
		xs[n-2] = item{p: xs[1].p, id: xs[1].id + n}
	}
	return xs
}

func frontOf(xs []item) []item {
	f := newItemFront()
	for _, x := range xs {
		f.Add(x)
	}
	return f.Sorted()
}

// TestFrontMatchesOracle is the property gate for the one dominance
// implementation in the module: on random point sets with forced exact
// ties and duplicates, the incremental front equals the brute-force
// non-dominated set after every insertion, keeps exact duplicates, and
// sorts to the same slice whatever the insertion order.
func TestFrontMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2017))
	for trial := 0; trial < 500; trial++ {
		xs := randomItems(rng, 1+rng.IntN(40))
		want := oracle(xs)

		f := newItemFront()
		for i, x := range xs {
			f.Add(x)
			if got, want := f.Sorted(), oracle(xs[:i+1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, after %d adds: front %v, oracle %v", trial, i+1, got, want)
			}
		}

		for k := 0; k < 3; k++ {
			perm := append([]item(nil), xs...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := frontOf(perm); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: insertion order changed the front:\n got %v\nwant %v", trial, got, want)
			}
		}
	}
}

func TestFrontKeepsDuplicatesAndDropsDominated(t *testing.T) {
	xs := []item{
		{Point{ASP: 0.9, COA: 1.0}, 0},   // unpatched end: worst security, best availability
		{Point{ASP: 0.5, COA: 0.999}, 1}, // on the front
		{Point{ASP: 0.5, COA: 0.99}, 2},  // same ASP, lower COA: dominated
		{Point{ASP: 0.2, COA: 0.995}, 3}, // patched end
		{Point{ASP: 0.5, COA: 0.999}, 1}, // exact duplicate of id 1: kept
	}
	want := []item{xs[3], xs[1], xs[1], xs[0]}
	if got := frontOf(xs); !reflect.DeepEqual(got, want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
	if got := frontOf(nil); got != nil {
		t.Fatalf("empty front = %v, want nil", got)
	}
}
