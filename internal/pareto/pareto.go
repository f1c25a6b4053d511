// Package pareto is the paper's decision step: the designs (or rollout
// points) not dominated on the (minimize ASP, maximize COA) plane. It is
// the only dominance code in the module; the facade's design front,
// rollout frontier and the daemon's stream trailers are all a Front.
package pareto

import (
	"cmp"
	"slices"
)

// Point is a position on the decision plane.
type Point struct {
	ASP float64 // attack success probability, minimized
	COA float64 // capacity oriented availability, maximized
}

// Dominates reports whether a dominates b: a.ASP <= b.ASP and
// a.COA >= b.COA with at least one strict. Exact duplicates dominate
// neither way, so a front keeps both.
func Dominates(a, b Point) bool {
	return a.ASP <= b.ASP && a.COA >= b.COA && (a.ASP < b.ASP || a.COA > b.COA)
}

// Front is an incrementally maintained Pareto front of T values. Its
// memory is the front, never the stream of values added to it. Build
// one with New; a Front is not safe for concurrent use.
type Front[T any] struct {
	point   func(T) Point
	tie     func(a, b T) int
	members []T
}

// New returns an empty front. point places a value on the plane; tie
// orders values at the same point (a cmp-style comparison — design name,
// schedule step), making Sorted a pure function of the members.
func New[T any](point func(T) Point, tie func(a, b T) int) *Front[T] {
	return &Front[T]{point: point, tie: tie}
}

// Add inserts v: a dominated newcomer is dropped, a newcomer evicts the
// members it dominates. Survivors keep their insertion order, so exact
// duplicates end up in the order they were added.
func (f *Front[T]) Add(v T) {
	p := f.point(v)
	// keep compacts in place. The early return cannot corrupt the front:
	// if some member dominates p then, by transitivity, p dominates no
	// member, so every write so far was an identity write.
	keep := f.members[:0]
	for _, m := range f.members {
		q := f.point(m)
		if Dominates(q, p) {
			return
		}
		if !Dominates(p, q) {
			keep = append(keep, m)
		}
	}
	f.members = append(keep, v)
}

// Sorted returns the members in the front's total order — ASP
// ascending, COA descending, then the tiebreak; the sort is stable —
// as a fresh slice, nil for an empty front.
func (f *Front[T]) Sorted() []T {
	slices.SortStableFunc(f.members, func(a, b T) int {
		pa, pb := f.point(a), f.point(b)
		if c := cmp.Compare(pa.ASP, pb.ASP); c != 0 {
			return c
		}
		if c := cmp.Compare(pb.COA, pa.COA); c != 0 {
			return c
		}
		return f.tie(a, b)
	})
	return slices.Clone(f.members)
}
