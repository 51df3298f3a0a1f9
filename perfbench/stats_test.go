package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	tl, ok := tailOf(xs)
	if !ok {
		t.Fatal("100 samples give no tail")
	}
	// Rank 90 of 100: exactly ten samples (91..100) lie beyond it.
	if tl.Value != 90 || tl.Pct != 90 || tl.Beyond != 10 || tl.N != 100 {
		t.Fatalf("tail = %+v, want value 90 at p90 with 10 beyond", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond < tailBeyond {
		t.Fatalf("%d samples beyond the tail, want >= %d", beyond, tailBeyond)
	}
	// The tail is the highest such percentile: one rank higher leaves
	// only nine beyond.
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want exactly %d", beyond, tailBeyond)
	}

	tl, ok = tailOf(xs[:11])
	if !ok || tl.Beyond != 10 || tl.Pct != 100.0/11 {
		t.Fatalf("11 samples: tail = %+v ok=%v, want rank 1 of 11", tl, ok)
	}
	if _, ok := tailOf(xs[:10]); ok {
		t.Fatal("10 samples must give no tail: nothing can have ten beyond it")
	}
}

func TestGeoMeanCountsDegenerateCells(t *testing.T) {
	g := geoMean([]float64{2, 8, 0, math.NaN(), -1, math.Inf(1)})
	if g.Cells != 6 || g.Degenerate != 4 {
		t.Fatalf("cells/degenerate = %d/%d, want 6/4", g.Cells, g.Degenerate)
	}
	if math.Abs(g.Value-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4 over the two well-formed cells", g.Value)
	}
	all := geoMean([]float64{0, 0})
	if !math.IsNaN(all.Value) || all.Degenerate != 2 {
		t.Fatalf("all-degenerate geomean = %+v, want NaN with 2 degenerate", all)
	}
	if g := geoMean([]float64{1, 10, 100}); math.Abs(g.Value-10) > 1e-12 || g.Degenerate != 0 {
		t.Fatalf("geomean(1,10,100) = %+v, want 10 with none degenerate", g)
	}
	if a := arithMean([]float64{2, 4, 0, math.NaN()}); a.Value != 3 || a.Cells != 4 || a.Degenerate != 2 {
		t.Fatalf("arithMean = %+v, want 3 over 4 cells with 2 degenerate", a)
	}
}
