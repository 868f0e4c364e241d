package perf

import "testing"

func TestMedianAndQuartiles(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Fatalf("Median(nil) = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median even = %v, want 2.5", got)
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[2] != 5 {
		t.Fatalf("Median mutated input: %v", in)
	}
	if got := quartiles([]float64{5, 1, 4, 2, 3}); got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles of 1..5 = %v, want [2 3 4]", got)
	}
	if got := quartiles([]float64{1, 2, 3, 4}); got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("quartiles of 1..4 = %v, want [1.75 2.5 3.25]", got)
	}
	if got := quartiles([]float64{7}); got != [3]float64{7, 7, 7} {
		t.Fatalf("quartiles of one value = %v", got)
	}
}
