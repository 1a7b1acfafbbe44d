package main

import (
	"math"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, err := percentile(append([]float64(nil), xs...), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond it", v, err)
	}
	for _, p := range []float64{91, 99, 0, 100} {
		if v, err := percentile(append([]float64(nil), xs...), p); err == nil {
			t.Errorf("p%g of 100 samples = %v; want a refusal", p, v)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples: want a refusal")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same data, the rule the
// benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v %v %v", tc.xs, q1, q2, q3, err, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSplitResults(t *testing.T) {
	body := []byte(`{"results":[{"hostname":"a.b","located":false},{"hostname":"c}.d","location":{"city":"x\"]"}}]}` + "\n")
	elems, ok := splitResults(body, nil)
	if !ok || len(elems) != 2 {
		t.Fatalf("splitResults = %q, %v; want two elements", elems, ok)
	}
	if string(elems[1]) != `{"hostname":"c}.d","location":{"city":"x\"]"}}` {
		t.Errorf("second element = %s", elems[1])
	}
	for _, bad := range []string{`{"results":[{"a":1}`, `{"other":[]}`, `{"results":[1]}`} {
		if _, ok := splitResults([]byte(bad), nil); ok {
			t.Errorf("splitResults(%s) accepted a malformed body", bad)
		}
	}
}

// TestQuietestKeepsTies: steal is counted in whole ticks, so every
// window that ties with the n-th quietest is kept, not the earliest n.
func TestQuietestKeepsTies(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		n     int
		want  []bool
	}{
		{[]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 5, []bool{true, true, true, true, true, true, true, true, true, true}},
		{[]float64{3, 0, 2, 0, 1, 5, 1, 0, 4, 2}, 5, []bool{false, true, false, true, true, false, true, true, false, false}},
		{[]float64{2, 0, 1, 0, 1, 1, 3, 0, 4, 2}, 5, []bool{false, true, true, true, true, true, false, true, false, false}},
		{[]float64{0.07, 0.01, 0.04}, 2, []bool{false, true, true}},
		{nil, 5, []bool{}},
	} {
		got := quietest(tc.steal, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("quietest(%v, %d) = %v, want %v", tc.steal, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("quietest(%v, %d) = %v, want %v", tc.steal, tc.n, got, tc.want)
				break
			}
		}
	}
}
