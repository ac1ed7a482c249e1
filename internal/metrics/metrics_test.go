package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.Sum() != 0 || d.Mean() != 0 || d.Median() != 0 || d.Max() != 0 {
		t.Fatal("empty distribution should report zeros")
	}
	if d.CDF(10) != 0 {
		t.Fatal("empty CDF should be 0")
	}
}

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		d.Add(v)
	}
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := d.Max(); got != 9 {
		t.Fatalf("Max = %v", got)
	}
	if got := d.Sum(); got != 31 {
		t.Fatalf("Sum = %v", got)
	}
	if got := d.Mean(); math.Abs(got-3.875) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestDistributionNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) did not panic")
		}
	}()
	var d Distribution
	d.Add(math.NaN())
}

func TestQuantile(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.77, 77}, {1, 100}, {-1, 1}, {2, 100},
	}
	for _, c := range cases {
		if got := d.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCDF(t *testing.T) {
	var d Distribution
	for _, v := range []float64{1, 2, 2, 3} {
		d.Add(v)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := d.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	var d Distribution
	for i := 0; i < 4; i++ {
		d.Add(5)
	}
	pts := d.CDFPoints([]float64{4, 5, 6})
	want := []float64{0, 1, 1}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDFPoints = %v, want %v", pts, want)
		}
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	var d Distribution
	d.Add(5)
	if d.Median() != 5 {
		t.Fatal("median of {5} should be 5")
	}
	d.Add(1)
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) after re-add = %v, want 1", got)
	}
}

// Property: CDF is monotone nondecreasing and Quantile inverts CDF in
// the nearest-rank sense: CDF(Quantile(p)) ≥ p.
func TestPropertyCDFQuantile(t *testing.T) {
	f := func(raw []float64, pRaw float64) bool {
		var d Distribution
		ok := false
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
			ok = true
		}
		if !ok {
			return true
		}
		p := math.Abs(math.Mod(pRaw, 1))
		q := d.Quantile(p)
		return d.CDF(q) >= p-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles computed via Distribution match direct sorting.
func TestPropertyQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(200)
		var d Distribution
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
			d.Add(vals[i])
		}
		sort.Float64s(vals)
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
			idx := int(math.Ceil(p*float64(n))) - 1
			if idx < 0 {
				idx = 0
			}
			if got := d.Quantile(p); got != vals[idx] {
				t.Fatalf("iter %d p=%v: got %v want %v", iter, p, got, vals[idx])
			}
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0 B"},
		{1, "1 B"},
		{999, "999 B"},
		{1024, "1 K"},
		{10 * 1024, "10 K"},
		{1 << 20, "1 M"},
		{1342177, "1.28 M"},
		{1 << 30, "1 G"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"Service", "TUE"}}
	tb.AddRow("Dropbox", "1.2")
	tb.AddRow("Google Drive", "11")
	s := tb.String()
	if !strings.Contains(s, "Service") || !strings.Contains(s, "Google Drive") {
		t.Fatalf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), s)
	}
	// All lines should be equally wide (fixed-width columns).
	for _, ln := range lines[1:] {
		if len(ln) > len(lines[0])+2 {
			t.Fatalf("ragged table:\n%s", s)
		}
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := Table{Header: []string{"A", "B", "C"}}
	tb.AddRow("x")
	s := tb.String()
	if !strings.Contains(s, "x") {
		t.Fatalf("missing cell:\n%s", s)
	}
}
