// Package metrics provides the small statistical toolkit the measurement
// harness is built on: sample distributions with exact nearest-rank
// quantiles and CDF evaluation, and text rendering helpers for tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Distribution collects float64 samples and answers order-statistics
// queries. The zero value is ready to use. Samples are sorted lazily on
// first query after an Add.
type Distribution struct {
	samples []float64
	sorted  bool
}

// Add records one sample. NaN samples panic: they would silently poison
// every subsequent quantile.
func (d *Distribution) Add(v float64) {
	if math.IsNaN(v) {
		panic("metrics: Distribution.Add(NaN)")
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Sum reports the sum of all samples.
func (d *Distribution) Sum() float64 {
	var s float64
	for _, v := range d.samples {
		s += v
	}
	return s
}

// Mean reports the arithmetic mean, or 0 for an empty distribution.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.Sum() / float64(len(d.samples))
}

// Max reports the largest sample, or 0 for an empty distribution.
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return d.samples[len(d.samples)-1]
}

// Quantile reports the p-quantile (0 ≤ p ≤ 1) using nearest-rank on the
// sorted samples. p outside [0,1] is clamped. Returns 0 for an empty
// distribution.
func (d *Distribution) Quantile(p float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	d.sort()
	idx := int(math.Ceil(p*float64(len(d.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return d.samples[idx]
}

// Median is shorthand for Quantile(0.5).
func (d *Distribution) Median() float64 { return d.Quantile(0.5) }

// CDF reports the fraction of samples ≤ x. Returns 0 for an empty
// distribution.
func (d *Distribution) CDF(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	// First index with sample > x.
	i := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(d.samples))
}

// CDFPoints samples the CDF at the given x values, returning matching
// fractions. Convenient for rendering figure series.
func (d *Distribution) CDFPoints(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = d.CDF(x)
	}
	return out
}

func (d *Distribution) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// HumanBytes formats a byte count the way the paper's tables do:
// "1 K", "1.28 M", "12.5 M", with whole bytes below 1000.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return trimf(float64(n)/(1<<30)) + " G"
	case n >= 1<<20:
		return trimf(float64(n)/(1<<20)) + " M"
	case n >= 1000:
		return trimf(float64(n)/(1<<10)) + " K"
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func trimf(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Table renders a fixed-width text table: a header row followed by data
// rows, columns padded to the widest cell. It is the output format used
// by cmd/tuebench for every reproduced paper table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one data row. Short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var out []byte
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			out = append(out, fmt.Sprintf("%-*s", width[i], cell)...)
			if i != ncol-1 {
				out = append(out, "  "...)
			}
		}
		out = append(out, '\n')
	}
	writeRow(t.Header)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = repeat('-', width[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return string(out)
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}
