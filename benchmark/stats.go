package main

import (
	"math"
	"sort"
)

// A measurement is one number drawn from n samples (slices, rounds or
// set-ups) with the quartiles that say how far it wanders: the samples' own
// for a median (summarize), those of the same statistic over consecutive
// blocks of the samples for a quiet-host quantile (quiet). Single-valued
// metrics carry n=1 and q1=q3=value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func single(v float64, unit string) measurement {
	return measurement{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// summarize reduces per-sample values to median and quartiles.
func summarize(vals []float64, unit string) measurement {
	if len(vals) == 0 {
		return measurement{Value: math.NaN(), Unit: unit, Q1: math.NaN(), Q3: math.NaN()}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return measurement{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// This host's noise is one-sided: a neighbour on the same core slows a slice
// down, nothing speeds one up, and how many slices of a run are slowed
// changes over minutes (README, "What this host does"). So the gated timings
// are not medians over the slices but what the best tenth of them reached:
// the 90th percentile of the per-slice rates, the 10th of the per-slice
// latencies. A change to the program moves every slice, the quiet ones too.
const quietShare = 0.10

// quietBlocks is how many consecutive blocks the samples are cut into for
// the quartiles of a quiet-host quantile.
const quietBlocks = 6

// quiet reduces samples taken back to back to the value the best quietShare
// of them reached, best being low or high as better says. The quartiles are
// those of the same quantile taken over quietBlocks consecutive blocks: how
// far the number wandered inside the run.
func quiet(vals []float64, unit, better string) measurement {
	if len(vals) == 0 {
		return measurement{Value: math.NaN(), Unit: unit, Q1: math.NaN(), Q3: math.NaN()}
	}
	q := quietShare
	if better == higher {
		q = 1 - quietShare
	}
	at := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return quantile(s, q)
	}
	m := measurement{Value: at(vals), Unit: unit, N: len(vals)}
	m.Q1, m.Q3 = m.Value, m.Value
	if per := len(vals) / quietBlocks; per >= 2 {
		blocks := make([]float64, quietBlocks)
		for i := range blocks {
			blocks[i] = at(vals[i*per : (i+1)*per])
		}
		b := summarize(blocks, unit)
		m.Q1, m.Q3 = b.Q1, b.Q3
	}
	return m
}

// iqrShare is the inter-quartile range as a share of the median.
func (m measurement) iqrShare() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}

// quantile interpolates linearly between the order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return summarize(vals, "").Value }

// percentileNS returns the q-th percentile of sorted nanosecond samples by
// the nearest-rank rule: the smallest sample with at least q of the samples
// at or below it.
func percentileNS(sorted []uint32, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank])
}
