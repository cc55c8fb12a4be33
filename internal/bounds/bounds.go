// Package bounds provides the closed-form performance guarantees proved or
// cited by the paper, and generates the data behind its Figure 4.
//
// All functions return the guarantee as a float64 ratio (schedule makespan
// divided by optimal makespan).
package bounds

import (
	"fmt"
	"math"
)

// Graham returns the Garey–Graham guarantee for list scheduling with
// resource constraints and no reservations on m machines (Theorem 2 of the
// paper's appendix): 2 - 1/m.
func Graham(m int) float64 {
	if m < 1 {
		panic("bounds: Graham needs m >= 1")
	}
	return 2 - 1/float64(m)
}

// NonIncreasing returns Proposition 1's guarantee for instances with
// non-increasing reservations: 2 - 1/m(C*max), where mAtOpt is the number
// of machines available at the optimal makespan (m(C*max) in the paper).
func NonIncreasing(mAtOpt int) float64 {
	if mAtOpt < 1 {
		panic("bounds: NonIncreasing needs m(C*max) >= 1")
	}
	return 2 - 1/float64(mAtOpt)
}

// validAlpha panics unless α is in (0, 1].
func validAlpha(alpha float64) {
	if !(alpha > 0 && alpha <= 1) {
		panic(fmt.Sprintf("bounds: alpha %v outside (0,1]", alpha))
	}
}

// AlphaUpper returns Proposition 3's upper bound for LSRC on the
// α-RESASCHEDULING problem: 2/α. For α = 1/2 this is the bound of 4 quoted
// in §4.2.
func AlphaUpper(alpha float64) float64 {
	validAlpha(alpha)
	return 2 / alpha
}

// Prop2 returns Proposition 2's lower bound 2/α - 1 + α/2 on the LSRC
// guarantee, exact when 2/α is an integer.
func Prop2(alpha float64) float64 {
	validAlpha(alpha)
	return 2/alpha - 1 + alpha/2
}

// B1 returns the paper's sharper general-α lower bound
//
//	B1(α) = ⌈2/α⌉ - 1 + 1/(⌊(1-α/2) / (1-(α/2)(⌈2/α⌉-1))⌋ + 1).
//
// When 2/α is an integer, B1 reduces to Proposition 2's bound.
func B1(alpha float64) float64 {
	validAlpha(alpha)
	k := math.Ceil(2/alpha - 1e-12)
	den := 1 - (alpha/2)*(k-1)
	// den > 0 always: (α/2)(⌈2/α⌉-1) < (α/2)(2/α) = 1.
	inner := math.Floor((1 - alpha/2) / den * (1 + 1e-12))
	return k - 1 + 1/(inner+1)
}

// B2 returns the paper's simpler general-α lower bound
//
//	B2(α) = ⌈2/α⌉ - (⌈2/α⌉-1)/(2/α).
//
// B2 <= B1 everywhere (the paper: "a bit less precise than B1, but easier
// to express").
func B2(alpha float64) float64 {
	validAlpha(alpha)
	k := math.Ceil(2/alpha - 1e-12)
	return k - (k-1)*alpha/2
}

// Figure4Row is one point of the paper's Figure 4: the three curves at a
// given α.
type Figure4Row struct {
	Alpha float64
	Upper float64 // 2/α (Proposition 3)
	B1    float64
	B2    float64
}

// Figure4 samples the three curves of the paper's Figure 4 on a regular α
// grid of n points spanning (0, 1]: α_i = i/n for i = 1..n.
func Figure4(n int) []Figure4Row {
	if n < 1 {
		panic("bounds: Figure4 needs n >= 1")
	}
	rows := make([]Figure4Row, 0, n)
	for i := 1; i <= n; i++ {
		a := float64(i) / float64(n)
		rows = append(rows, Figure4Row{
			Alpha: a,
			Upper: AlphaUpper(a),
			B1:    B1(a),
			B2:    B2(a),
		})
	}
	return rows
}

// Gap returns the multiplicative gap between the upper bound and B1 at α:
// AlphaUpper/B1 >= 1. The paper's Figure 4 discussion notes the two "can be
// arbitrarily close to each other for some values of α" (namely α = 2/k).
func Gap(alpha float64) float64 {
	return AlphaUpper(alpha) / B1(alpha)
}
