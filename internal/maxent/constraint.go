package maxent

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"pka/internal/contingency"
)

// Constraint pins the probability of one cell of one attribute family:
// P(attributes of Family take Values) = Target. A first-order constraint is
// the memo's p_i^A (Eq. 48); a higher-order one is a significant joint such
// as p^AC_12 = .219.
type Constraint struct {
	// Family is the set of attribute positions the constraint spans.
	Family contingency.VarSet
	// Values gives one value per family member, in ascending position order.
	Values []int
	// Target is the required probability, in [0, 1].
	Target float64
}

// validate checks the constraint against attribute cardinalities. Members
// are walked by bit iteration rather than materialized — validate runs once
// per constraint on every model load, and the Members() slice showed up in
// restore allocation profiles.
func (c Constraint) validate(cards []int) error {
	if c.Family.Empty() {
		return fmt.Errorf("maxent: constraint with empty attribute family")
	}
	if n := c.Family.Len(); len(c.Values) != n {
		return fmt.Errorf("maxent: constraint over %v has %d values, want %d",
			c.Family, len(c.Values), n)
	}
	i := 0
	for wi, nw := 0, c.Family.NumWords(); wi < nw; wi++ {
		base := wi * 64
		for w := c.Family.Word(wi); w != 0; w &= w - 1 {
			p := base + bits.TrailingZeros64(w)
			if p >= len(cards) {
				return fmt.Errorf("maxent: constraint family %v exceeds %d attributes",
					c.Family, len(cards))
			}
			if c.Values[i] < 0 || c.Values[i] >= cards[p] {
				return fmt.Errorf("maxent: constraint value %d for attribute %d out of range [0,%d)",
					c.Values[i], p, cards[p])
			}
			i++
		}
	}
	// Written so that NaN fails it too.
	if !(c.Target >= 0 && c.Target <= 1) {
		return fmt.Errorf("maxent: constraint target %g outside [0,1]", c.Target)
	}
	return nil
}

// Order returns the number of attributes the constraint spans.
func (c Constraint) Order() int { return c.Family.Len() }

// key is the dedupe identity: family plus cell values. Built with
// strconv, not fmt — it runs once per constraint on every model load, and
// reflection-based formatting dominated restore profiles.
func (c Constraint) key() string {
	b := make([]byte, 0, 24+4*len(c.Values))
	b = c.Family.AppendKey(b)
	b = append(b, ':')
	for _, v := range c.Values {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

// Label renders the constraint in the memo's a-notation using the supplied
// attribute names, e.g. "a^{A,C}_{1,2}" for the N^AC_12 constraint.
// Values print 1-based to match the memo's subscripts.
func (c Constraint) Label(names []string) string {
	members := c.Family.Members()
	sup := make([]string, len(members))
	sub := make([]string, len(members))
	for i, p := range members {
		if p < len(names) {
			sup[i] = names[p]
		} else {
			sup[i] = fmt.Sprintf("v%d", p)
		}
		sub[i] = fmt.Sprintf("%d", c.Values[i]+1)
	}
	return fmt.Sprintf("a^{%s}_{%s}", strings.Join(sup, ","), strings.Join(sub, ","))
}
