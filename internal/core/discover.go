package core

import (
	"fmt"
	"sort"

	"pka/internal/contingency"
	"pka/internal/maxent"
	"pka/internal/mml"
)

// Discover runs the memo's Figure 3 procedure over a dense contingency
// table and returns the fitted model with every significant joint
// probability found.
//
// The table is treated as read-only. Determinism: identical inputs produce
// identical results, including tie-breaks.
func Discover(table *contingency.Table, opts Options) (*Result, error) {
	return DiscoverCounts(table, opts)
}

// DiscoverCounts is Discover over any counts backend — dense *Table or
// wide *Sparse. The procedure consumes only the Counts marginals, so with
// screening off a sparse run is bit-identical to the dense run on the same
// counts; on wide schemas the model is fit and queried through the
// factored engine and the joint space is never materialized.
func DiscoverCounts(table contingency.Counts, opts Options) (*Result, error) {
	if err := table.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if table.Total() == 0 {
		return nil, fmt.Errorf("core: empty contingency table")
	}
	if table.R() < 2 {
		return nil, fmt.Errorf("core: discovery needs at least 2 attributes, table has %d", table.R())
	}
	opts, err := opts.withDefaults(table.R())
	if err != nil {
		return nil, err
	}
	if opts.Solve.Tol == 0 {
		opts.Solve.Tol = countScaleTol(table.Total())
	}

	// Figure 3, first box: the model starts from the first-order marginals.
	model, err := maxent.NewModel(table.Names(), contingency.CardsOf(table))
	if err != nil {
		return nil, err
	}
	if err := model.AddFirstOrderConstraints(table); err != nil {
		return nil, err
	}

	tester, err := mml.NewTester(table, opts.MML)
	if err != nil {
		return nil, err
	}

	res := &Result{Model: model, TotalSamples: table.Total()}

	// Association screen: bound the order >= 2 candidate universe to
	// families whose attribute pairs all pass the pairwise survey.
	if opts.ScreenPairs {
		adj, rep, err := buildScreen(table, opts.ScreenAlpha, opts.Workers)
		if err != nil {
			return nil, err
		}
		if opts.ScreenCI {
			if err := applyCIScreen(table, adj, opts.ScreenCIAlpha, rep); err != nil {
				return nil, err
			}
		}
		seedFams := make([]contingency.VarSet, 0, len(opts.Seed))
		for _, c := range opts.Seed {
			seedFams = append(seedFams, c.Family)
		}
		r := table.R()
		tester.RestrictFamilies(func(order int) []contingency.VarSet {
			return screenedFamilies(r, order, adj, seedFams)
		})
		res.Screen = rep
	}

	// Seed constraints ("originally given as significant").
	for _, c := range opts.Seed {
		if c.Order() < 2 {
			return nil, fmt.Errorf("core: seed constraint %v must be order >= 2", c.Family)
		}
		if err := model.AddConstraint(c); err != nil {
			return nil, err
		}
		if err := tester.MarkSignificant(c.Family, c.Values); err != nil {
			return nil, err
		}
	}

	rep, err := model.Fit(opts.Solve)
	if err != nil {
		return nil, fmt.Errorf("core: initial fit: %w", err)
	}
	if !rep.Converged {
		return nil, fmt.Errorf("core: initial fit did not converge (residual %g after %d sweeps)",
			rep.Residual, rep.Sweeps)
	}

	// accepted tracks the promoted cells per family (seeds included) for
	// the implied-zero check below.
	accepted := make(map[contingency.VarSet][]acceptedCell)
	for _, c := range opts.Seed {
		n, err := table.MarginalCount(c.Family, c.Values)
		if err != nil {
			return nil, err
		}
		accepted[c.Family] = append(accepted[c.Family], acceptedCell{values: c.Values, count: n})
	}

	st := &scanState{
		table:    table,
		model:    model,
		tester:   tester,
		opts:     opts,
		res:      res,
		accepted: accepted,
	}
	if err := st.run(); err != nil {
		return nil, err
	}
	return res, nil
}

// scanState bundles the moving parts of the greedy level-wise acquisition
// loop (Figure 3's r loop), shared by scratch discovery and the
// incremental Update path — the latter seeds it with the previous run's
// accepted constraints and a restricted candidate universe.
type scanState struct {
	table    contingency.Counts
	model    *maxent.Model
	tester   *mml.Tester
	opts     Options // defaulted
	res      *Result
	accepted map[contingency.VarSet][]acceptedCell
	// step numbers findings across runs: Update continues from the
	// previous result's count so MaxConstraints bounds the lifetime total.
	step int
}

// run scans order 2..MaxOrder, promoting the most significant cell per
// pass, pinning implied zeros, and refitting (warm, from the previous
// a-values) after each acceptance, until no candidate is significant.
func (st *scanState) run() error {
	// Scans price each candidate family with one batch marginal from the
	// model's compiled engine. Every refit rebuilds the compiled snapshot
	// (maxent.Model.Fit does so on success), so the predictor always serves
	// the coefficients of the latest accepted constraint set.
	predict := st.opts.predictor(st.model)
	for order := 2; order <= st.opts.MaxOrder; order++ {
		level := LevelReport{Order: order}
		for pass := 1; ; pass++ {
			tests, err := st.tester.ScanOrderParallel(order, predict, st.opts.Workers)
			if err != nil {
				return err
			}
			if pass == 1 {
				level.Candidates = len(tests)
			}
			selected := mml.MostSignificant(tests)
			if st.opts.RecordScans {
				st.res.Scans = append(st.res.Scans, Scan{
					Order:    order,
					Pass:     pass,
					Tests:    tests,
					Selected: selected,
				})
			}
			if selected < 0 {
				break
			}
			ct := tests[selected]
			st.step++
			c := maxent.Constraint{
				Family: ct.Family,
				Values: ct.Values,
				Target: float64(ct.Observed) / float64(st.table.Total()),
			}
			if err := st.model.AddConstraint(c); err != nil {
				return err
			}
			st.accepted[ct.Family] = append(st.accepted[ct.Family],
				acceptedCell{values: ct.Values, count: ct.Observed})
			// When the accepted cells exhaust one of the family's known
			// marginals, the remaining sibling cells under that marginal
			// are exactly zero. Pin them with zero-target constraints:
			// otherwise the maximum-entropy solution lies on the boundary
			// of the exponential family and iterative scaling converges
			// only sublinearly.
			implied, err := impliedZeros(st.table, st.model, ct.Family, st.accepted[ct.Family])
			if err != nil {
				return err
			}
			for _, z := range implied {
				if err := st.model.AddConstraint(z); err != nil {
					return err
				}
			}
			// Figure 4: re-solve starting from the previous a-values.
			rep, err := st.model.Fit(st.opts.Solve)
			if err != nil {
				return fmt.Errorf("core: refit after %s: %w", c.Label(st.model.Names()), err)
			}
			if !rep.Converged {
				return fmt.Errorf("core: refit after %s did not converge (residual %g)",
					c.Label(st.model.Names()), rep.Residual)
			}
			if err := st.tester.MarkSignificant(ct.Family, ct.Values); err != nil {
				return err
			}
			st.res.Findings = append(st.res.Findings, Finding{
				Step:         st.step,
				Order:        order,
				Test:         ct,
				Constraint:   c,
				ImpliedZeros: implied,
				FitSweeps:    rep.Sweeps,
			})
			level.Accepted++
			if st.opts.MaxConstraints > 0 && st.step >= st.opts.MaxConstraints {
				st.res.Levels = append(st.res.Levels, level)
				return nil
			}
		}
		st.res.Levels = append(st.res.Levels, level)
	}
	return nil
}

// acceptedCell is one promoted cell of a family with its observed count.
type acceptedCell struct {
	values []int
	count  int64
}

// countScaleTol is the default solver tolerance at sample size N, as in
// standard log-linear fitters: residuals below ~0.01 expected counts are
// statistically meaningless, and boundary solutions (deterministic
// structure in the data) are only approached at O(1/sweeps), so demanding
// 1e-9 there would never finish.
func countScaleTol(total int64) float64 {
	tol := 0.01 / float64(total)
	if tol < 1e-9 {
		tol = 1e-9
	}
	return tol
}

// impliedZeros finds sibling cells of the family that are exactly zero by
// arithmetic: for each first-order marginal of the just-extended family, if
// the accepted cells consume the whole marginal count, every unconstrained
// sibling cell agreeing on that marginal has observed count zero and gets a
// zero-target constraint.
func impliedZeros(table contingency.Counts, model *maxent.Model, family contingency.VarSet, cells []acceptedCell) ([]maxent.Constraint, error) {
	members := family.Members()
	var out []maxent.Constraint
	for mi, pos := range members {
		// Group the accepted cells by their value on this member.
		sums := make(map[int]int64)
		for _, c := range cells {
			sums[c.values[mi]] += c.count
		}
		// Constraint order feeds block construction and therefore the
		// fit: visit member values in sorted order, never map order.
		vals := make([]int, 0, len(sums))
		for val := range sums {
			vals = append(vals, val)
		}
		sort.Ints(vals)
		for _, val := range vals {
			sum := sums[val]
			margin, err := table.MarginalCount(contingency.NewVarSet(pos), []int{val})
			if err != nil {
				return nil, err
			}
			if sum != margin {
				continue
			}
			// Margin exhausted: every other cell of the family with this
			// member value is zero.
			siblings := enumerateFamilyCells(table, members, mi, val)
			for _, sib := range siblings {
				if model.HasConstraint(family, sib) {
					continue
				}
				out = append(out, maxent.Constraint{
					Family: family,
					Values: append([]int(nil), sib...),
					Target: 0,
				})
			}
		}
	}
	return out, nil
}

// enumerateFamilyCells lists the family's value tuples whose mi-th member is
// pinned to val.
func enumerateFamilyCells(table contingency.Counts, members []int, mi, val int) [][]int {
	var out [][]int
	values := make([]int, len(members))
	values[mi] = val
	for {
		cp := append([]int(nil), values...)
		out = append(out, cp)
		// Odometer over all members except mi.
		i := len(members) - 1
		for i >= 0 {
			if i == mi {
				i--
				continue
			}
			values[i]++
			if values[i] < table.Card(members[i]) {
				break
			}
			values[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return out
}
