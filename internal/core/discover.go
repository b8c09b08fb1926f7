package core

import (
	"fmt"
	"slices"

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
	opts, err := opts.withDefaults(table)
	if err != nil {
		return nil, err
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
		adj, rep, err := buildScreen(table, opts.ScreenAlpha)
		if err != nil {
			return nil, err
		}
		if opts.ScreenCI {
			if err := applyCIScreen(table, adj, opts.ScreenCIAlpha, rep); err != nil {
				return nil, err
			}
		}
		r := table.R()
		tester.RestrictFamilies(func(order int) []contingency.VarSet {
			return screenedFamilies(r, order, adj, nil)
		})
		res.Screen = rep
	}

	rep, err := model.Fit(opts.Solve)
	if err != nil {
		return nil, fmt.Errorf("core: initial fit: %w", err)
	}
	if !rep.Converged {
		return nil, fmt.Errorf("core: initial fit did not converge (residual %g after %d sweeps)",
			rep.Residual, rep.Sweeps)
	}

	st := &scanState{
		table:    table,
		model:    model,
		tester:   tester,
		opts:     opts,
		res:      res,
		accepted: make(map[contingency.VarSet][]acceptedCell),
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
			// Cells the accepted cells and the first-order margins force
			// to zero are pinned with zero-target constraints: otherwise
			// the maximum-entropy solution lies on the boundary of the
			// exponential family and iterative scaling converges only
			// sublinearly.
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

// impliedZeros finds the family's unconstrained cells that the accepted
// cells force to zero by arithmetic, and returns a zero-target constraint
// for each.
//
// Fixing one member to one value selects a first-order line of the family;
// its cells sum to that value's marginal count. Starting from the accepted
// cells and the cells already pinned, determined cells propagate along the
// lines until nothing changes: a line whose remainder is 0 zeroes all of
// its undetermined cells, and a line with one undetermined cell determines
// that cell. Zero lines are drained before any single-cell line is used,
// so a margin the accepted cells exhaust yields its siblings first. A cell
// that comes out as 0 is pinned unless a zero first-order margin already
// zeroes it. Lines are visited member by member and value by value, and a
// line's cells in row-major order: constraint order feeds block
// construction and therefore the fit, so it must not depend on map order.
func impliedZeros(table contingency.Counts, model *maxent.Model, family contingency.VarSet, cells []acceptedCell) ([]maxent.Constraint, error) {
	members := family.Members()
	// grid lists the family's cells in row-major order, last member
	// fastest; known[i] is grid[i]'s count, or -1 while undetermined.
	var grid [][]int
	for v := make([]int, len(members)); ; {
		grid = append(grid, append([]int(nil), v...))
		i := len(v) - 1
		for ; i >= 0; i-- {
			if v[i]++; v[i] < table.Card(members[i]) {
				break
			}
			v[i] = 0
		}
		if i < 0 {
			break
		}
	}
	known := make([]int64, len(grid))
	for i, v := range grid {
		known[i] = -1
		if !model.HasConstraint(family, v) {
			continue
		}
		known[i] = 0 // an earlier pin, unless it is an accepted cell
		for _, c := range cells {
			if slices.Equal(c.values, v) {
				known[i] = c.count
			}
		}
	}
	margins := make([][]int64, len(members))
	for mi, pos := range members {
		margins[mi] = make([]int64, table.Card(pos))
		for v := range margins[mi] {
			n, err := table.MarginalCount(contingency.NewVarSet(pos), []int{v})
			if err != nil {
				return nil, err
			}
			margins[mi][v] = n
		}
	}
	// sweep applies the zero rule, and the single-cell rule when single is
	// set, to every line once; it reports whether any cell was determined.
	var zeroed []int
	sweep := func(single bool) (bool, error) {
		progress := false
		for mi := range members {
			for val, rem := range margins[mi] {
				open, last := 0, -1
				for i, n := range known {
					switch {
					case grid[i][mi] != val:
					case n < 0:
						open, last = open+1, i
					default:
						rem -= n
					}
				}
				switch {
				case open == 0:
				case rem < 0:
					return false, fmt.Errorf("core: accepted cells of %v exceed a first-order margin", family)
				case rem == 0:
					for i, n := range known {
						if n < 0 && grid[i][mi] == val {
							known[i] = 0
							zeroed = append(zeroed, i)
						}
					}
					progress = true
				case single && open == 1:
					known[last] = rem
					progress = true
				}
			}
		}
		return progress, nil
	}
	for single := false; ; {
		progress, err := sweep(single)
		if err != nil {
			return nil, err
		}
		if single && !progress {
			break
		}
		single = !progress
	}
	var out []maxent.Constraint
cell:
	for _, i := range zeroed {
		for mi, val := range grid[i] {
			if margins[mi][val] == 0 {
				continue cell
			}
		}
		out = append(out, maxent.Constraint{Family: family, Values: grid[i], Target: 0})
	}
	return out, nil
}
