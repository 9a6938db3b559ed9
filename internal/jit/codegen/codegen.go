// Package codegen applies the analysis classification to compiled code:
// each synchronized block gets a lock plan (elide / read-mostly / write),
// and the architecture's fence plans are selected per §3.4.
//
// The remaining pieces of the paper's code generation are contracts the
// interpreter honors: a catch-all recovery handler wraps every synchronized
// block (core's runSpeculative), asynchronous check points execute at
// method entries and loop back-edges (interp calls Thread.Checkpoint
// there), and read-mostly blocks run the upgrade hook before each heap
// write (interp consults the active core.Section on write opcodes).
package codegen

import (
	"fmt"
	"io"

	"repro/internal/jit/analysis"
	"repro/internal/jit/ir"
	"repro/internal/memmodel"
)

// Options controls plan selection.
type Options struct {
	// EnableElision turns read-only blocks into PlanElide; off, every
	// block gets PlanWrite (the Unelided-SOLERO / conventional setup).
	EnableElision bool
	// EnableReadMostly turns read-mostly blocks into PlanReadMostly;
	// off, they get PlanWrite.
	EnableReadMostly bool
}

// DefaultOptions enables everything.
var DefaultOptions = Options{EnableElision: true, EnableReadMostly: true}

// Report summarizes plan selection.
type Report struct {
	Elided, ReadMostly, Writing int
	// Lines holds one human-readable row per block, program order.
	Lines []string
}

// Apply stamps a lock plan onto every synchronized block of p according to
// the analysis result and options, returning a summary.
func Apply(p *ir.Program, res *analysis.Result, opts Options) *Report {
	rep := &Report{}
	for _, cm := range p.Methods {
		for _, sb := range cm.Syncs {
			br := res.Classify(sb.AST)
			plan := ir.PlanWrite
			note := ""
			if br != nil {
				switch {
				case br.Class == analysis.ReadOnly && opts.EnableElision:
					plan = ir.PlanElide
				case br.Class == analysis.ReadMostly && opts.EnableReadMostly:
					plan = ir.PlanReadMostly
					sb.WriteCount = br.HeapWrites
				}
				if br.Annotated {
					note = " (annotated)"
				}
				sb.Proven = br.FromFacts
				sb.RecoveryFree = plan == ir.PlanElide && br.RecoveryFree && !br.Annotated
				sb.MaxRetries = br.MaxRetries
			}
			sb.Plan = plan
			switch plan {
			case ir.PlanElide:
				rep.Elided++
			case ir.PlanReadMostly:
				rep.ReadMostly++
			default:
				rep.Writing++
			}
			cls := "?"
			if br != nil {
				cls = br.Class.String()
			}
			rep.Lines = append(rep.Lines, fmt.Sprintf(
				"%s sync@%s: classified %s%s -> plan %s",
				cm.Info.QName(), sb.AST.Pos, cls, note, plan))
		}
	}
	return rep
}

// Print writes the report rows plus totals.
func (r *Report) Print(w io.Writer) {
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "totals: %d elided, %d read-mostly, %d writing\n",
		r.Elided, r.ReadMostly, r.Writing)
}

// FencePlans returns the fence plans §3.4 prescribes for an architecture:
// the conventional lock's plan and SOLERO's plan. Architectures: "power",
// "tso", "none" (sequentially consistent host, e.g. the Go implementation
// itself), and "power-weak" (the incorrect WeakBarrier ablation). The
// coherence simulator charges these plans for Figure 10's fence ablation.
func FencePlans(arch string) (conventional, solero memmodel.Plan, err error) {
	switch arch {
	case "power":
		return memmodel.ConventionalPower, memmodel.SoleroPower, nil
	case "power-weak":
		return memmodel.ConventionalPower, memmodel.SoleroWeakBarrier, nil
	case "tso":
		return memmodel.NoFences, memmodel.SoleroTSO, nil
	case "none", "":
		return memmodel.NoFences, memmodel.NoFences, nil
	default:
		return memmodel.Plan{}, memmodel.Plan{}, fmt.Errorf("codegen: unknown architecture %q", arch)
	}
}
