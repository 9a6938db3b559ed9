// Command solerojit runs the JIT pipeline over mini-Java source and reports
// how each synchronized block is classified (§3.2/§5) and which lock plan
// it receives — the compile-time half of SOLERO made inspectable.
//
// Usage:
//
//	solerojit [-disasm] [-no-elision] [-run Class.method] [-args 1,2]
//	          [-facts proofs.json] [file.mj]
//
// With no file, a built-in demo program is compiled. -disasm also prints
// the bytecode of every method; -run executes a static int method and
// prints its result. -facts pre-seeds the classifier from a
// solero-facts/v3 proof file (`solerovet -facts` output, or - for stdin):
// proven blocks skip re-analysis, and any carried verdict that disagrees
// with fresh analysis exits 1 — the proof-carrying agreement gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/govet/facts"
	"repro/internal/jit"
	"repro/internal/jit/codegen"
	"repro/internal/jit/interp"
	"repro/internal/jthread"
)

const demo = `
// Demo: the classifier at work.
class Registry {
	int size;
	int[] slots;
	static int generation;

	// Pure lookup: elidable.
	int get(int i) {
		synchronized (this) {
			if (i < 0) { throw new ArrayIndexOutOfBoundsException(); }
			return slots[i];
		}
	}

	// Unconditional write: full lock protocol.
	void put(int i, int v) {
		synchronized (this) {
			slots[i] = v;
			Registry.generation = Registry.generation + 1;
		}
	}

	// Guarded write: read-mostly (upgrades only when it writes).
	int size(boolean refresh) {
		synchronized (this) {
			if (refresh) { size = slots.length; }
			return size;
		}
	}
}

class CountingRegistry extends Registry {
	int hits;
	// The override writes a field, so virtual calls to probe() are only
	// elidable under an annotation.
	int probe(int i) { hits = hits + 1; return i; }
}

class Client {
	// The annotation vouches for the virtual call (§3.2).
	@SoleroReadOnly
	int peek(Registry r, int i) {
		synchronized (r) {
			return r.get(i);
		}
	}
}
`

func main() {
	disasm := flag.Bool("disasm", false, "print bytecode of every method")
	noElide := flag.Bool("no-elision", false, "plan every block as writing (Unelided configuration)")
	runTarget := flag.String("run", "", "execute a static method, e.g. -run Registry.driver")
	runArgs := flag.String("args", "", "comma-separated int arguments for -run")
	factsPath := flag.String("facts", "", "pre-seed the classifier from a solero-facts/v3 file (- for stdin); exits 1 if a carried fact disagrees with fresh analysis")
	flag.Parse()

	src := demo
	name := "<demo>"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			fatalf("%v", err)
		}
		src = string(data)
	}

	opts := codegen.DefaultOptions
	if *noElide {
		opts.EnableElision = false
		opts.EnableReadMostly = false
	}
	prog, res, rep, err := jit.Build(src, opts)
	if err != nil {
		fatalf("%s: %v", name, err)
	}

	if *factsPath != "" {
		// The agreement gate: rebuild with the carried proofs pre-seeding
		// the classifier, then cross-check every seeded verdict against
		// the fresh analysis above. Facts and analyzer drifting apart is
		// exactly the failure this exit code exists to catch.
		var data []byte
		if *factsPath == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*factsPath)
		}
		if err != nil {
			fatalf("%v", err)
		}
		f, err := facts.Decode(data)
		if err != nil {
			fatalf("%v", err)
		}
		progF, resF, repF, seeded, err := jit.BuildWithFacts(src, opts, f)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if len(resF.Order) != len(res.Order) {
			fatalf("facts build classified %d blocks, fresh build %d", len(resF.Order), len(res.Order))
		}
		disagree := 0
		for i, fresh := range res.Order {
			carried := resF.Order[i]
			if carried.Class != fresh.Class {
				disagree++
				fmt.Fprintf(os.Stderr, "solerojit: facts disagree at %s @%s: carried %s, analysis says %s\n",
					fresh.Method.QName(), fresh.Sync.Pos, carried.Class, fresh.Class)
			}
		}
		fmt.Printf("facts: seeded %d/%d blocks, re-analyzed %d\n\n",
			seeded, len(resF.Order), len(resF.Order)-seeded)
		if disagree > 0 {
			fatalf("%d carried fact(s) disagree with fresh analysis", disagree)
		}
		prog, res, rep = progF, resF, repF
	}

	fmt.Printf("compiled %s: %d classes, %d methods, %d synchronized blocks\n\n",
		name, len(prog.Classes), len(prog.Methods), len(res.Order))
	fmt.Println("classification (paper §3.2/§5):")
	for _, br := range res.Order {
		note := ""
		if br.Annotated {
			note = " [annotated]"
		}
		fmt.Printf("  %-28s @%-6s -> %s%s\n", br.Method.QName(), br.Sync.Pos, br.Class, note)
		for _, v := range br.Violations {
			fmt.Printf("      not read-only: %s\n", v)
		}
	}
	fmt.Println()
	fmt.Println("lock plans:")
	rep.Print(os.Stdout)

	if *runTarget != "" {
		parts := strings.SplitN(*runTarget, ".", 2)
		if len(parts) != 2 {
			fatalf("-run wants Class.method, got %q", *runTarget)
		}
		var args []interp.Value
		if *runArgs != "" {
			for _, a := range strings.Split(*runArgs, ",") {
				n, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
				if err != nil {
					fatalf("bad -args value %q", a)
				}
				args = append(args, interp.IntVal(n))
			}
		}
		vm := jthread.NewVM()
		m := interp.NewMachine(prog, vm, interp.Options{Protocol: interp.ProtoSolero, Out: os.Stdout})
		th := vm.Attach("main")
		out, err := m.Call(th, parts[0], parts[1], args...)
		if err != nil {
			fatalf("%s threw: %v", *runTarget, err)
		}
		fmt.Printf("\n%s(%s) = %s\n", *runTarget, *runArgs, out)
	}

	if *disasm {
		fmt.Println()
		for _, cm := range prog.Methods {
			if cm.Body == nil {
				continue
			}
			fmt.Printf("-- %s --\n%s", cm.Info.QName(), cm.Body.Disassemble())
			for i, sb := range cm.Syncs {
				fmt.Printf("-- %s sync#%d (%s) --\n%s", cm.Info.QName(), i, sb.Plan, sb.Body.Disassemble())
			}
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "solerojit: "+format+"\n", args...)
	os.Exit(1)
}
