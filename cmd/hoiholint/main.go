// Command hoiholint runs hoiho's project-specific static analyzers —
// the machine-enforced determinism and concurrency invariants described
// in DESIGN.md — over a CFG/dataflow analysis engine. It is built only
// on the standard library's go/parser, go/ast, and go/types; there is
// no x/tools dependency, so it runs anywhere the repo builds.
//
// Usage:
//
//	hoiholint [-list] [-checks maporder,unlockpath] [-sarif] [-o file] [packages...]
//
// Package patterns are module-relative: "./..." (the default) analyzes
// everything, "./internal/..." a subtree, "./internal/rex" a single
// package. Test files are exempt by design. Findings print one per
// line as file:line:col: check: message, sorted, and the exit status
// is 1 when there are any — the tool is a blocking CI step. The whole
// module is type-checked first; a package that fails to type-check
// ends the run with exit status 1, naming the package and the error,
// because the analyzers match calls and types through the type checker
// and would otherwise lose that package's findings without a sign.
//
// -sarif writes a SARIF 2.1.0 report (the format GitHub code scanning
// ingests as PR annotations) to stdout or to the -o file, instead of
// the human lines; it is written even when there are no findings, and
// the exit status still reports them.
//
// Suppress a single finding with a trailing or preceding comment:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory; an ignore without one is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hoiho/internal/buildinfo"
	"hoiho/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the registered checks and exit")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	sarif := flag.Bool("sarif", false, "write a SARIF 2.1.0 report instead of human-readable lines")
	outPath := flag.String("o", "", "write the report to this file (default stdout)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hoiholint")
		return
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checks != "" {
		analyzers = selectChecks(analyzers, *checks)
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []*lint.Package
	for _, pkg := range pkgs {
		for _, pattern := range patterns {
			if lint.Match(pkg.Dir, pattern) {
				selected = append(selected, pkg)
				break
			}
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("no packages match %s", strings.Join(patterns, " ")))
	}

	diags := lint.Run(selected, analyzers)
	if *sarif {
		if err := writeReport(*outPath, func(w io.Writer) error {
			return lint.WriteSARIF(w, diags, analyzers, root)
		}); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hoiholint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeReport streams a machine report to -o (atomically enough for
// CI: create/truncate then write) or to stdout.
func writeReport(path string, emit func(io.Writer) error) error {
	if path == "" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selectChecks filters the analyzer set by name, failing loudly on an
// unknown name so a typo cannot silently disable a check.
func selectChecks(all []*lint.Analyzer, spec string) []*lint.Analyzer {
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			fatal(fmt.Errorf("unknown check %q (run with -list to see them)", name))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-checks %q selects no checks", spec))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoiholint:", err)
	os.Exit(1)
}
