// Command dashdb-lint runs the project's invariant-checking analyzer suite
// (internal/lint) over package patterns and reports file:line diagnostics.
//
// Usage:
//
//	dashdb-lint [-json] [-tests] [-analyzers a,b,c] [-list] [packages...]
//
// With no patterns it checks ./... from the module root. -analyzers takes a
// comma-separated subset; one name runs a single analyzer (fast iteration
// while fixing one class of finding).
//
// Exit status:
//
//	0  clean — no findings
//	1  findings exist (printed to stdout, count to stderr)
//	2  load or usage error (bad analyzer name, packages failed to load)
//
// Diagnostics can be suppressed at the offending line with
//
//	//dashdb:nolint <analyzer> <justification>
//
// which is itself part of the diff a reviewer sees. A directive placed
// above the package clause suppresses the named analyzers for the whole
// file (for generated or fixture code).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"dashdb/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut   = flag.Bool("json", false, "emit diagnostics as a JSON array")
		withTests = flag.Bool("tests", false, "also analyze in-package _test.go files")
		names     = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dashdb-lint:", err)
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dashdb-lint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.NewLoader(root)
	loader.IncludeTests = *withTests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dashdb-lint:", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "dashdb-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "dashdb-lint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// moduleRoot locates the enclosing module so patterns and relative paths
// resolve the same way no matter where the tool is invoked from.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("locating module root: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		return wd, nil
	}
	return filepath.Dir(gomod), nil
}
