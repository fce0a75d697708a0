// Command reach lists the functions of internal/... (the experiment harness
// aside) and of the root package that a merged coverage profile never
// executes, and checks the list against an allowlist. `make reach`
// (scripts/reach.sh) builds the profile from the paths that are the system;
// a package's own unit tests and examples/ are not among them.
//
// Each allowlist line is "<function> <reason> <note...>", the reason one of
// sql, bench, hook, paper, recovery, debug. The command exits 1 when an
// unlisted function is unreached, or a listed one no longer exists or is
// reached — except under recovery, whose functions run only after a fault or
// a log compaction and so are reached on some schedules and not on others.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var reasons = map[string]bool{"sql": true, "bench": true, "hook": true, "paper": true, "recovery": true, "debug": true}

// block is one profile line with statements in it: its extent and whether
// any profile counted it.
type block struct {
	startLine, startCol, endLine, endCol int
	hit                                  bool
}

func main() {
	profile := flag.String("profile", "", "coverage profiles in text format, concatenated")
	allowPath := flag.String("allow", "REACH.allow", "functions that may stay unreached, with reasons")
	flag.Parse()

	unreached, known := map[string]bool{}, map[string]bool{}
	for file, blocks := range readProfile(*profile) {
		rel := strings.TrimPrefix(file, "sdp/")
		if strings.HasPrefix(rel, "internal/experiments/") || strings.Contains(rel, "/") != strings.HasPrefix(rel, "internal/") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, rel, nil, 0)
		check(err)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := filepath.Base(filepath.Dir(file)) + "."
			if fn.Recv != nil {
				recv := types.ExprString(fn.Recv.List[0].Type)
				if recv[0] == '*' {
					recv = "(" + recv + ")"
				}
				name += recv + "."
			}
			name += fn.Name.Name
			known[name] = true
			from, to := fset.Position(fn.Body.Lbrace), fset.Position(fn.Body.Rbrace)
			inside, hit := 0, false
			for _, b := range blocks {
				if !before(b.startLine, b.startCol, from.Line, from.Column) && !before(to.Line, to.Column+1, b.endLine, b.endCol) {
					inside++
					hit = hit || b.hit
				}
			}
			if inside > 0 && !hit {
				unreached[name] = true
			}
		}
	}

	var bad []string
	data, err := os.ReadFile(*allowPath)
	check(err)
	listed := 0
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(line, "#"):
			continue
		case len(fields) < 3 || !reasons[fields[1]]:
			bad = append(bad, "malformed line (want: function reason note): "+line)
		case !known[fields[0]]:
			bad = append(bad, "listed but no such function: "+fields[0])
		case !unreached[fields[0]] && fields[1] != "recovery":
			bad = append(bad, "listed but reached: "+fields[0])
		}
		listed++
		delete(unreached, fields[0])
	}
	for name := range unreached {
		bad = append(bad, "unreached and not listed: "+name)
	}
	sort.Strings(bad)
	fmt.Printf("reach: %d functions, %d listed in %s, %d problems\n", len(known), listed, *allowPath, len(bad))
	if len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
}

func before(l1, c1, l2, c2 int) bool { return l1 < l2 || l1 == l2 && c1 < c2 }

// readProfile returns, per file, the blocks that hold statements. The same
// block appears once per profile that instrumented it.
func readProfile(path string) map[string][]block {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	out := map[string][]block{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		colon := strings.LastIndex(line, ":")
		if strings.HasPrefix(line, "mode:") || colon < 0 {
			continue
		}
		var b block
		var stmts, count int
		_, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &b.startLine, &b.startCol, &b.endLine, &b.endCol, &stmts, &count)
		check(err)
		if b.hit = count > 0; stmts > 0 {
			out[line[:colon]] = append(out[line[:colon]], b)
		}
	}
	check(sc.Err())
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}
