// Command doccheck verifies that every exported top-level identifier in the
// given package directories carries a doc comment: functions and methods,
// type declarations, and package-level const/var specs (a comment on the
// enclosing group counts for its members). It exits non-zero listing the
// undocumented identifiers, so `make doc-check` fails when documentation
// regresses.
//
// With -proto FILE it additionally cross-checks the wire-protocol spec
// against the code: every Msg* and ErrCode* constant declared in the given
// packages must be named in FILE, and every Msg*/ErrCode* token in FILE
// must exist as a constant — so PROTOCOL.md cannot drift from
// internal/wire.
//
// With -metrics FILE it cross-checks the observability doc against the
// metric families a representative in-process platform run registers:
// every family named in FILE (layer-prefixed backtick tokens) must exist
// in the registry after the run, and every registered family must be
// named in FILE; likewise the `stat` label values FILE's table lists for
// sqldb_engine_stat and the ones the run sets.
//
// Usage:
//
//	doccheck ./internal/core ./internal/system
//	doccheck -proto PROTOCOL.md ./internal/wire ./internal/core
//	doccheck -metrics OBSERVABILITY.md ./internal/obs
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	args := os.Args[1:]
	protoFile := ""
	metricsFile := ""
	for len(args) >= 2 && (args[0] == "-proto" || args[0] == "-metrics") {
		if args[0] == "-proto" {
			protoFile = args[1]
		} else {
			metricsFile = args[1]
		}
		args = args[2:]
	}
	dirs := args
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-proto FILE] [-metrics FILE] <package dir> ...")
		os.Exit(2)
	}
	var missing []string
	protoConsts := map[string]bool{}
	for _, dir := range dirs {
		m, err := checkDir(dir, protoConsts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers without doc comments:\n", len(missing))
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		os.Exit(1)
	}
	if protoFile != "" {
		if drift := checkProto(protoFile, protoConsts); len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "doccheck: %s drifted from the wire constants:\n", protoFile)
			for _, d := range drift {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			os.Exit(1)
		}
		fmt.Printf("doccheck: %s matches %d wire constants\n", protoFile, len(protoConsts))
	}
	if metricsFile != "" {
		if drift := checkMetrics(metricsFile); len(drift) > 0 {
			fmt.Fprintf(os.Stderr, "doccheck: %s drifted from the registered metric families:\n", metricsFile)
			for _, d := range drift {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			os.Exit(1)
		}
		fmt.Printf("doccheck: %s matches the registered metric families\n", metricsFile)
	}
	fmt.Printf("doccheck: ok (%d packages)\n", len(dirs))
}

// protoName matches wire message-type and error-code identifiers, both in
// Go source (constant names) and in prose (PROTOCOL.md backtick spans).
var protoName = regexp.MustCompile(`\b(Msg[A-Z]\w*|ErrCode[A-Z]\w*)\b`)

// checkProto compares the Msg*/ErrCode* constants collected from the
// scanned packages against the names used in the protocol spec, reporting
// drift in either direction.
func checkProto(file string, consts map[string]bool) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		return []string{err.Error()}
	}
	inDoc := map[string]bool{}
	for _, m := range protoName.FindAllString(string(data), -1) {
		inDoc[m] = true
	}
	var drift []string
	for name := range consts {
		if !inDoc[name] {
			drift = append(drift, fmt.Sprintf("constant %s is not documented in %s", name, file))
		}
	}
	for name := range inDoc {
		if !consts[name] {
			drift = append(drift, fmt.Sprintf("%s names %s, which no scanned package declares", file, name))
		}
	}
	sort.Strings(drift)
	return drift
}

// checkDir parses every non-test .go file in dir and returns the exported
// identifiers lacking documentation, as "file:line: name" strings. Along
// the way it records every Msg*/ErrCode* constant into protoConsts for the
// -proto cross-check.
func checkDir(dir string, protoConsts map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s %s", filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), kindOf(d), d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
					if d.Tok == token.CONST {
						for _, spec := range d.Specs {
							vs, ok := spec.(*ast.ValueSpec)
							if !ok {
								continue
							}
							for _, name := range vs.Names {
								if protoName.MatchString(name.Name) {
									protoConsts[name.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return missing, nil
}

// kindOf distinguishes methods from functions in reports.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "func"
}

// checkGenDecl inspects one type/const/var declaration. A doc comment on
// the grouped declaration documents every spec inside it; otherwise each
// exported spec needs its own comment.
func checkGenDecl(d *ast.GenDecl, report func(pos token.Pos, what, name string)) {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return
	}
	groupDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDocumented && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDocumented || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}
