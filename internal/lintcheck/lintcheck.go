// Package lintcheck is the module's custom static-analysis pass: a
// stdlib-only driver (go/parser + go/types, export data resolved through
// the go toolchain's build cache) that proves the two invariants every
// layer since PR 1 hand-enforces — byte-identical sweep/serve output
// across workers × shards × caches × coordination, and temp+rename
// atomicity for every committed file — plus the API hygiene rules that
// keep them provable (strict wire parsing, cancellation plumbing, no
// library panics).
//
// Five analyzers run over every non-test file of every package in the
// module:
//
//   - atomicwrite: direct os.Create / os.WriteFile / os.OpenFile-for-write
//     calls are flagged — committed files must go through
//     internal/atomicio's temp+rename staging. Escape: //ivliw:nonatomic.
//   - strictjson: json.Unmarshal, and json.Decoder.Decode without a
//     DisallowUnknownFields call on the same decoder, are flagged — every
//     on-disk/wire record (Spec, Calibration, fault plans, Beat, manifest,
//     job.json, reports) parses strictly or not at all. No escape: fix the
//     decode.
//   - determinism: in functions reachable from the configured roots
//     (sweep.Run, sim.RunLoopBatch, Spec.Hash), time.Now/time.Since,
//     math/rand without an explicit seeded source, and range-over-map
//     whose body feeds a sink/writer/hash are flagged. Escape:
//     //ivliw:wallclock (timing/heartbeat/backoff sites whose values never
//     reach row bytes).
//   - ctxplumb: exported functions in the coordination packages that
//     launch work (goroutines, subprocesses) must accept a
//     context.Context; context.Background()/TODO() are banned outside
//     package main and tests (the documented `if ctx == nil` default guard
//     is the one allowed form). No escape: plumb the context.
//   - nopanic: panic / os.Exit / log.Fatal* in non-main library code are
//     flagged. Escape: //ivliw:invariant, stating why the site is
//     unreachable (exhaustive enum switch, Must-contract).
//
// An annotation escape is one comment — `//ivliw:<verb> <reason>` — on the
// flagged line or the line directly above it; the reason is mandatory, and
// unknown verbs or missing reasons are themselves diagnostics. cmd/ivliw-vet
// is the CLI: `ivliw-vet ./...` exits nonzero on any finding.
// TestRepoIsClean keeps the repo clean, and TestSeededViolations
// (cmd/ivliw-vet) shows the CLI reporting each analyzer's finding.
package lintcheck

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, in both the human `file:line: [name] message`
// shape and the machine-readable -json shape.
type Diagnostic struct {
	// File is the offending file, relative to the analyzed module root.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Analyzer names the rule that fired (atomicwrite, strictjson,
	// determinism, ctxplumb, nopanic, annotation).
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the canonical single-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Config parameterizes the analyzers, so the repo run and the fixture
// tests share one driver.
type Config struct {
	// DeterminismRoots are the functions whose reachable call graphs must
	// be free of nondeterminism sources, as "pkg/path.Func" or
	// "pkg/path.Type.Method" keys. Roots absent from the loaded module are
	// ignored (a generic module simply has no determinism surface).
	DeterminismRoots []string
	// CtxPackages are the import paths whose exported work-launching
	// functions must accept a context.Context.
	CtxPackages []string
}

// DefaultConfig is the repo's own policy, parameterized on the module path
// so the seeded-violation module of TestSeededViolations (cmd/ivliw-vet)
// runs under the same rules.
func DefaultConfig(module string) Config {
	return Config{
		DeterminismRoots: []string{
			module + "/sweep.Run",
			module + "/sweep.Spec.Hash",
			module + "/internal/sim.RunLoopBatch",
		},
		CtxPackages: []string{
			module + "/sweep",
			module + "/sweep/serve",
			module + "/internal/pipeline",
		},
	}
}

// An analyzer inspects the loaded module and reports through the pass.
type analyzer struct {
	name string
	run  func(*pass)
}

// pass is the per-run state handed to each analyzer.
type pass struct {
	mod   *Module
	cfg   Config
	diags *[]Diagnostic
	name  string
}

// reportf records one diagnostic at pos (a token.Pos in the module's fset),
// relativizing the file path against the module root.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	position := p.mod.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     p.mod.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether an //ivliw:<verb> annotation covers pos: same
// line as the flagged node, or the line directly above it.
func (p *pass) suppressed(pos token.Pos, verb string) bool {
	position := p.mod.Fset.Position(pos)
	anns := p.mod.Annotations[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, a := range anns[line] {
			if a.Verb == verb && a.Reason != "" {
				return true
			}
		}
	}
	return false
}

// Run executes every analyzer over the loaded module and returns the
// findings in deterministic order: file, line, column, analyzer, message.
func Run(mod *Module, cfg Config) []Diagnostic {
	var diags []Diagnostic
	analyzers := []analyzer{
		{"annotation", runAnnotationCheck},
		{"atomicwrite", runAtomicWrite},
		{"strictjson", runStrictJSON},
		{"determinism", runDeterminism},
		{"ctxplumb", runCtxPlumb},
		{"nopanic", runNoPanic},
	}
	for _, a := range analyzers {
		p := &pass{mod: mod, cfg: cfg, diags: &diags, name: a.name}
		a.run(p)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// exportedName reports whether a Go identifier is exported.
func exportedName(name string) bool {
	return name != "" && name[0] >= 'A' && name[0] <= 'Z' && !strings.HasPrefix(name, "_")
}
