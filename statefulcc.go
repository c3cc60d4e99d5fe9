// Package statefulcc is a from-scratch reproduction of "Enabling
// Fine-Grained Incremental Builds by Making Compiler Stateful" (CGO 2024):
// an optimizing compiler for the MiniC language whose pass manager persists
// per-function pass-dormancy records and uses them to skip dormant passes
// in incremental compilations, plus the build system, virtual machine,
// workload generator, and benchmark harness around it.
//
// This package is the public facade; it re-exports the pieces a downstream
// user needs:
//
//	// One-shot compilation and execution.
//	prog, err := statefulcc.CompileAndLink(map[string][]byte{"main.mc": src})
//	out, exit, err := statefulcc.RunProgram(prog)
//
//	// An incremental build session with the stateful compiler.
//	b, _ := statefulcc.NewBuilder(statefulcc.BuildOptions{Mode: statefulcc.Stateful})
//	report, _ := b.Build(snapshot)   // cold
//	report, _ = b.Build(edited)      // incremental: dormant passes skipped
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package statefulcc

import (
	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// Mode selects the compilation policy.
type Mode = compiler.Mode

// Compilation policies.
const (
	// Stateless is the conventional compiler (the paper's baseline).
	Stateless = compiler.ModeStateless
	// Stateful is the paper's contribution, fingerprint-guarded
	// dormant-pass skipping, with in-memory segment replay.
	Stateful = compiler.ModeStateful
)

// Snapshot is a project source tree: unit name → contents.
type Snapshot = project.Snapshot

// Builder runs incremental builds, retaining object and compiler state
// between Build calls.
type Builder = buildsys.Builder

// BuildOptions configures a Builder.
type BuildOptions = buildsys.Options

// BuildReport summarizes one build.
type BuildReport = buildsys.Report

// Program is a linked executable for the bundled VM.
type Program = codegen.Program

// UnitState is one unit's persistent dormancy records.
type UnitState = core.UnitState

// Compiler compiles single units under a fixed policy.
type Compiler = compiler.Compiler

// CompilerOptions configures a Compiler.
type CompilerOptions = compiler.Options

// PipelineStats aggregates pass-manager statistics for one compilation.
type PipelineStats = core.Stats

// Profile describes a synthetic benchmark project.
type Profile = workload.Profile

// NewBuilder creates an incremental builder.
func NewBuilder(opts BuildOptions) (*Builder, error) {
	return buildsys.NewBuilder(opts)
}

// NewCompiler creates a single-unit compiler.
func NewCompiler(opts CompilerOptions) (*Compiler, error) {
	return compiler.New(opts)
}

// StandardPipeline returns the default -O2-style pass pipeline.
func StandardPipeline() []string {
	return append([]string(nil), passes.StandardPipeline...)
}

// QuickPipeline returns the -O1-style pipeline.
func QuickPipeline() []string {
	return append([]string(nil), passes.QuickPipeline...)
}

// CompileAndLink builds all units stateless with the standard pipeline and
// links them — the simplest end-to-end entry point.
func CompileAndLink(units map[string][]byte) (*Program, error) {
	b, err := NewBuilder(BuildOptions{Mode: Stateless})
	if err != nil {
		return nil, err
	}
	snap := make(Snapshot, len(units))
	for name, src := range units {
		snap[name] = src
	}
	rep, err := b.Build(snap)
	if err != nil {
		return nil, err
	}
	return rep.Program, nil
}

// RunProgram executes a linked program and returns its printed output and
// main's return value.
func RunProgram(p *Program) (string, int64, error) {
	out, res, err := vm.RunCapture(p, vm.Config{})
	if err != nil {
		return out, 0, err
	}
	return out, res.ExitValue, nil
}

// LoadProject reads every *.mc file under dir into a Snapshot.
func LoadProject(dir string) (Snapshot, error) {
	return project.LoadDir(dir)
}

// WriteProject materializes a Snapshot under dir.
func WriteProject(dir string, snap Snapshot) error {
	return project.WriteDir(dir, snap)
}

// GenerateProject builds a deterministic synthetic project.
func GenerateProject(p Profile) Snapshot {
	return workload.Generate(p)
}

// StandardSuite returns the benchmark project profiles used by the
// reproduced evaluation.
func StandardSuite() []Profile {
	return workload.StandardSuite()
}

// SimulateCommits applies n deterministic developer commits to a snapshot,
// returning the successive trees.
func SimulateCommits(base Snapshot, seed int64, n int) []Snapshot {
	h := workload.GenerateHistory(base, seed, n, workload.DefaultCommitOptions())
	return h.Commits
}
